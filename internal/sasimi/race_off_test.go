//go:build !race

package sasimi

// raceEnabled reports whether the race detector is compiled in; the
// brute-force gather comparison drops its 3000-gate circuit under -race,
// where that one row needs about 2 GB and a minute.
const raceEnabled = false

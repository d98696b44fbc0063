//go:build race

package sasimi

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true

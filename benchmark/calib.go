package main

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// The host the benchmark was written on shares its CPUs with other
// tenants, and its speed drifts by up to 1.8x over minutes: c880-er's
// median flow read 478 ms in one run and 878 ms in a run four minutes
// later, and the set-up times moved with it. No statistic over a 10 s run
// removes that. The bounded timings (latency and set-up) are therefore
// reported at a reference speed: around each timed operation the
// benchmark times a fixed calibration kernel and scales the operation's
// time by calibRefMS over the kernel's time. The kernel is the
// benchmark's own code, so a change to the program cannot move it. Like
// the flows' pool, two goroutines pull its chunks from a shared counter,
// so a CPU slowed by a neighbour does less of the work instead of holding
// the other at a barrier. A chunk mixes the flows' kinds of work:
// streaming word operations (simulation), a loop over set bits with
// data-dependent branches and float sums (the AEM score kernel), and
// random reads of a 1 MB table (CPM rows). Everything it touches fits in
// the per-core cache, so where the host happened to place its memory does
// not move it.

// calibRefMS is the calibration kernel's time on the recording host; a
// scaled timing reads what the operation would take there.
const calibRefMS = 12.0

// calibChunks is the number of chunks in one calibration run, and
// quickChunks in the quarter-size run quickFactor times.
const (
	calibChunks = 32
	quickChunks = 8
)

var calib struct {
	once  sync.Once
	words [workers][]uint64 // one 64 KB stream per goroutine
	table []uint64          // random-read targets
	sink  [workers]float64
}

func initCalib() {
	for w := range calib.words {
		calib.words[w] = make([]uint64, 8<<10)
	}
	calib.table = make([]uint64, 1<<17)
	for i := range calib.table {
		calib.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
}

// hostFactor times the calibration kernel reps times on a collected heap
// and returns calibRefMS over the median time: the factor that scales a
// time measured now to the reference speed.
func hostFactor(reps int) float64 {
	runtime.GC()
	t := make([]float64, reps)
	for i := range t {
		t[i] = kernelMS(calibChunks)
	}
	return calibRefMS / median(t)
}

// quickFactor times a quarter-size calibration run once and returns the
// factor it gives. It takes about 3 ms at the reference speed, so it can
// precede every operation of a few milliseconds: a host that slows for a
// moment slows the operation and its own calibration alike, which a
// calibration a second earlier misses.
func quickFactor() float64 {
	return calibRefMS * quickChunks / calibChunks / kernelMS(quickChunks)
}

// bracket combines the host factors measured just before and just after
// an operation into the factor of their mean kernel time, so a slowdown
// that starts or ends during the operation is half seen.
func bracket(before, after float64) float64 { return 2 / (1/before + 1/after) }

// kernelMS runs the first chunks chunks of the calibration kernel and
// returns how long they took in ms.
func kernelMS(chunks int32) float64 {
	calib.once.Do(initCalib)
	t0 := time.Now()
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := range calib.words {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1); c <= chunks; c = next.Add(1) {
				calib.sink[w] += calibChunk(calib.words[w], uint64(c))
			}
		}()
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// calibChunk is one chunk of calibration work. It starts from contents
// set by its argument alone, so the same chunk always does the same work.
func calibChunk(s []uint64, x uint64) float64 {
	for i := range s {
		s[i] = uint64(i)*0x9E3779B97F4A7C15 + x
	}
	var total float64
	for r := 0; r < 2; r++ {
		for i := 1; i < len(s); i++ {
			s[i] = (s[i-1] ^ s[i]) + (s[i] >> 3) | x
		}
		for i := 0; i+2 < len(s); i += 4 {
			word := s[i] ^ s[i+1]
			for word != 0 {
				bit := word & -word
				word ^= bit
				if s[i+2]&bit != 0 {
					total += float64(bits.TrailingZeros64(bit))
				} else {
					total -= 0.5
				}
			}
		}
		for i := 0; i < 4096; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= calib.table[x>>47]
		}
	}
	return total + float64(x&1)
}

package batchals

// BenchmarkIncrementalIterations measures the incremental iteration engine
// end to end on c880: a capped multi-iteration SASIMI run with the engine
// on (cone-scoped resimulation, dirty-region CPM refresh, cached candidate
// gathering) versus the per-iteration full rebuild. Both configurations
// produce bit-identical results (pinned by internal/sasimi's differential
// suite), so the only difference is time; the incremental sub-benchmark
// reports speedup_x against a full-rebuild baseline measured in the same
// process.

import (
	"sync"
	"testing"
	"time"
)

const (
	incBenchPatterns = 2000
	incBenchIters    = 24
)

func incrementalRunOnce(b *testing.B, golden *Network, mode IncrementalMode) {
	b.Helper()
	res, err := Approximate(golden, Options{
		Metric:        ErrorRate,
		Threshold:     0.05,
		NumPatterns:   incBenchPatterns,
		Seed:          1,
		Workers:       1,
		MaxIterations: incBenchIters,
		Incremental:   mode,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.NumIterations == 0 {
		b.Fatal("no iterations accepted on c880")
	}
}

// incBenchBaseline memoises the full-rebuild wall time so the incremental
// sub-benchmark's speedup_x has a stable denominator.
var incBenchBaseline struct {
	once sync.Once
	ns   float64
}

func BenchmarkIncrementalIterations(b *testing.B) {
	golden, err := Benchmark("c880")
	if err != nil {
		b.Fatal(err)
	}
	incBenchBaseline.once.Do(func() {
		incrementalRunOnce(b, golden, IncrementalOff) // warm caches
		start := time.Now()
		incrementalRunOnce(b, golden, IncrementalOff)
		incBenchBaseline.ns = float64(time.Since(start).Nanoseconds())
	})

	for _, cfg := range []struct {
		name string
		mode IncrementalMode
	}{
		{"full-rebuild", IncrementalOff},
		{"incremental", IncrementalAuto},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				incrementalRunOnce(b, golden, cfg.mode)
			}
			elapsed := float64(time.Since(start).Nanoseconds()) / float64(b.N)
			if incBenchBaseline.ns > 0 {
				b.ReportMetric(incBenchBaseline.ns/elapsed, "speedup_x")
			}
		})
	}
}

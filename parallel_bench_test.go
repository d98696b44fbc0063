package batchals

// BenchmarkParallelEstimate measures the pattern-sharded parallel
// estimation engine end to end on c880: one full batch-estimation pass
// (simulation, CPM construction, candidate gathering and sharded scoring)
// at 1, 2, 4 and NumCPU workers. Results are bit-identical at every
// worker count (pinned by internal/sasimi's differential suite), so the
// only thing that may vary between sub-benchmarks is time. A
// sub-benchmark whose worker count fits the host's CPUs (workers <=
// runtime.NumCPU()) reports speedup_x against a single-worker baseline
// measured in the same process; one with more workers than CPUs reports
// none, since its workers time-share cores and the ratio would measure
// the host, not the engine.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"batchals/internal/bench"
	"batchals/internal/flow"
	"batchals/internal/sasimi"
)

// parEstBaseline memoises the single-worker wall time of the benchmark's
// workload so every sub-benchmark's speedup_x shares one denominator.
var parEstBaseline struct {
	once sync.Once
	ns   float64
}

const parEstPatterns = 4096

func parEstimateOnce(b *testing.B, golden *Network, workers int) {
	cands, err := sasimi.EstimateAll(golden, golden.Clone(), sasimi.Config{
		Budget: flow.Budget{
			Metric:      ErrorRate,
			Threshold:   0.05,
			NumPatterns: parEstPatterns,
			Seed:        1,
		},
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(cands) == 0 {
		b.Fatal("no candidates on c880")
	}
}

func BenchmarkParallelEstimate(b *testing.B) {
	golden, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	parEstBaseline.once.Do(func() {
		parEstimateOnce(b, golden, 1) // warm caches so the baseline is not a cold start
		start := time.Now()
		parEstimateOnce(b, golden, 1)
		parEstBaseline.ns = float64(time.Since(start).Nanoseconds())
	})
	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(benchName("w", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parEstimateOnce(b, golden, w)
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 && w <= runtime.NumCPU() {
				b.ReportMetric(parEstBaseline.ns/perOp, "speedup_x")
			}
			b.ReportMetric(float64(w), "workers")
		})
	}
}

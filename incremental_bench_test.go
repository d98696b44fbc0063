package batchals

// BenchmarkIncrementalIterations measures the incremental iteration engine
// end to end on c880: a capped multi-iteration SASIMI run on one worker
// (cone-scoped resimulation, dirty-region CPM refresh, cached candidate
// gathering). The sub-benchmark keeps its /incremental name so its
// history in the committed baselines stays comparable.

import "testing"

const (
	incBenchPatterns = 2000
	incBenchIters    = 24
)

func BenchmarkIncrementalIterations(b *testing.B) {
	golden, err := Benchmark("c880")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Approximate(golden, Options{
				Metric:        ErrorRate,
				Threshold:     0.05,
				NumPatterns:   incBenchPatterns,
				Seed:          1,
				Workers:       1,
				MaxIterations: incBenchIters,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.NumIterations == 0 {
				b.Fatal("no iterations accepted on c880")
			}
		}
	})
}

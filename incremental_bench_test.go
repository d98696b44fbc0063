package batchals

// BenchmarkIncrementalIterations measures the incremental iteration engine
// end to end on c880 (cone-scoped resimulation, dirty-region CPM refresh,
// cached candidate gathering, carried pattern sums). /incremental is a
// capped multi-iteration run on one worker and keeps its name so its
// history in the committed baselines stays comparable; /c880-er runs the
// paper's setting to convergence — ER ≤ 1%, M = 10000, exact top-8
// recheck, two workers — where the carried sums take most of the
// scoring off the iteration. /mul8-aem runs the benchmark's AEM workload
// options — mul8, AEM ≤ 64, M = 1024, 12 iterations, two workers — where
// the AEM scoring pass, target by target, carries the load.

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
	b.Run("c880-er", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Approximate(golden, Options{
				Metric:      ErrorRate,
				Threshold:   0.01,
				NumPatterns: 10000,
				Seed:        1,
				Workers:     2,
				VerifyTopK:  8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.NumIterations == 0 {
				b.Fatal("no iterations accepted on c880")
			}
		}
	})
	b.Run("mul8-aem", func(b *testing.B) {
		mul8, err := Benchmark("mul8")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, err := Approximate(mul8, Options{
				Metric:        AvgErrorMagnitude,
				Threshold:     64,
				NumPatterns:   1024,
				Seed:          1,
				Workers:       2,
				MaxIterations: 12,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.NumIterations == 0 {
				b.Fatal("no iterations accepted on mul8")
			}
		}
	})
}

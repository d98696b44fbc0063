package batchals

// Ablation benchmarks for the design choices behind the batch estimator
// and the flow, beyond the paper's own tables: CPM construction cost as M
// grows (word-parallelism), per-candidate ΔER/ΔAEM query cost, the
// similarity cap of the candidate filter, and the top-K exact-verification
// extension.

import (
	"strconv"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
)

// BenchmarkAblationCPMBuild measures CPM construction alone on c880 for
// growing pattern counts; time should scale near-linearly in M/64.
func BenchmarkAblationCPMBuild(b *testing.B) {
	golden, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{512, 2048, 8192} {
		p := sim.RandomPatterns(golden.NumInputs(), m, 1)
		vals := sim.Simulate(golden, p)
		b.Run(benchName("M", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Build(golden, vals)
			}
		})
		// The ER form under an error state that gets every 100th pattern
		// wrong, c880-er's 1% budget: the AnyProp rows over all M
		// patterns plus the per-output rows at the wrong ones.
		out := sim.OutputMatrix(golden, vals)
		approx := out.Clone()
		for i := 0; i < m; i += 100 {
			approx.Row(i % approx.Rows()).Flip(i)
		}
		st := emetric.NewState(out, approx)
		b.Run("ER/"+benchName("M", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.BuildER(golden, vals, st, nil)
			}
		})
	}
}

// BenchmarkAblationDeltaER measures the per-candidate ΔER query: the
// Θ(M·O/64) inner loop of the batch method.
func BenchmarkAblationDeltaER(b *testing.B) {
	golden, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	const m = 4096
	p := sim.RandomPatterns(golden.NumInputs(), m, 1)
	vals := sim.Simulate(golden, p)
	out := sim.OutputMatrix(golden, vals)
	st := emetric.NewState(out, out.Clone())
	cpm := core.Build(golden, vals)
	var gates []circuit.NodeID
	for _, id := range golden.LiveNodes() {
		if golden.Kind(id).IsGate() {
			gates = append(gates, id)
		}
	}
	change := bitvec.New(m)
	for i := 0; i < m; i += 3 {
		change.Set(i, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cpm.DeltaER(gates[i%len(gates)], change, st)
	}
}

// BenchmarkAblationDeltaAEM measures the per-candidate ΔAEM query on an
// arithmetic circuit.
func BenchmarkAblationDeltaAEM(b *testing.B) {
	golden, err := bench.ByName("mul8")
	if err != nil {
		b.Fatal(err)
	}
	const m = 4096
	p := sim.RandomPatterns(golden.NumInputs(), m, 1)
	vals := sim.Simulate(golden, p)
	out := sim.OutputMatrix(golden, vals)
	st := emetric.NewState(out, out.Clone())
	cpm := core.Build(golden, vals)
	var gates []circuit.NodeID
	for _, id := range golden.LiveNodes() {
		if golden.Kind(id).IsGate() {
			gates = append(gates, id)
		}
	}
	change := bitvec.New(m)
	for i := 0; i < m; i += 5 {
		change.Set(i, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cpm.DeltaAEM(gates[i%len(gates)], change, st)
	}
}

// BenchmarkAblationSimilarityCap sweeps the candidate filter's similarity
// cap: a looser cap admits more candidates (larger T, more estimation
// work) for diminishing quality returns.
func BenchmarkAblationSimilarityCap(b *testing.B) {
	golden, err := bench.ByName("mul4")
	if err != nil {
		b.Fatal(err)
	}
	for _, capv := range []float64{0.1, 0.3, 0.5} {
		b.Run(benchName("cap", int(capv*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sasimi.Run(golden, sasimi.Config{
					Budget: flow.Budget{
						Metric:      core.MetricER,
						Threshold:   0.03,
						NumPatterns: 1000,
						Seed:        1,
					},
					Estimator:     sasimi.EstimatorBatch,
					SimilarityCap: capv,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AreaRatio(), "area_ratio")
			}
		})
	}
}

// BenchmarkAblationVerifyTopK sweeps the exact-verification width of the
// reconvergence mitigation: K=0 is the plain paper method.
func BenchmarkAblationVerifyTopK(b *testing.B) {
	golden, err := bench.ByName("mul4")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{0, 8, 32} {
		b.Run(benchName("K", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sasimi.Run(golden, sasimi.Config{
					Budget: flow.Budget{
						Metric:      core.MetricER,
						Threshold:   0.03,
						NumPatterns: 1000,
						Seed:        1,
					},
					Estimator:  sasimi.EstimatorBatch,
					VerifyTopK: k,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AreaRatio(), "area_ratio")
			}
		})
	}
}

// BenchmarkSimulationThroughput measures raw bit-parallel simulation:
// patterns times gates per second on the largest synthetic circuit.
func BenchmarkSimulationThroughput(b *testing.B) {
	golden, err := bench.ByName("c7552")
	if err != nil {
		b.Fatal(err)
	}
	const m = 8192
	p := sim.RandomPatterns(golden.NumInputs(), m, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(golden, p)
	}
	b.ReportMetric(float64(m)*float64(golden.NumGates())*float64(b.N)/b.Elapsed().Seconds()/1e9,
		"Geval/s")
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}

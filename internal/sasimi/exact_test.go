package sasimi

import (
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

// TestExactCertificateMatchesExactDelta validates the CPM-exactness
// certificate empirically: for every SASIMI candidate the batch estimator
// flags Exact, the batch ΔER must equal the fully-resimulated ExactDelta
// bit for bit (1e-12 tolerance) on the same pattern set. Reconvergent
// (uncertified) candidates carry no such guarantee — the paper's admitted
// weak spot — and at least some certified candidates must exist so the
// check is not vacuous.
func TestExactCertificateMatchesExactDelta(t *testing.T) {
	// Per-benchmark similarity caps: parity signals sit at p≈0.5, so the
	// pair filter needs a looser cap there to admit any candidate.
	for name, cap := range map[string]float64{
		"dec4": 0.45, "par16": 0.6, "rca8": 0.45, "cmp8": 0.45,
	} {
		golden, err := bench.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				NumPatterns: 4096,
				Seed:        11,
			},
			Estimator:     EstimatorBatch,
			SimilarityCap: cap,
		}
		cands, err := EstimateAll(golden, golden.Clone(), cfg)
		if err != nil {
			t.Fatalf("%s: EstimateAll: %v", name, err)
		}
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates to check", name)
		}

		// Recreate the estimation context to score candidates exactly.
		cfg.fillDefaults()
		approx := golden.Clone()
		patterns := sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
		goldenVals := sim.Simulate(golden, patterns)
		vals := sim.Simulate(approx, patterns)
		st := emetric.NewState(sim.OutputMatrix(golden, goldenVals), sim.OutputMatrix(approx, vals))

		scratch := bitvec.New(patterns.NumPatterns())
		nExact := 0
		for i := range cands {
			c := &cands[i]
			if !c.Exact {
				continue
			}
			nExact++
			id := identityOf(c)
			sub := id.substituteValue(vals, scratch)
			want := core.ExactDelta(approx, vals, c.Target, sub, st, core.MetricER)
			if diff := c.Delta - want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s: certified candidate (target %s) batch ΔER %.15f != exact %.15f",
					name, approx.NameOf(c.Target), c.Delta, want)
			}
		}
		if nExact == 0 {
			t.Errorf("%s: no candidate was certified exact; validation is vacuous", name)
		}
		t.Logf("%s: %d/%d candidates certified exact and verified", name, nExact, len(cands))
	}
}

// TestExactFlagByEstimator pins the per-estimator certificate semantics:
// full is always exact, local never, batch according to the structure.
func TestExactFlagByEstimator(t *testing.T) {
	golden, err := bench.ByName("dec4") // tree-like: batch certifies everything
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind EstimatorKind
		want bool
	}{
		{EstimatorBatch, true},
		{EstimatorFull, true},
		{EstimatorLocal, false},
	} {
		cands, err := EstimateAll(golden, golden.Clone(), Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				NumPatterns: 1024,
				Seed:        3,
			},
			Estimator: tc.kind,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if len(cands) == 0 {
			t.Fatalf("%v: no candidates", tc.kind)
		}
		for i := range cands {
			if cands[i].Exact != tc.want {
				t.Fatalf("%v: candidate %d Exact=%v, want %v", tc.kind, i, cands[i].Exact, tc.want)
			}
		}
	}
}

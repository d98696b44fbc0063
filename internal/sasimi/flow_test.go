package sasimi

import (
	"math"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

func runOn(t *testing.T, netName string, cfg Config) *Result {
	t.Helper()
	// Structural invariant checking is on by default in tests: any
	// substitution that closes a combinational loop fails the run with a
	// named cycle instead of panicking downstream.
	cfg.CheckInvariants = true
	n, err := bench.ByName(netName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestZeroThresholdKeepsExactCircuit(t *testing.T) {
	n := bench.RCA(8)
	res, err := Run(n, Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0, NumPatterns: 2000, Seed: 1}, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	// Any accepted substitution must keep measured error at 0; the final
	// circuit must be exactly equivalent on the pattern set.
	if res.FinalError != 0 {
		t.Fatalf("final error %v under zero threshold", res.FinalError)
	}
	if res.FinalArea > res.OriginalArea {
		t.Fatalf("area grew: %v -> %v", res.OriginalArea, res.FinalArea)
	}
}

func TestFlowRespectsERThreshold(t *testing.T) {
	for _, kind := range []EstimatorKind{EstimatorBatch, EstimatorFull, EstimatorLocal} {
		res := runOn(t, "mul4", Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.05,
				NumPatterns: 2000,
				Seed:        7,
			},
			Estimator: kind,
			KeepTrace: true,
		})
		if res.FinalError > 0.05+1e-9 {
			t.Fatalf("%v: measured error %v exceeds threshold", kind, res.FinalError)
		}
		// Exact check against the golden circuit over the full input space.
		golden := bench.MUL(4)
		exact := emetric.MeasureExact(golden, res.Approx)
		if exact.ErrorRate > 0.12 {
			t.Fatalf("%v: exact ER %v wildly above threshold (MC gap too large)", kind, exact.ErrorRate)
		}
		if err := res.Approx.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestFlowReducesArea(t *testing.T) {
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        3,
		},
		Estimator: EstimatorBatch,
	})
	if res.NumIterations == 0 {
		t.Fatal("flow accepted no substitution at a 5% budget")
	}
	if res.FinalArea >= res.OriginalArea {
		t.Fatalf("no area reduction: %v -> %v", res.OriginalArea, res.FinalArea)
	}
}

func TestBatchAtLeastAsGoodAsLocal(t *testing.T) {
	// The paper's headline claim: the flow with batch estimation reaches
	// equal or better area than the local-estimation flow.
	for _, name := range []string{"cmp8", "mul4"} {
		batch := runOn(t, name, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.03,
				NumPatterns: 3000,
				Seed:        5,
			},
			Estimator: EstimatorBatch,
		})
		local := runOn(t, name, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.03,
				NumPatterns: 3000,
				Seed:        5,
			},
			Estimator: EstimatorLocal,
		})
		if batch.NumIterations == 0 {
			t.Fatalf("%s: batch flow made no progress (vacuous comparison)", name)
		}
		if batch.FinalArea > local.FinalArea+1e-9 {
			t.Fatalf("%s: batch area %v worse than local %v", name, batch.FinalArea, local.FinalArea)
		}
	}
}

func TestBatchMatchesFullQuality(t *testing.T) {
	// Table 2 property: same final quality, batch much cheaper. On small
	// circuits the areas should match closely (estimation differences can
	// change tie-breaks, so allow a small slack).
	for _, name := range []string{"cmp8"} {
		batch := runOn(t, name, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.01,
				NumPatterns: 2000,
				Seed:        11,
			},
			Estimator: EstimatorBatch,
		})
		full := runOn(t, name, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.01,
				NumPatterns: 2000,
				Seed:        11,
			},
			Estimator: EstimatorFull,
		})
		ratioB := batch.AreaRatio()
		ratioF := full.AreaRatio()
		if math.Abs(ratioB-ratioF) > 0.08 {
			t.Fatalf("%s: batch ratio %.3f vs full ratio %.3f", name, ratioB, ratioF)
		}
	}
}

func TestAEMFlow(t *testing.T) {
	golden := bench.MUL(4)
	res, err := Run(golden, Config{
		Budget: flow.Budget{
			Metric:      core.MetricAEM,
			Threshold:   2.0,
			NumPatterns: 4000,
			Seed:        9,
		},
		Estimator:       EstimatorBatch,
		KeepTrace:       true,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 2.0+1e-9 {
		t.Fatalf("AEM %v exceeds threshold", res.FinalError)
	}
	if res.NumIterations == 0 {
		t.Fatal("AEM flow made no progress")
	}
	// Exact AEM must also be near the budget (8 inputs: enumerable).
	exact := emetric.MeasureExact(golden, res.Approx)
	if exact.AvgErrMag > 4.0 {
		t.Fatalf("exact AEM %v far beyond threshold 2.0", exact.AvgErrMag)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.02,
			NumPatterns: 1500,
			Seed:        21,
		},
		Estimator: EstimatorBatch,
	})
	b := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.02,
			NumPatterns: 1500,
			Seed:        21,
		},
		Estimator: EstimatorBatch,
	})
	if a.FinalArea != b.FinalArea || a.NumIterations != b.NumIterations {
		t.Fatalf("same seed, different outcome: %v/%v vs %v/%v",
			a.FinalArea, a.NumIterations, b.FinalArea, b.NumIterations)
	}
	if a.Approx.Dump() != b.Approx.Dump() {
		t.Fatal("same seed produced structurally different circuits")
	}
}

func TestDelayNeverIncreases(t *testing.T) {
	lib := cell.Default()
	for _, name := range []string{"rca8", "mul4", "cmp8"} {
		golden, _ := bench.ByName(name)
		res, err := Run(golden, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.05,
				NumPatterns: 2000,
				Seed:        13,
				Library:     lib,
			},
			Estimator:       EstimatorBatch,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if lib.NetworkDelay(res.Approx) > lib.NetworkDelay(golden)+1e-9 {
			t.Fatalf("%s: delay increased %v -> %v", name,
				lib.NetworkDelay(golden), lib.NetworkDelay(res.Approx))
		}
	}
}

func TestTraceMonotonicity(t *testing.T) {
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        17,
		},
		Estimator: EstimatorBatch,
		KeepTrace: true,
	})
	if len(res.Iterations) != res.NumIterations {
		t.Fatalf("trace length %d != iterations %d", len(res.Iterations), res.NumIterations)
	}
	prevArea := res.OriginalArea
	for _, rec := range res.Iterations {
		if rec.Area >= prevArea {
			t.Fatalf("iteration %d: area %v did not decrease from %v", rec.Iter, rec.Area, prevArea)
		}
		// The realised area drop must equal the candidate's predicted gain
		// (this pins the MFFC-with-pinned-substitute computation).
		if got := prevArea - rec.Area; math.Abs(got-rec.EstGain) > 1e-9 {
			t.Fatalf("iteration %d: realised gain %v != predicted %v", rec.Iter, got, rec.EstGain)
		}
		prevArea = rec.Area
		if rec.ActualErr > 0.05+1e-9 {
			t.Fatalf("iteration %d: actual error %v above threshold", rec.Iter, rec.ActualErr)
		}
		if rec.Target == "" || rec.Sub == "" {
			t.Fatalf("iteration %d: missing names", rec.Iter)
		}
	}
}

func TestMaxIterations(t *testing.T) {
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:        core.MetricER,
			Threshold:     0.05,
			NumPatterns:   1500,
			Seed:          19,
			MaxIterations: 2,
		},
		Estimator: EstimatorBatch,
	})
	if res.NumIterations > 2 {
		t.Fatalf("iterations %d exceed cap", res.NumIterations)
	}
}

func TestEstimateAll(t *testing.T) {
	golden := bench.RCA(8)
	cands, err := EstimateAll(golden, golden.Clone(), Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			NumPatterns: 1500,
			Seed:        23,
			Threshold:   1,
		},
		Estimator: EstimatorBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates found on RCA8")
	}
	for _, c := range cands {
		if c.DiffProb < 0 || c.DiffProb > 1 {
			t.Fatalf("bad diff prob %v", c.DiffProb)
		}
		if c.AreaGain <= 0 {
			t.Fatalf("non-positive gain candidate survived: %+v", c)
		}
		if c.Delta < -1 || c.Delta > 1 {
			t.Fatalf("ΔER out of range: %v", c.Delta)
		}
	}
}

func TestEstimateAllBatchVsFullAgree(t *testing.T) {
	// With an identical approximate circuit (no accumulated error) and a
	// small network, batch estimates should track full simulation well.
	golden := bench.RCA(6)
	base := Config{Budget: flow.Budget{Metric: core.MetricER, NumPatterns: 2000, Seed: 29, Threshold: 1}}
	cfgB := base
	cfgB.Estimator = EstimatorBatch
	cfgF := base
	cfgF.Estimator = EstimatorFull
	cb, err := EstimateAll(golden, golden.Clone(), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := EstimateAll(golden, golden.Clone(), cfgF)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb) != len(cf) {
		t.Fatalf("candidate counts differ: %d vs %d", len(cb), len(cf))
	}
	var sumAbs float64
	for i := range cb {
		if cb[i].Target != cf[i].Target || cb[i].Sub != cf[i].Sub || cb[i].Inverted != cf[i].Inverted {
			t.Fatal("candidate enumeration order differs")
		}
		sumAbs += math.Abs(cb[i].Delta - cf[i].Delta)
	}
	if avg := sumAbs / float64(len(cb)); avg > 0.01 {
		t.Fatalf("mean |batch-full| ΔER = %v too large", avg)
	}
}

func TestInvalidInputs(t *testing.T) {
	n := bench.RCA(4)
	if _, err := Run(n, Config{Budget: flow.Budget{Threshold: -1}}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	wide := circuit.New("wide")
	in := wide.AddInput("a")
	g := wide.AddGate(circuit.KindNot, in)
	for i := 0; i < 70; i++ {
		wide.AddOutput("", g)
	}
	if _, err := Run(wide, Config{Budget: flow.Budget{Metric: core.MetricAEM, Threshold: 1}}); err == nil {
		t.Fatal("AEM flow with 70 outputs accepted")
	}
}

func TestCustomPatterns(t *testing.T) {
	golden := bench.RCA(6)
	p := sim.NewPatterns(12, 500) // all-zero inputs
	for k := 0; k < 12; k++ {
		if p.InputRow(k).Any() {
			t.Fatal("expected all-zero patterns")
		}
	}
	res, err := Run(golden, Config{
		Budget: flow.Budget{
			Metric:    core.MetricER,
			Threshold: 0,
		},
		Patterns:        p,
		Estimator:       EstimatorBatch,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under a constant-zero distribution nearly everything is
	// substitutable by constants at zero observed error.
	if res.FinalArea >= res.OriginalArea/2 {
		t.Fatalf("expected massive reduction under degenerate distribution, got %v -> %v",
			res.OriginalArea, res.FinalArea)
	}
}

func TestEstimatorKindString(t *testing.T) {
	if EstimatorBatch.String() != "batch" || EstimatorFull.String() != "full" ||
		EstimatorLocal.String() != "local" || EstimatorKind(99).String() != "unknown" {
		t.Fatal("estimator names wrong")
	}
}

func TestFlowTerminatesAndGainsExactOnSynthetic(t *testing.T) {
	// Regression: substitutions whose substitute lies inside the target's
	// MFFC used to over-report their gain, letting the flow accept
	// zero-progress swaps forever on reconvergent synthetic circuits.
	res := runOn(t, "c880", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.01,
			NumPatterns: 600,
			Seed:        1,
		},
		Estimator: EstimatorBatch,
		KeepTrace: true,
	})
	prev := res.OriginalArea
	for _, rec := range res.Iterations {
		got := prev - rec.Area
		if math.Abs(got-rec.EstGain) > 1e-9 {
			t.Fatalf("iteration %d: realised gain %v != predicted %v", rec.Iter, got, rec.EstGain)
		}
		if rec.EstGain <= 0 {
			t.Fatalf("iteration %d: non-positive gain accepted", rec.Iter)
		}
		prev = rec.Area
	}
	if res.NumIterations == 0 {
		t.Fatal("no progress on c880")
	}
}

func TestVerifyTopKExactChosenDelta(t *testing.T) {
	// With top-K verification the chosen candidate's Delta is computed by
	// exact cone resimulation on the flow's own pattern set, so the
	// measured error after applying must equal the running error plus the
	// recorded EstDelta, every iteration.
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.04,
			NumPatterns: 2000,
			Seed:        31,
		},
		Estimator:  EstimatorBatch,
		VerifyTopK: 16,
		KeepTrace:  true,
	})
	if res.NumIterations == 0 {
		t.Fatal("no progress")
	}
	prevErr := 0.0
	for _, rec := range res.Iterations {
		if math.Abs(rec.ActualErr-(prevErr+rec.EstDelta)) > 1e-9 {
			t.Fatalf("iteration %d: measured %v != prev %v + exact delta %v",
				rec.Iter, rec.ActualErr, prevErr, rec.EstDelta)
		}
		prevErr = rec.ActualErr
	}
}

func TestVerifyTopKNeverWorseBudget(t *testing.T) {
	for _, name := range []string{"mul4", "cmp8"} {
		plain := runOn(t, name, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.02,
				NumPatterns: 2000,
				Seed:        33,
			},
			Estimator: EstimatorBatch,
		})
		verified := runOn(t, name, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.02,
				NumPatterns: 2000,
				Seed:        33,
			},
			Estimator:  EstimatorBatch,
			VerifyTopK: 8,
		})
		if verified.FinalError > 0.02+1e-9 || plain.FinalError > 0.02+1e-9 {
			t.Fatalf("%s: budget violated", name)
		}
		// Verification guards against reconvergence surprises; it should
		// not be dramatically worse than the plain batch flow.
		if verified.AreaRatio() > plain.AreaRatio()+0.05 {
			t.Fatalf("%s: verified ratio %.3f much worse than plain %.3f",
				name, verified.AreaRatio(), plain.AreaRatio())
		}
	}
}

func TestVerifyTopKAEM(t *testing.T) {
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricAEM,
			Threshold:   2.0,
			NumPatterns: 2000,
			Seed:        35,
		},
		Estimator:  EstimatorBatch,
		VerifyTopK: 8,
		KeepTrace:  true,
	})
	if res.FinalError > 2.0+1e-9 {
		t.Fatalf("AEM %v over budget", res.FinalError)
	}
	prevErr := 0.0
	for _, rec := range res.Iterations {
		if math.Abs(rec.ActualErr-(prevErr+rec.EstDelta)) > 1e-9 {
			t.Fatalf("iteration %d: AEM mismatch", rec.Iter)
		}
		prevErr = rec.ActualErr
	}
}

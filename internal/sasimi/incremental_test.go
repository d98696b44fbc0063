package sasimi

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
)

// differentialCase is one cell of the incremental-vs-full grid.
type differentialCase struct {
	bench     string
	metric    core.Metric
	threshold float64
}

// differentialGrid pins the tentpole contract: the incremental engine
// (cone-scoped resimulation + dirty-region CPM refresh + gather cache) is
// bit-identical to the per-iteration full rebuild on every benchmark, both
// metrics and every worker count.
var differentialGrid = []differentialCase{
	{"rca8", core.MetricER, 0.08},
	{"rca8", core.MetricAEM, 4.0},
	{"dec4", core.MetricER, 0.05},
	{"dec4", core.MetricAEM, 40.0},
	{"par16", core.MetricER, 0.03},
	{"par16", core.MetricAEM, 0.03},
	{"cmp8", core.MetricER, 0.04},
	{"cmp8", core.MetricAEM, 0.3},
}

func diffWorkers() []int {
	ws := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

func runIncCase(t *testing.T, tc differentialCase, workers int, mode IncrementalMode) *Result {
	t.Helper()
	golden, err := bench.ByName(tc.bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(golden, Config{
		Budget: flow.Budget{
			Metric:      tc.metric,
			Threshold:   tc.threshold,
			NumPatterns: 1000,
			Seed:        11,
		},
		Estimator:       EstimatorBatch,
		Workers:         workers,
		Incremental:     mode,
		KeepTrace:       true,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func compareResults(t *testing.T, label string, inc, full *Result) {
	t.Helper()
	if inc.NumIterations != full.NumIterations {
		t.Fatalf("%s: iterations %d (incremental) vs %d (full)", label, inc.NumIterations, full.NumIterations)
	}
	if inc.FinalError != full.FinalError {
		t.Fatalf("%s: final error %v vs %v", label, inc.FinalError, full.FinalError)
	}
	if inc.FinalArea != full.FinalArea {
		t.Fatalf("%s: final area %v vs %v", label, inc.FinalArea, full.FinalArea)
	}
	if len(inc.Iterations) != len(full.Iterations) {
		t.Fatalf("%s: trace length %d vs %d", label, len(inc.Iterations), len(full.Iterations))
	}
	for i := range inc.Iterations {
		a, b := &inc.Iterations[i], &full.Iterations[i]
		if a.Target != b.Target || a.Sub != b.Sub || a.Inverted != b.Inverted {
			t.Fatalf("%s iter %d: accept %s<-%s(inv=%v) vs %s<-%s(inv=%v)",
				label, a.Iter, a.Target, a.Sub, a.Inverted, b.Target, b.Sub, b.Inverted)
		}
		if a.EstDelta != b.EstDelta || a.ActualErr != b.ActualErr {
			t.Fatalf("%s iter %d: delta/actual %v/%v vs %v/%v",
				label, a.Iter, a.EstDelta, a.ActualErr, b.EstDelta, b.ActualErr)
		}
		if a.Candidates != b.Candidates || a.Feasible != b.Feasible {
			t.Fatalf("%s iter %d: candidates %d/%d vs %d/%d",
				label, a.Iter, a.Candidates, a.Feasible, b.Candidates, b.Feasible)
		}
	}
	if inc.Approx.Dump() != full.Approx.Dump() {
		t.Fatalf("%s: structurally different final circuits", label)
	}
}

// TestIncrementalMatchesFullRebuild is the differential suite: every
// benchmark × metric × worker-count cell must produce the identical accept
// sequence, final error and final circuit with the engine on and off.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	for _, tc := range differentialGrid {
		full := runIncCase(t, tc, 1, IncrementalOff)
		for _, w := range diffWorkers() {
			inc := runIncCase(t, tc, w, IncrementalOn)
			label := tc.bench + "/" + tc.metric.String() + "/w" + itoa(w)
			compareResults(t, label, inc, full)
			// The full-rebuild path must itself be worker-invariant.
			fullW := runIncCase(t, tc, w, IncrementalOff)
			compareResults(t, label+"/full", fullW, full)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestVerifyIncrementalCrossCheck runs a flow with the internal
// verifyIncremental hook enabled: every iteration the incremental candidate
// list and CPM are compared field-for-field against rebuilt-from-scratch
// versions, failing the run on any divergence. The c880 row runs at
// M = 10000, where the two float forms of a DiffProb differ for many
// counts, with two workers, so the cache update's LPT bins mix dirty and
// clean targets.
func TestVerifyIncrementalCrossCheck(t *testing.T) {
	c880, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden    *circuit.Network
		metric    core.Metric
		threshold float64
		m         int
		workers   int
		minIters  int // iterations the run must accept, so cache updates ran
	}{
		{bench.RCA(8), core.MetricER, 0.1, 800, 0, 1},
		{bench.RCA(8), core.MetricAEM, 4.0, 800, 0, 1},
		{c880, core.MetricER, 0.01, 10000, 2, 10},
	} {
		res, err := Run(tc.golden, Config{
			Budget: flow.Budget{
				Metric:      tc.metric,
				Threshold:   tc.threshold,
				NumPatterns: tc.m,
				Seed:        3,
			},
			Estimator:         EstimatorBatch,
			Workers:           tc.workers,
			Incremental:       IncrementalOn,
			CheckInvariants:   true,
			verifyIncremental: true,
		})
		if err != nil {
			t.Fatalf("%s metric %v M=%d: cross-check failed: %v", tc.golden.Name, tc.metric, tc.m, err)
		}
		if res.NumIterations < tc.minIters {
			t.Fatalf("%s metric %v M=%d: %d iterations, want at least %d",
				tc.golden.Name, tc.metric, tc.m, res.NumIterations, tc.minIters)
		}
	}
}

// TestIncrementalDefaultOn pins the API contract: the zero value of
// IncrementalMode enables the engine, IncrementalOff disables it, and both
// still satisfy the error budget.
func TestIncrementalDefaultOn(t *testing.T) {
	if !IncrementalAuto.enabled() || !IncrementalOn.enabled() || IncrementalOff.enabled() {
		t.Fatal("IncrementalMode.enabled() wiring is wrong")
	}
	auto := runIncCase(t, differentialGrid[0], 1, IncrementalAuto)
	on := runIncCase(t, differentialGrid[0], 1, IncrementalOn)
	compareResults(t, "auto-vs-on", auto, on)
}

// TestRunContextCancelled pins the cancellation contract: an
// already-cancelled context aborts before any iteration and surfaces
// context.Canceled; the partial result is still returned.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	golden := bench.RCA(8)
	res, err := RunContext(ctx, golden, Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.03,
			NumPatterns: 500,
			Seed:        1,
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run must still return the partial result")
	}
	if res.NumIterations != 0 {
		t.Fatalf("pre-cancelled run accepted %d iterations", res.NumIterations)
	}
}

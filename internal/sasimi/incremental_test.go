package sasimi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
)

// differentialCase is one cell of the incremental cross-check grid.
type differentialCase struct {
	bench     string
	metric    core.Metric
	threshold float64
}

// differentialGrid pins the incremental engine's contract: its state
// (cone-scoped resimulation + dirty-region CPM refresh + gather cache)
// equals a rebuild from scratch at every iteration, on every benchmark,
// both metrics and every worker count.
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

// runIncCase runs one grid cell with the verifyIncremental cross-check on,
// so every iteration is also held to a rebuild from scratch.
func runIncCase(t *testing.T, tc differentialCase, workers int) *Result {
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
		Estimator:         EstimatorBatch,
		Workers:           workers,
		KeepTrace:         true,
		CheckInvariants:   true,
		verifyIncremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareResults holds got to want: the same accept sequence with the
// same estimates, the same final error and area, and structurally the
// same final circuit.
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumIterations != want.NumIterations {
		t.Fatalf("%s: iterations %d vs %d", label, got.NumIterations, want.NumIterations)
	}
	if got.FinalError != want.FinalError {
		t.Fatalf("%s: final error %v vs %v", label, got.FinalError, want.FinalError)
	}
	if got.FinalArea != want.FinalArea {
		t.Fatalf("%s: final area %v vs %v", label, got.FinalArea, want.FinalArea)
	}
	if len(got.Iterations) != len(want.Iterations) {
		t.Fatalf("%s: trace length %d vs %d", label, len(got.Iterations), len(want.Iterations))
	}
	for i := range got.Iterations {
		a, b := &got.Iterations[i], &want.Iterations[i]
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
	if got.Approx.Dump() != want.Approx.Dump() {
		t.Fatalf("%s: structurally different final circuits", label)
	}
}

// TestIncrementalMatchesFullRebuild is the cross-check grid: every
// benchmark × metric × worker-count cell runs with verifyIncremental on,
// so after every accepted edit the engine's value table and error state,
// and at every iteration its candidate list and CPM, must equal a rebuild
// from scratch; and every cell must produce its one-worker result — the
// same accept sequence, final error and final circuit.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	for _, tc := range differentialGrid {
		var want *Result
		for _, w := range diffWorkers() {
			got := runIncCase(t, tc, w)
			if want == nil {
				want = got
				continue
			}
			compareResults(t, tc.bench+"/"+tc.metric.String()+"/w"+itoa(w), got, want)
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
// list and CPM, and after every accept the engine's value table and error
// state, are compared against rebuilt-from-scratch versions, and every
// iteration's scores, carried pattern sums included, against the
// sequential reference rescoring every candidate; the run fails on any
// divergence. The c880 rows run at M = 10000, where the two float forms of
// a DiffProb differ for many counts: with two workers, so the cache
// update's contiguous bins mix dirty and clean targets, and for 12
// iterations with one, whose shard and bin are the whole problem. The AEM rows need
// accepts that change the error, hence some output word, so that carried
// sums take the masked correction, built at the union of a target's
// candidates' changed patterns. The ksa32 row has 33 outputs, so terms
// above 2^32; its first 23 accepts at M = 1000 change no output (each
// substitute equals its target on every pattern, so they score first),
// so it runs 28 iterations to correct sums after four accepts that do.
func TestVerifyIncrementalCrossCheck(t *testing.T) {
	c880, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	mul8, err := bench.ByName("mul8")
	if err != nil {
		t.Fatal(err)
	}
	ksa32, err := bench.ByName("ksa32")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden     *circuit.Network
		metric     core.Metric
		threshold  float64
		m          int
		workers    int
		maxIters   int
		minIters   int // iterations the run must accept, so cache updates ran
		minChanges int // accepts that must change the measured error
	}{
		{bench.RCA(8), core.MetricER, 0.1, 800, 0, 0, 1, 0},
		{bench.RCA(8), core.MetricAEM, 4.0, 800, 0, 0, 1, 0},
		{c880, core.MetricER, 0.01, 10000, 2, 0, 10, 0},
		{c880, core.MetricER, 0.01, 10000, 1, 12, 10, 0},
		{mul8, core.MetricAEM, 64, 1024, 2, 12, 5, 5},
		{ksa32, core.MetricAEM, 8589934, 1000, 2, 28, 28, 4},
	} {
		res, err := Run(tc.golden, Config{
			Budget: flow.Budget{
				Metric:        tc.metric,
				Threshold:     tc.threshold,
				NumPatterns:   tc.m,
				Seed:          3,
				MaxIterations: tc.maxIters,
			},
			Estimator:         EstimatorBatch,
			Workers:           tc.workers,
			KeepTrace:         true,
			CheckInvariants:   true,
			verifyIncremental: true,
		})
		label := fmt.Sprintf("%s metric %v M=%d workers=%d", tc.golden.Name, tc.metric, tc.m, tc.workers)
		if err != nil {
			t.Fatalf("%s: cross-check failed: %v", label, err)
		}
		if res.NumIterations < tc.minIters {
			t.Fatalf("%s: %d iterations, want at least %d", label, res.NumIterations, tc.minIters)
		}
		changes, prev := 0, 0.0
		for _, it := range res.Iterations {
			if it.ActualErr != prev {
				changes++
			}
			prev = it.ActualErr
		}
		if changes < tc.minChanges {
			t.Fatalf("%s: %d accepts changed the error, want at least %d", label, changes, tc.minChanges)
		}
	}
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

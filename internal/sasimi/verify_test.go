package sasimi

import (
	"context"
	"runtime"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// verifyWorkers is the sweep of the parallel-verify differential suite:
// 1 (the serial ExactDelta reference), the powers-of-two the pool shards
// cleanly over, a prime that forces ragged pattern shards, and the host's
// CPU count.
func verifyWorkers() []int {
	ws := []int{1, 2, 4, 7}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 && n != 7 {
		ws = append(ws, n)
	}
	return ws
}

func runVerifyCase(t *testing.T, tc differentialCase, workers int, mode IncrementalMode) *Result {
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
		VerifyTopK:      4,
		KeepTrace:       true,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelVerifyTopKBitIdentical is the bit-identity contract of the
// parallel verifier: with VerifyTopK engaged, every (circuit, metric,
// worker count, incremental mode) cell must reproduce the serial
// single-worker baseline exactly — same accept sequence with the same
// exact deltas, same iteration trace, same final error/area, structurally
// identical final netlist.
func TestParallelVerifyTopKBitIdentical(t *testing.T) {
	accepted := false
	for _, tc := range differentialGrid {
		baseline := runVerifyCase(t, tc, 1, IncrementalOff)
		// par16 is a parity tree: no pair of internal signals is similar,
		// so it legitimately accepts nothing — the differential then pins
		// that no worker count invents an accept. The other circuits must
		// make progress or the suite is vacuous.
		if baseline.NumIterations > 0 {
			accepted = true
		} else if tc.bench != "par16" {
			t.Fatalf("%s/%s: baseline accepted nothing; differential check is vacuous",
				tc.bench, tc.metric)
		}
		for _, mode := range []IncrementalMode{IncrementalOff, IncrementalOn} {
			modeName := "full"
			if mode == IncrementalOn {
				modeName = "inc"
			}
			for _, w := range verifyWorkers() {
				got := runVerifyCase(t, tc, w, mode)
				label := tc.bench + "/" + tc.metric.String() + "/" + modeName + "/w" + itoa(w)
				compareResults(t, label, got, baseline)
			}
		}
	}
	if !accepted {
		t.Fatal("no grid cell accepted anything; the whole suite is vacuous")
	}
}

// verifyFixture builds the inputs verifyTopKParallel needs outside a flow:
// a simulated network, an error state against itself as golden, and a
// gathered candidate list.
func verifyFixture(t testing.TB, name string, metric core.Metric, k int) (*circuit.Network,
	*sim.Values, *emetric.State, *Config, []Candidate, []int) {
	t.Helper()
	net, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Budget: flow.Budget{
		Metric:      metric,
		Threshold:   0.5,
		NumPatterns: 1000,
		Seed:        3,
	}}
	cfg.fillDefaults()
	patterns := sim.RandomPatterns(net.NumInputs(), cfg.NumPatterns, cfg.Seed)
	vals := sim.Simulate(net, patterns)
	st := emetric.NewState(sim.OutputMatrix(net, vals), sim.OutputMatrix(net, vals))
	arrival := cfg.Library.NodeArrival(net)
	cands := bruteGather(net, vals, cfg, arrival, cfg.Library.GateDelay(circuit.KindNot))
	if len(cands) < k {
		t.Fatalf("fixture %s gathered only %d candidates, need %d", name, len(cands), k)
	}
	top := make([]int, k)
	for i := range top {
		top[i] = i
	}
	return net, vals, st, cfg, cands, top
}

// TestParallelVerifyMatchesExactDelta cross-checks the overlay kernel
// against core.ExactDelta candidate by candidate, for both metrics, at a
// worker count that produces multiple pattern shards.
func TestParallelVerifyMatchesExactDelta(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricER, core.MetricAEM} {
		net, vals, st, cfg, cands, top := verifyFixture(t, "rca8", metric, 8)
		want := make([]float64, len(top))
		scratch := bitvec.New(vals.M)
		for i, idx := range top {
			c := &cands[idx]
			want[i] = core.ExactDelta(net, vals, c.Target, c.substituteValue(vals, scratch), st, metric)
		}
		pool := par.NewPool(4)
		var vs verifyScratch
		if _, err := verifyTopKParallel(context.Background(), net, vals, st, cfg,
			cands, top, 0, &vs, pool, nil, 1); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		for i, idx := range top {
			if got := cands[idx].Delta; got != want[i] {
				t.Errorf("%s cand %d: parallel delta %v != ExactDelta %v", metric, idx, got, want[i])
			}
			if !cands[idx].Exact {
				t.Errorf("%s cand %d: Exact not set", metric, idx)
			}
		}
	}
}

// TestParallelVerifySteadyStateAllocs pins the pooled-scratch contract of
// the verifier: after a warm-up call, re-verifying the same top-K set on a
// single-worker pool (the inline dispatch path, where the pool machinery
// itself adds nothing) costs at most the two dispatch closures — the
// overlay rows, cone scratch, shard plan and partial arrays are all
// reused.
func TestParallelVerifySteadyStateAllocs(t *testing.T) {
	net, vals, st, cfg, cands, top := verifyFixture(t, "rca8", core.MetricER, 8)
	pool := par.NewPool(1)
	defer pool.Close()
	var vs verifyScratch
	ctx := context.Background()
	if _, err := verifyTopKParallel(ctx, net, vals, st, cfg, cands, top, 0, &vs, pool, nil, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := verifyTopKParallel(ctx, net, vals, st, cfg, cands, top, 0, &vs, pool, nil, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state verifyTopKParallel allocates %.1f times per run, want <= 2 (dispatch closures)", allocs)
	}
}

// TestVerifyEvalShardZeroAlloc pins the hot kernel itself at exactly zero:
// prepare and evalShard over warmed scratch must not touch the heap, per
// their //als:allocfree annotations.
func TestVerifyEvalShardZeroAlloc(t *testing.T) {
	net, vals, _, cfg, cands, top := verifyFixture(t, "rca8", core.MetricAEM, 4)
	words := bitvec.Words(vals.M)
	order := net.TopoOrder()
	outputs := net.Outputs()
	slots := net.NumSlots()
	shards := par.Shards(vals.M, 2)
	var vs verifyScratch
	vs.cands = make([]verifyCandScratch, 1)
	vs.workers = make([]verifyWorkerScratch, 1)
	vs.erWrong = make([]int64, len(shards))
	vs.aemSum = make([]float64, len(shards))
	vs.uRows = make([][]uint64, len(outputs))
	vs.valRows = make([][]uint64, len(outputs))
	for oi, out := range outputs {
		vs.uRows[oi] = vals.Node(out.Node).WordsSlice()
		vs.valRows[oi] = vals.Node(out.Node).WordsSlice()
	}
	c := &cands[top[0]]
	cs := &vs.cands[0]
	ws := &vs.workers[0]
	lastWord := words - 1
	tail := bitvec.TailMask(vals.M)
	// Warm all amortised scratch.
	cs.prepare(net, order, outputs, c.Target, slots, words)
	vs.evalShard(net, vals, c, cs, shards[0], ws, cfg.Metric, lastWord, tail, 0)
	allocs := testing.AllocsPerRun(20, func() {
		cs.prepare(net, order, outputs, c.Target, slots, words)
		for si := range shards {
			vs.evalShard(net, vals, c, cs, shards[si], ws, cfg.Metric, lastWord, tail, si)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed prepare+evalShard allocates %.1f times per run, want 0", allocs)
	}
}

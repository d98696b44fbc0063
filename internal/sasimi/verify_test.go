package sasimi

import (
	"context"
	"math/rand"
	"reflect"
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
// 1 (the one-shard overlay, the baseline), the powers-of-two the pool
// shards cleanly over, a prime that forces ragged pattern shards, and the
// host's CPU count.
func verifyWorkers() []int {
	ws := []int{1, 2, 4, 7}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 && n != 7 {
		ws = append(ws, n)
	}
	return ws
}

func runVerifyCase(t *testing.T, tc differentialCase, workers int) *Result {
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
// worker count) cell must reproduce the one-worker baseline, where the
// overlay runs as one shard, exactly — same accept sequence with the same
// exact deltas, same iteration trace, same final error/area, structurally
// identical final netlist. TestParallelVerifyMatchesExactDelta holds the
// overlay itself to core.ExactDelta.
func TestParallelVerifyTopKBitIdentical(t *testing.T) {
	accepted := false
	for _, tc := range differentialGrid {
		baseline := runVerifyCase(t, tc, 1)
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
		for _, w := range verifyWorkers()[1:] {
			got := runVerifyCase(t, tc, w)
			compareResults(t, tc.bench+"/"+tc.metric.String()+"/w"+itoa(w), got, baseline)
		}
	}
	if !accepted {
		t.Fatal("no grid cell accepted anything; the whole suite is vacuous")
	}
}

// verifyFixture builds the inputs verifyTopKParallel needs outside a flow:
// a simulated network, an error state against itself as golden, the
// first k candidates of a gathered store, and unscored entries for them.
func verifyFixture(t testing.TB, name string, metric core.Metric, k int) (*circuit.Network,
	*sim.Values, *emetric.State, *Config, []choice, []scored) {
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
	store := gatherStore(t, net, vals, cfg, arrival, cfg.Library.GateDelay(circuit.KindNot))
	if store.len() < k {
		t.Fatalf("fixture %s gathered only %d candidates, need %d", name, store.len(), k)
	}
	cands := make([]choice, k)
	top := make([]scored, k)
	for i := range top {
		cands[i] = store.at(i)
		top[i].idx = int32(i)
	}
	return net, vals, st, cfg, cands, top
}

// TestParallelVerifyMatchesExactDelta cross-checks the overlay kernel
// against core.ExactDelta candidate by candidate, for both metrics, on one
// worker (one pattern shard per candidate) and on a worker count that
// produces multiple pattern shards.
func TestParallelVerifyMatchesExactDelta(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricER, core.MetricAEM} {
		for _, workers := range []int{1, 4} {
			net, vals, st, cfg, cands, top := verifyFixture(t, "rca8", metric, 8)
			want := make([]float64, len(top))
			scratch := bitvec.New(vals.M)
			for i, e := range top {
				c := &cands[e.idx]
				want[i] = core.ExactDelta(net, vals, c.target, c.substituteValue(vals, scratch), st, metric)
			}
			pool := par.NewPool(workers)
			var vs verifyScratch
			if _, err := verifyTopKParallel(context.Background(), net, vals, st, cfg,
				cands, top, 0, &vs, pool, nil); err != nil {
				t.Fatal(err)
			}
			pool.Close()
			for i, e := range top {
				if e.delta != want[i] {
					t.Errorf("%s w%d cand %d: overlay delta %v != ExactDelta %v", metric, workers, e.idx, e.delta, want[i])
				}
				if !e.exact {
					t.Errorf("%s w%d cand %d: exact not set", metric, workers, e.idx)
				}
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
	if _, err := verifyTopKParallel(ctx, net, vals, st, cfg, cands, top, 0, &vs, pool, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := verifyTopKParallel(ctx, net, vals, st, cfg, cands, top, 0, &vs, pool, nil); err != nil {
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
	c := &cands[top[0].idx]
	cs := &vs.cands[0]
	ws := &vs.workers[0]
	lastWord := words - 1
	tail := bitvec.TailMask(vals.M)
	// Warm all amortised scratch.
	cs.prepare(net, order, outputs, c.target, slots, words)
	vs.evalShard(net, vals, c, cs, shards[0], ws, cfg.Metric, lastWord, tail, 0)
	allocs := testing.AllocsPerRun(20, func() {
		cs.prepare(net, order, outputs, c.target, slots, words)
		for si := range shards {
			vs.evalShard(net, vals, c, cs, shards[si], ws, cfg.Metric, lastWord, tail, si)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed prepare+evalShard allocates %.1f times per run, want 0", allocs)
	}
}

// TestTieBreakIgnoresListOrder pins that the list's order decides no
// pick: with several candidates tied on the best score, permuting the
// candidate list (and its pattern sums or scored entries with it) changes
// neither selectFeasible's pick nor scoreCandidates', which are the
// candCompare-first of the tied candidates, nor which entries
// verifyTopK verifies, in which order, and which it picks. The ties are
// made two ways: all-zero pattern sums, which tie every candidate of
// equal gain, and scored entries with one score, which tie every entry.
func TestTieBreakIgnoresListOrder(t *testing.T) {
	net, err := bench.ByName("cmp8")
	if err != nil {
		t.Fatal(err)
	}
	patterns := sim.RandomPatterns(net.NumInputs(), 1000, 4)
	cfg := Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05}, VerifyTopK: 4}
	cfg.fillDefaults()
	ctx, est := batchFixture(net, sim.OutputMatrix(net, sim.Simulate(net, patterns)), patterns, core.MetricER)
	cands := gatherStore(t, net, ctx.vals, &cfg, cfg.Library.NodeArrival(net), cfg.Library.GateDelay(circuit.KindNot))
	pool := par.NewPool(2)
	defer pool.Close()

	type picks struct {
		sel, seq choice   // selectFeasible's and scoreCandidates' picks
		top      []choice // the entries verifyTopK verified, in order
		deltas   []float64
		verified choice // verifyTopK's pick
	}
	scratch, change := bitvec.New(ctx.vals.M), bitvec.New(ctx.vals.M)
	pick := func(list *candStore) picks {
		var p picks
		var zero sumPages[int32]
		zero.forStore(list)
		best, feasible := selectFeasible(ctx, list, &zero, nil, 0, cfg.Threshold, nil, 1)
		p.sel = list.at(int(feasible[best].idx))
		ties := 0
		for _, e := range feasible {
			if e.score == feasible[best].score {
				ties++
				if c := list.at(int(e.idx)); candCompare(&c, &p.sel) < 0 {
					t.Fatalf("selectFeasible picked %+v over the candCompare-first %+v of equal score", p.sel, c)
				}
			}
		}
		if ties < 2 {
			t.Fatalf("%d candidates tie on the best score; the tie-break is untested", ties)
		}
		best, feasible = scoreCandidates(est, list, nil, ctx.vals, 0, cfg.Threshold, scratch, change, nil, 1)
		p.seq = list.at(int(feasible[best].idx))

		tied := make([]scored, list.len())
		for i := range tied {
			tied[i] = scored{idx: int32(i), delta: 0.001, score: 1}
		}
		var vs verifyScratch
		loose := cfg
		loose.Threshold = 1 // every verified entry stays feasible
		best, err := verifyTopK(context.Background(), net, ctx.vals, ctx.st, &loose, list, tied, 0, &vs, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tied[:cfg.VerifyTopK] {
			p.top = append(p.top, list.at(int(e.idx)))
			p.deltas = append(p.deltas, e.delta)
		}
		if best < 0 {
			t.Fatal("verifyTopK found no verified entry feasible under a budget of 1")
		}
		p.verified = list.at(int(tied[best].idx))
		return p
	}
	want := pick(cands)
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		if got := pick(shuffledStore(cands, r)); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: a permuted list picks\n %+v\nthe list order picks\n %+v", trial, got, want)
		}
	}
}

// shuffledStore returns a store of st's candidates in a random order:
// each a segment of its own, on a page of its own.
func shuffledStore(st *candStore, r *rand.Rand) *candStore {
	type one struct {
		sg *segment
		j  int
	}
	var all []one
	for k := range st.segs {
		for j := range st.segs[k].recs {
			all = append(all, one{&st.segs[k], j})
		}
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := &candStore{invArea: st.invArea, n: len(all)}
	for i, o := range all {
		out.pages = append(out.pages, []rec{o.sg.recs[o.j]})
		out.segs = append(out.segs, segment{target: o.sg.target, page: int32(i), pos: int32(i),
			gain: o.sg.gain, exc: o.sg.exc, recs: out.pages[i]})
	}
	return out
}

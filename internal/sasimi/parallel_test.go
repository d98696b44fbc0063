package sasimi

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// acceptedStep is the determinism-relevant projection of one accepted
// substitution: everything except wall times.
type acceptedStep struct {
	Target, Sub string
	Inverted    bool
	EstDelta    float64
	ActualErr   float64
	Area        float64
	Candidates  int
	Feasible    int
	Exact       bool
}

// flowFingerprint projects a Result onto its deterministic content: the
// accepted-substitution sequence, final error/area, the per-phase span
// counts, and the total candidates scored (wall times and memory are
// excluded by construction).
type flowFingerprint struct {
	Steps       []acceptedStep
	FinalError  float64
	FinalArea   float64
	Iterations  int
	Scored      int64
	PhaseCounts [obs.NumPhases]int64
}

func fingerprint(res *Result, reg *obs.Registry) flowFingerprint {
	fp := flowFingerprint{
		FinalError: res.FinalError,
		FinalArea:  res.FinalArea,
		Iterations: res.NumIterations,
		Scored:     reg.Snapshot().Counters["sasimi_candidates_scored_total"],
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		fp.PhaseCounts[p] = res.Phases.Stats[p].Count
	}
	for _, it := range res.Iterations {
		fp.Steps = append(fp.Steps, acceptedStep{
			Target: it.Target, Sub: it.Sub, Inverted: it.Inverted,
			EstDelta: it.EstDelta, ActualErr: it.ActualErr, Area: it.Area,
			Candidates: it.Candidates, Feasible: it.Feasible, Exact: it.Exact,
		})
	}
	return fp
}

func workerSweep() []int {
	sweep := []int{1, 2, 4, 7}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 && n != 7 {
		sweep = append(sweep, n)
	}
	return sweep
}

// TestParallelFlowBitIdentical is the differential suite pinning the
// tentpole guarantee: a full synthesis run must produce the identical
// accepted-substitution sequence, error values and phase counts at every
// worker count, for both metrics and with exact verification in the loop.
func TestParallelFlowBitIdentical(t *testing.T) {
	cases := []struct {
		net string
		// par16's parity signals are maximally dissimilar, so nothing is
		// ever accepted: it pins the no-accept path (candidates are still
		// scored — the Scored field keeps the case non-vacuous).
		wantAccepts bool
		cfg         Config
	}{
		{"rca8", true, Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.10, NumPatterns: 2000, Seed: 11}}},
		{"dec4", true, Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.10, NumPatterns: 1500, Seed: 5}}},
		{"par16", false, Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.30, NumPatterns: 1000, Seed: 9}, SimilarityCap: 0.5}},
		{"cmp8", true, Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05, NumPatterns: 2000, Seed: 3}, VerifyTopK: 4}},
		{"rca8", true, Config{Budget: flow.Budget{Metric: core.MetricAEM, Threshold: 2.0, NumPatterns: 1000, Seed: 13}}},
	}
	for _, tc := range cases {
		tc.cfg.KeepTrace = true
		var want flowFingerprint
		for i, workers := range workerSweep() {
			cfg := tc.cfg
			cfg.Workers = workers
			cfg.Metrics = obs.NewRegistry()
			got := fingerprint(runOn(t, tc.net, cfg), cfg.Metrics)
			if i == 0 {
				want = got
				if tc.wantAccepts && got.Iterations == 0 {
					t.Errorf("%s: sequential run accepted nothing; differential check is vacuous", tc.net)
				}
				if got.Scored == 0 {
					t.Errorf("%s: sequential run scored no candidates", tc.net)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s metric=%v: workers=%d diverges from workers=1:\n got  %+v\n want %+v",
					tc.net, tc.cfg.Metric, workers, got, want)
			}
		}
	}
}

// TestParallelEstimateAllBitIdentical pins the isolated batch-estimation
// entry point the same way: every candidate's Delta/Score must be
// bit-identical at any worker count.
func TestParallelEstimateAllBitIdentical(t *testing.T) {
	golden := bench.RCA(8)
	var want []Candidate
	for i, workers := range workerSweep() {
		approx := golden.Clone()
		cands, err := EstimateAll(golden, approx, Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   0.1,
				NumPatterns: 2000,
				Seed:        21,
			},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = cands
			if len(want) == 0 {
				t.Fatal("no candidates on rca8")
			}
			continue
		}
		if !reflect.DeepEqual(cands, want) {
			t.Fatalf("workers=%d: EstimateAll diverges (%d vs %d candidates)",
				workers, len(cands), len(want))
		}
	}
}

// TestParallelScoringMatchesSequential drives the sharded scoring path
// directly against scoreCandidates on the same candidate list, for both
// metrics and at 1, 2, 4 and 7 workers, asserting selection and
// scored-entry equality field by field: once under the budget, and once
// with no budget, where every candidate has an entry.
func TestParallelScoringMatchesSequential(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricER, core.MetricAEM} {
		net := bench.RCA(8)
		patterns := sim.RandomPatterns(net.NumInputs(), 1500, 8)
		golden := sim.Simulate(net, patterns)
		lib := cell.Default()
		cfg := Config{Budget: flow.Budget{Metric: metric, Threshold: 0.5}, Workers: 1}
		cfg.fillDefaults()
		cfg.Workers = 1

		// One applied substitution leaves the approximation wrong on some
		// patterns, so the ER estimates' dec counts (patterns a candidate
		// would correct) are not all zero.
		approx := net.Clone()
		first := gatherStore(t, approx, golden, &cfg, lib.NodeArrival(approx), lib.GateDelay(circuit.KindNot))
		mid := first.at(first.len() / 2)
		applyCandidate(approx, &mid)
		ctx, est := batchFixture(approx, sim.OutputMatrix(net, golden), patterns, metric)
		vals, st := ctx.vals, ctx.st
		if !st.WrongAny.Any() {
			t.Fatal("the approximation is exact on every pattern; the fixture exercises no correction")
		}
		arrival := lib.NodeArrival(approx)
		seqCands := gatherStore(t, approx, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot))
		if seqCands.len() == 0 {
			t.Fatal("no candidates")
		}
		// The one-worker gather matches the brute-force reference, and the
		// loop below holds the gather at 2, 4 and 7 workers equal to it.
		adm := newAdmission(vals.M, cfg.SimilarityCap)
		sameCandidates(t, "metric="+metric.String(), adm, seqCands,
			bruteGather(approx, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot)))

		scratch := bitvec.New(vals.M)
		change := bitvec.New(vals.M)
		seqQueries, shardQueries := obs.Default().Counter("cpm_delta_er_queries_total"),
			obs.Default().Counter("cpm_partial_er_queries_total")
		if metric == core.MetricAEM {
			seqQueries, shardQueries = obs.Default().Counter("cpm_delta_aem_queries_total"),
				obs.Default().Counter("cpm_partial_aem_queries_total")
		}
		before := seqQueries.Value()
		wantBest, wantFeasible := scoreCandidates(est, seqCands, nil, vals, 0, cfg.Threshold,
			scratch, change, nil, 1)
		if got := seqQueries.Value() - before; got != int64(seqCands.len()) {
			t.Fatalf("metric=%v: a sequential pass over %d candidates counted %d queries", metric, seqCands.len(), got)
		}
		_, wantAll := scoreCandidates(est, seqCands, nil, vals, 0, math.Inf(1), scratch, change, nil, 1)
		if len(wantAll) != seqCands.len() {
			t.Fatalf("metric=%v: with no budget %d of %d candidates were scored", metric, len(wantAll), seqCands.len())
		}

		for _, workers := range []int{1, 2, 4, 7} {
			pool := par.NewPool(workers)
			env := newGatherEnv(approx, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot), adm)
			gotCands, err := gather(context.Background(), env, pool, nil)
			if err != nil || !reflect.DeepEqual(choices(gotCands), choices(seqCands)) {
				pool.Close()
				t.Fatalf("metric=%v workers=%d: gathered candidates diverge (err %v)", metric, workers, err)
			}
			var ss scoreScratch
			before := shardQueries.Value()
			gotBest, gotFeasible := scoreCandidatesSharded(ctx, gotCands, nil, 0, cfg.Threshold, &ss, pool, nil, 1)
			// ER counts one partial query per candidate and shard, AEM one
			// per candidate summed in full: here, with nothing carried,
			// every candidate.
			want := int64(gotCands.len() * len(par.Shards(vals.M, workers)))
			if metric == core.MetricAEM {
				want = int64(gotCands.len())
			}
			if got := shardQueries.Value() - before; got != want {
				pool.Close()
				t.Fatalf("metric=%v workers=%d: a sharded pass counted %d queries, want %d", metric, workers, got, want)
			}
			_, gotAll := scoreCandidatesSharded(ctx, gotCands, nil, 0, math.Inf(1), &ss, pool, nil, 1)
			pool.Close()
			if gotBest != wantBest || !reflect.DeepEqual(gotFeasible, wantFeasible) {
				t.Fatalf("metric=%v workers=%d: selection diverges (best %d vs %d)",
					metric, workers, gotBest, wantBest)
			}
			if len(gotAll) != len(wantAll) {
				t.Fatalf("metric=%v workers=%d: with no budget %d entries, sequential %d", metric, workers, len(gotAll), len(wantAll))
			}
			for i := range wantAll {
				if gotAll[i] != wantAll[i] {
					t.Fatalf("metric=%v workers=%d: candidate %d's estimate diverges:\n got  %+v\n want %+v",
						metric, workers, i, gotAll[i], wantAll[i])
				}
			}
		}
	}
}

// batchFixture returns a prepared batch context for net against the
// golden output matrix on patterns, as a flow's first iteration sees
// them — value table, error state and the metric's CPM from a fresh
// core.Engine — and the sequential reference estimator on a full CPM
// (referenceEstimator), as crossCheckScores uses it.
func batchFixture(net *circuit.Network, golden *bitvec.Matrix, patterns *sim.Patterns,
	metric core.Metric) (*iterContext, estimator) {

	eng := core.NewEngine(net, golden, patterns, metric, nil)
	ctx := &iterContext{net: net, vals: eng.Vals, st: eng.St, metric: metric, engine: eng}
	newEstimator(EstimatorBatch).prepare(ctx)
	return ctx, referenceEstimator(ctx)
}

// shardedScoringAllocs returns the allocations of a repeated sharded
// scoring pass over the store on a pool of the given size, with the
// scratch, the store's sums and the entry buffer grown by a first pass,
// as the flow reuses them across iterations.
func shardedScoringAllocs(ctx *iterContext, store *candStore, threshold float64, workers int, o *runObs) float64 {
	pool := par.NewPool(workers)
	defer pool.Close()
	var ss scoreScratch
	buf := make([]scored, 0, store.len())
	scoreCandidatesSharded(ctx, store, buf, 0, threshold, &ss, pool, o, 1)
	return testing.AllocsPerRun(20, func() {
		scoreCandidatesSharded(ctx, store, buf, 0, threshold, &ss, pool, o, 1)
	})
}

// TestNilTracerShardedScoringAllocs pins the sharded scorer's reuse of its
// flow-owned scratch: at 1 and at 2 workers, a repeated pass allocates a
// count that does not grow with the candidate list — the per-shard
// partials, change words and target marks are reused, not reallocated.
func TestNilTracerShardedScoringAllocs(t *testing.T) {
	net := bench.RCA(8)
	patterns := sim.RandomPatterns(net.NumInputs(), 1024, 3)
	lib := cell.Default()
	for _, metric := range []core.Metric{core.MetricER, core.MetricAEM} {
		ctx, _ := batchFixture(net, sim.OutputMatrix(net, sim.Simulate(net, patterns)), patterns, metric)
		cfg := Config{Budget: flow.Budget{Metric: metric, Threshold: 1}}
		cfg.fillDefaults()
		cands := gatherStore(t, net, ctx.vals, &cfg, lib.NodeArrival(net), lib.GateDelay(circuit.KindNot))
		if cands.len() < 2 {
			t.Fatalf("%d candidates on RCA8, need two list sizes", cands.len())
		}
		for _, workers := range []int{1, 2} {
			half := shardedScoringAllocs(ctx, storePrefix(cands, cands.len()/2), cfg.Threshold, workers, nil)
			full := shardedScoringAllocs(ctx, storePrefix(cands, cands.len()), cfg.Threshold, workers, nil)
			if full > half {
				t.Fatalf("metric=%v workers=%d: a pass over %d candidates allocates %v/run, over %d %v/run",
					metric, workers, cands.len(), full, cands.len()/2, half)
			}
		}
	}
}

// TestRaceParallelFlow hammers the whole flow with a multi-worker pool
// under the race detector, including two flows running concurrently to
// shake out any shared mutable state between runs (package-level counters
// must be atomic). CI runs this with -race at GOMAXPROCS=2 as well.
func TestRaceParallelFlow(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			n := bench.RCA(8)
			res, err := Run(n, Config{
				Budget: flow.Budget{
					Metric:      core.MetricER,
					Threshold:   0.05,
					NumPatterns: 2000,
					Seed:        seed,
				},
				Workers:         4,
				CheckInvariants: true,
				Metrics:         obs.NewRegistry(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			if res.FinalError > 0.05+1e-9 {
				t.Errorf("seed %d: error %v over threshold", seed, res.FinalError)
			}
		}(int64(g + 1))
	}
	wg.Wait()
}

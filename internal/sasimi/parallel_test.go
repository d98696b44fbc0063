package sasimi

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
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
// metrics, asserting Delta/Score/selection equality field by field.
func TestParallelScoringMatchesSequential(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricER, core.MetricAEM} {
		net := bench.RCA(8)
		patterns := sim.RandomPatterns(net.NumInputs(), 1500, 8)
		golden := sim.Simulate(net, patterns)
		approx := net.Clone()
		vals := sim.Simulate(approx, patterns)
		st := emetric.NewState(sim.OutputMatrix(net, golden), sim.OutputMatrix(approx, vals))

		lib := cell.Default()
		cfg := Config{Budget: flow.Budget{Metric: metric, Threshold: 0.5}, Workers: 1}
		cfg.fillDefaults()
		cfg.Workers = 1
		arrival := lib.NodeArrival(approx)
		seqCands := bruteGather(approx, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot))
		if len(seqCands) == 0 {
			t.Fatal("no candidates")
		}

		est := newEstimator(EstimatorBatch)
		ctx := &iterContext{net: approx, vals: vals, st: st, metric: metric}
		est.prepare(ctx)
		scratch := bitvec.New(vals.M)
		change := bitvec.New(vals.M)
		wantCands := append([]Candidate(nil), seqCands...)
		seqQueries, shardQueries := obs.Default().Counter("cpm_delta_er_queries_total"),
			obs.Default().Counter("cpm_partial_er_queries_total")
		if metric == core.MetricAEM {
			seqQueries, shardQueries = obs.Default().Counter("cpm_delta_aem_queries_total"),
				obs.Default().Counter("cpm_partial_aem_queries_total")
		}
		before := seqQueries.Value()
		wantBest, wantFeasible := scoreCandidates(est, wantCands, vals, 0, cfg.Threshold,
			scratch, change, nil, 1)
		if got := seqQueries.Value() - before; got != int64(len(wantCands)) {
			t.Fatalf("metric=%v: a sequential pass over %d candidates counted %d queries", metric, len(wantCands), got)
		}

		for _, workers := range []int{2, 4, 7} {
			pool := par.NewPool(workers)
			env := newGatherEnv(approx, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot), newAdmission(vals.M, cfg.SimilarityCap))
			gotCands, err := gather(context.Background(), env, pool, nil)
			if err != nil || !reflect.DeepEqual(gotCands, seqCands) {
				pool.Close()
				t.Fatalf("metric=%v workers=%d: gathered candidates diverge (err %v)", metric, workers, err)
			}
			pctx := &iterContext{net: approx, vals: vals, st: st, metric: metric, cpm: ctx.cpm, pool: pool}
			before := shardQueries.Value()
			gotBest, gotFeasible := scoreCandidatesSharded(pctx, gotCands, 0, cfg.Threshold, pool, nil, 1)
			pool.Close()
			if got, want := shardQueries.Value()-before, int64(len(gotCands)*len(par.Shards(vals.M, workers))); got != want {
				t.Fatalf("metric=%v workers=%d: a sharded pass counted %d queries, want N·S = %d", metric, workers, got, want)
			}
			if gotBest != wantBest || !reflect.DeepEqual(gotFeasible, wantFeasible) {
				t.Fatalf("metric=%v workers=%d: selection diverges (best %d vs %d)",
					metric, workers, gotBest, wantBest)
			}
			if !reflect.DeepEqual(gotCands, wantCands) {
				for i := range gotCands {
					if gotCands[i] != wantCands[i] {
						t.Fatalf("metric=%v workers=%d: candidate %d diverges:\n got  %+v\n want %+v",
							metric, workers, i, gotCands[i], wantCands[i])
					}
				}
			}
		}
	}
}

// TestNilTracerShardedScoringAllocs pins that the Workers=1 flow path
// still takes the legacy scoring loop whose allocation profile
// TestNilTracerScoringAllocs baselines: the dispatch wrapper itself must
// add nothing on top.
func TestNilTracerShardedScoringAllocs(t *testing.T) {
	net := bench.RCA(8)
	patterns := sim.RandomPatterns(net.NumInputs(), 1024, 3)
	vals := sim.Simulate(net, patterns)
	out := sim.OutputMatrix(net, vals)
	st := emetric.NewState(out, out)
	est := newEstimator(EstimatorBatch)
	ctx := &iterContext{net: net, vals: vals, st: st, metric: core.MetricER}
	est.prepare(ctx)

	lib := cell.Default()
	cfg := Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 1}, Workers: 1}
	cfg.fillDefaults()
	arrival := lib.NodeArrival(net)
	cands := bruteGather(net, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot))
	if len(cands) == 0 {
		t.Fatal("no candidates on RCA8")
	}
	scratch := bitvec.New(vals.M)
	change := bitvec.New(vals.M)

	direct := testing.AllocsPerRun(20, func() {
		scoreCandidates(est, cands, vals, 0, cfg.Threshold, scratch, change, nil, 1)
	})
	dispatched := testing.AllocsPerRun(20, func() {
		scoreCandidatesMaybeSharded(ctx, est, cands, 0, cfg.Threshold, scratch, change, nil, nil, 1)
	})
	if dispatched > direct {
		t.Fatalf("Workers=1 dispatch allocates %v/run, direct loop %v/run", dispatched, direct)
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

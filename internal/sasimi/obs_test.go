package sasimi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/sim"
)

// TestFlowEmitsObservability runs an observed flow and checks the whole
// surface at once: JSONL events, the five phase timers, iteration /
// candidate / accept counters, and the certificate-split drift histograms.
func TestFlowEmitsObservability(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	reg := obs.NewRegistry()
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        7,
		},
		Estimator:  EstimatorBatch,
		VerifyTopK: 4,
		KeepTrace:  true,
		Tracer:     tr,
		Metrics:    reg,
	})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.NumIterations == 0 {
		t.Fatal("flow made no progress; nothing to observe")
	}

	// Every line must be valid JSON with a known event kind.
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		kind, _ := ev["ev"].(string)
		counts[kind]++
	}
	if counts["accept"] != res.NumIterations {
		t.Fatalf("accept events %d != iterations %d", counts["accept"], res.NumIterations)
	}
	if counts["iter"] == 0 || counts["phase"] == 0 {
		t.Fatalf("missing event kinds: %v", counts)
	}
	if counts["cand"] != 0 {
		t.Fatal("candidate events emitted without opting in")
	}

	// All five phase timers must be present in the metrics snapshot.
	snap := reg.Snapshot()
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := `sasimi_phase_ns{phase="` + p.String() + `"}`
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("snapshot missing phase timer %s", name)
		}
		// Every phase except pattern_gen (skipped with caller-provided
		// patterns only) must have actually run here.
		if snap.Counters[name] <= 0 {
			t.Fatalf("phase timer %s is zero", name)
		}
	}
	if snap.Counters["sasimi_iterations_total"] < int64(res.NumIterations) {
		t.Fatalf("iteration counter %d < %d accepted iterations",
			snap.Counters["sasimi_iterations_total"], res.NumIterations)
	}
	if snap.Counters["sasimi_candidates_scored_total"] == 0 {
		t.Fatal("no candidates counted")
	}
	if snap.Counters["sasimi_accepts_total"] != int64(res.NumIterations) {
		t.Fatalf("accept counter %d != %d", snap.Counters["sasimi_accepts_total"], res.NumIterations)
	}

	// Drift histograms: both accept series exist; with VerifyTopK the
	// verify drift series must carry the batch-vs-exact rechecks.
	for _, name := range []string{
		`sasimi_accept_drift{cert="exact"}`,
		`sasimi_accept_drift{cert="inexact"}`,
		`sasimi_verify_drift{cert="exact"}`,
		`sasimi_verify_drift{cert="inexact"}`,
	} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Fatalf("snapshot missing drift series %s", name)
		}
	}
	ad := snap.Histograms[`sasimi_accept_drift{cert="exact"}`]
	ai := snap.Histograms[`sasimi_accept_drift{cert="inexact"}`]
	if ad.Count+ai.Count != int64(res.NumIterations) {
		t.Fatalf("accept drift samples %d != iterations %d", ad.Count+ai.Count, res.NumIterations)
	}
	vd := snap.Histograms[`sasimi_verify_drift{cert="exact"}`]
	vi := snap.Histograms[`sasimi_verify_drift{cert="inexact"}`]
	if vd.Count+vi.Count == 0 {
		t.Fatal("VerifyTopK ran but recorded no verification drift")
	}
	// The certified series must concentrate at zero drift: a certified
	// batch ΔER equals the exact recheck within float tolerance.
	if vd.Count > 0 && (vd.Max > 1e-9 || vd.Min < -1e-9) {
		t.Fatalf("certified verify drift not ~0: min=%v max=%v", vd.Min, vd.Max)
	}

	// Result-side accounting mirrors the registry.
	if res.Phases.Total() <= 0 {
		t.Fatal("Result.Phases empty")
	}
	if res.Phases.Stats[obs.PhaseCPMBuild].Count == 0 {
		t.Fatal("no CPM build spans recorded")
	}
	for _, it := range res.Iterations {
		if it.Feasible <= 0 || it.Candidates < it.Feasible {
			t.Fatalf("iteration %d: bad feasible/candidate counts %d/%d",
				it.Iter, it.Feasible, it.Candidates)
		}
		// With VerifyTopK the chosen candidate was re-scored exactly, so
		// its recorded drift must vanish on the flow's own pattern set.
		if !it.Exact {
			t.Fatalf("iteration %d: VerifyTopK winner not marked exact", it.Iter)
		}
		if it.Drift > 1e-9 || it.Drift < -1e-9 {
			t.Fatalf("iteration %d: exact-verified drift %v != 0", it.Iter, it.Drift)
		}
	}
}

// TestReplayTraceMatchesLiveTrace re-emits a KeepTrace result through a
// fresh JSONL tracer and checks the accept events agree with the live run.
func TestReplayTraceMatchesLiveTrace(t *testing.T) {
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        7,
		},
		Estimator: EstimatorBatch,
		KeepTrace: true,
	})
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	res.ReplayTrace(tr)
	res.ReplayTrace(nil) // must be a no-op, not a panic
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var accepts, iters, phases int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			Ev        string  `json:"ev"`
			Predicted float64 `json:"pred_err"`
			Actual    float64 `json:"actual_err"`
			Drift     float64 `json:"drift"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case "accept":
			if got := ev.Actual - ev.Predicted; got-ev.Drift > 1e-12 || ev.Drift-got > 1e-12 {
				t.Fatalf("replayed drift %v inconsistent with pred/actual %v/%v",
					ev.Drift, ev.Predicted, ev.Actual)
			}
			accepts++
		case "iter":
			iters++
		case "phase":
			phases++
		}
	}
	if accepts != res.NumIterations || iters != res.NumIterations {
		t.Fatalf("replay emitted %d accepts / %d iters, want %d",
			accepts, iters, res.NumIterations)
	}
	if phases == 0 {
		t.Fatal("replay emitted no phase aggregates")
	}
}

// TestNilTracerScoringAllocs pins the nil-tracer fast path: the candidate
// scoring inner loop routed through scoreCandidates with no observability
// configured must allocate exactly as much as the pre-obs loop body (the
// estimator's own scratch work), and not one object more.
func TestNilTracerScoringAllocs(t *testing.T) {
	net := bench.RCA(8)
	patterns := sim.RandomPatterns(net.NumInputs(), 1024, 3)
	vals := sim.Simulate(net, patterns)
	out := sim.OutputMatrix(net, vals)
	st := emetric.NewState(out, out)
	est := newEstimator(EstimatorBatch)
	ctx := &iterContext{net: net, vals: vals, st: st, metric: core.MetricER}
	est.prepare(ctx)

	lib := cell.Default()
	cfg := Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 1}}
	cfg.fillDefaults()
	arrival := lib.NodeArrival(net)
	cands := bruteGather(net, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot))
	if len(cands) == 0 {
		t.Fatal("no candidates on RCA8")
	}
	scratch := bitvec.New(vals.M)
	change := bitvec.New(vals.M)

	// Baseline: the scoring loop exactly as it was before the obs layer.
	baseline := testing.AllocsPerRun(20, func() {
		best := -1
		var feasible []int
		for i := range cands {
			c := &cands[i]
			sub := c.substituteValue(vals, scratch)
			change.Xor(vals.Node(c.Target), sub)
			c.Delta = est.delta(c.Target, sub, change)
			c.Exact = est.exactFor(c.Target)
			c.Score = score(c.AreaGain, c.Delta, vals.M)
			if c.Delta > cfg.Threshold+1e-12 {
				continue
			}
			feasible = append(feasible, i)
			if best == -1 || c.Score > cands[best].Score {
				best = i
			}
		}
		_ = feasible
	})

	withObs := testing.AllocsPerRun(20, func() {
		scoreCandidates(est, cands, vals, 0, cfg.Threshold, scratch, change, nil, 1)
	})

	if withObs > baseline {
		t.Fatalf("nil-tracer scoring allocates %v/run, pre-obs baseline %v/run", withObs, baseline)
	}
}

// TestCheckInvariantsNamesCycle forces the netlist into a cycle through
// ReplaceFanin — the one edit primitive with no cycle guard — and checks
// the invariant checker reports a named cycle instead of letting
// TopoOrder panic downstream.
func TestCheckInvariantsNamesCycle(t *testing.T) {
	n := circuit.New("cyclic")
	a := n.AddInput("a")
	g1 := n.AddGate(circuit.KindAnd, a, a)
	n.SetName(g1, "g1")
	g2 := n.AddGate(circuit.KindOr, g1, a)
	n.SetName(g2, "g2")
	g3 := n.AddGate(circuit.KindAnd, g2, a)
	n.SetName(g3, "g3")
	n.AddOutput("y", g3)

	backup := n.Clone()
	c := &Candidate{Target: g2, Sub: g3}
	if err := checkAcyclic(n, backup, c); err != nil {
		t.Fatalf("acyclic network flagged: %v", err)
	}
	// Rewire g2's fanin g1 -> g3: g2 now reads g3 while g3 reads g2,
	// closing the loop g2 -> g3 -> g2.
	n.ReplaceFanin(g2, g1, g3)
	err := checkAcyclic(n, backup, c)
	if err == nil {
		t.Fatal("cycle not detected")
	}
	msg := err.Error()
	for _, want := range []string{"combinational cycle", "g2", "g3", "->"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

// TestObservedFlowMatchesUnobserved pins that observability is read-only:
// the same seed with and without tracer/metrics yields bit-identical
// results.
func TestObservedFlowMatchesUnobserved(t *testing.T) {
	cfg := Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.03,
			NumPatterns: 1500,
			Seed:        11,
		},
		Estimator: EstimatorBatch,
	}
	plain := runOn(t, "cmp8", cfg)
	cfg.Tracer = obs.NewJSONLTracer(&bytes.Buffer{})
	cfg.Metrics = obs.NewRegistry()
	observed := runOn(t, "cmp8", cfg)
	if plain.FinalArea != observed.FinalArea || plain.NumIterations != observed.NumIterations {
		t.Fatalf("observation changed the flow: %v/%d vs %v/%d",
			plain.FinalArea, plain.NumIterations, observed.FinalArea, observed.NumIterations)
	}
	if plain.Approx.Dump() != observed.Approx.Dump() {
		t.Fatal("observation changed the synthesised circuit")
	}
}

// TestIncrementalEngineMetrics pins the incremental engine's observability:
// a metered multi-iteration run must record resimulated nodes, refreshed
// CPM rows, and a dirty-fraction histogram whose observations stay in
// (0, 1].
func TestIncrementalEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        7,
		},
		Estimator:   EstimatorBatch,
		Incremental: IncrementalOn,
		Metrics:     reg,
	})
	if res.NumIterations < 2 {
		t.Fatalf("need >= 2 iterations to exercise the engine, got %d", res.NumIterations)
	}
	snap := reg.Snapshot()
	if snap.Counters["sasimi_resim_nodes_total"] <= 0 {
		t.Fatalf("sasimi_resim_nodes_total not recorded: %v", snap.Counters)
	}
	if snap.Counters["sasimi_cpm_refresh_rows_total"] <= 0 {
		t.Fatalf("sasimi_cpm_refresh_rows_total not recorded: %v", snap.Counters)
	}
	h, ok := snap.Histograms["sasimi_cpm_dirty_fraction"]
	if !ok || h.Count == 0 {
		t.Fatal("sasimi_cpm_dirty_fraction histogram not recorded")
	}
	// One refresh per iteration after the first accept.
	if h.Count != int64(res.NumIterations) {
		t.Fatalf("dirty-fraction observations %d, want %d (one per post-accept refresh)", h.Count, res.NumIterations)
	}
	if h.Min <= 0 || h.Max > 1 {
		t.Fatalf("dirty fractions outside (0,1]: min %v max %v", h.Min, h.Max)
	}

	// The full-rebuild path must not record any of them.
	regOff := obs.NewRegistry()
	runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        7,
		},
		Estimator:   EstimatorBatch,
		Incremental: IncrementalOff,
		Metrics:     regOff,
	})
	snapOff := regOff.Snapshot()
	if snapOff.Counters["sasimi_resim_nodes_total"] != 0 || snapOff.Counters["sasimi_cpm_refresh_rows_total"] != 0 {
		t.Fatalf("full-rebuild run recorded incremental metrics: %v", snapOff.Counters)
	}
}

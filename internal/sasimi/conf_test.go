package sasimi

import (
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/sim"
)

// captureTracer records every accept event for assertion.
type captureTracer struct {
	accepts []obs.AcceptInfo
}

func (c *captureTracer) OnIteration(obs.IterationInfo) {}
func (c *captureTracer) OnCandidate(obs.CandidateInfo) {}
func (c *captureTracer) OnAccept(i obs.AcceptInfo)     { c.accepts = append(c.accepts, i) }

// TestAcceptEventsCarryConfidence runs a metered ER flow and checks every
// accept event carries a Wilson interval bracketing the measured error, a
// finite Hoeffding half-width, and an adequacy verdict consistent with the
// threshold; the RunStats gauge set must mirror the last accept.
func TestAcceptEventsCarryConfidence(t *testing.T) {
	const m = 2000
	tr := &captureTracer{}
	reg := obs.NewRegistry()
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: m,
			Seed:        7,
		},
		Estimator: EstimatorBatch,
		Tracer:    tr,
		Metrics:   reg,
	})
	if res.NumIterations == 0 || len(tr.accepts) != res.NumIterations {
		t.Fatalf("captured %d accepts, want %d", len(tr.accepts), res.NumIterations)
	}
	for _, a := range tr.accepts {
		if a.M != m {
			t.Fatalf("accept M = %d, want %d", a.M, m)
		}
		if !a.ErrCI.Valid() {
			t.Fatalf("accept iter %d: invalid ErrCI %+v", a.Iter, a.ErrCI)
		}
		if a.Actual < a.ErrCI.Lo-1e-12 || a.Actual > a.ErrCI.Hi+1e-12 {
			t.Fatalf("iter %d: Wilson %+v excludes measured error %v", a.Iter, a.ErrCI, a.Actual)
		}
		if a.DeltaHW <= 0 || a.DeltaHW > 1 {
			t.Fatalf("iter %d: implausible ΔER half-width %v for M=%d", a.Iter, a.DeltaHW, m)
		}
		if want := !a.ErrCI.Straddles(0.05); a.CIAdequate != want {
			t.Fatalf("iter %d: CIAdequate=%v but interval %+v vs threshold says %v",
				a.Iter, a.CIAdequate, a.ErrCI, want)
		}
	}

	last := tr.accepts[len(tr.accepts)-1]
	snap := reg.Snapshot()
	if got := snap.Gauges["sasimi_mc_samples"]; got != m {
		t.Fatalf("sasimi_mc_samples = %v, want %d", got, m)
	}
	if snap.Gauges["sasimi_er_ci_lo"] != last.ErrCI.Lo || snap.Gauges["sasimi_er_ci_hi"] != last.ErrCI.Hi {
		t.Fatalf("gauge interval [%v,%v] != last accept %+v",
			snap.Gauges["sasimi_er_ci_lo"], snap.Gauges["sasimi_er_ci_hi"], last.ErrCI)
	}
	if got, want := snap.Gauges["sasimi_er_ci_margin"], 0.05-last.ErrCI.Hi; got != want {
		t.Fatalf("sasimi_er_ci_margin = %v, want %v", got, want)
	}
	var inadequate int64
	for _, a := range tr.accepts {
		if !a.CIAdequate {
			inadequate++
		}
	}
	if got := snap.Counters["sasimi_ci_inadequate_total"]; got != inadequate {
		t.Fatalf("sasimi_ci_inadequate_total = %d, want %d", got, inadequate)
	}
}

// TestAEMAcceptsCarryNoCI pins the gate: AEM has no Binomial error count,
// so accept events must leave the confidence fields zero.
func TestAEMAcceptsCarryNoCI(t *testing.T) {
	tr := &captureTracer{}
	res := runOn(t, "rca8", Config{
		Budget: flow.Budget{
			Metric:      core.MetricAEM,
			Threshold:   4,
			NumPatterns: 1000,
			Seed:        3,
		},
		Estimator: EstimatorFull,
		Tracer:    tr,
	})
	if res.NumIterations == 0 {
		t.Skip("AEM flow accepted nothing on rca8 at this threshold")
	}
	for _, a := range tr.accepts {
		if a.M != 0 || a.ErrCI.Valid() || a.DeltaHW != 0 {
			t.Fatalf("AEM accept carries CI fields: %+v", a)
		}
	}
}

// TestTracerOnlyRunsComputeAdequacy pins the nil-RunStats path: with a
// tracer but no registry, accepts still carry intervals and the adequacy
// verdict is settled against the flow threshold.
func TestTracerOnlyRunsComputeAdequacy(t *testing.T) {
	tr := &captureTracer{}
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        7,
		},
		Estimator: EstimatorBatch,
		Tracer:    tr,
	})
	if res.NumIterations == 0 {
		t.Fatal("no accepts")
	}
	for _, a := range tr.accepts {
		if !a.ErrCI.Valid() {
			t.Fatalf("tracer-only accept lost its interval: %+v", a)
		}
		if want := !a.ErrCI.Straddles(0.05); a.CIAdequate != want {
			t.Fatalf("tracer-only adequacy %v inconsistent with %+v", a.CIAdequate, a.ErrCI)
		}
	}
}

// TestIdleStreamSubscriberScoringAllocs pins the streaming satellite of the
// zero-alloc contract: the per-candidate scoring loop with a StreamTracer
// that has a connected-but-idle SSE-style subscriber allocates exactly as
// much as the nil-tracer path (candidate events are gated off by default,
// and the publish fast path is allocation-free).
func TestIdleStreamSubscriberScoringAllocs(t *testing.T) {
	net := bench.RCA(8)
	patterns := sim.RandomPatterns(net.NumInputs(), 1024, 3)
	ctx, est := batchFixture(net, sim.OutputMatrix(net, sim.Simulate(net, patterns)), patterns, core.MetricER)
	vals := ctx.vals

	lib := cell.Default()
	cfg := Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 1}}
	cfg.fillDefaults()
	arrival := lib.NodeArrival(net)
	cands := gatherStore(t, net, vals, &cfg, arrival, lib.GateDelay(circuit.KindNot))
	if cands.len() == 0 {
		t.Fatal("no candidates on RCA8")
	}
	scratch := bitvec.New(vals.M)
	change := bitvec.New(vals.M)

	baseline := testing.AllocsPerRun(20, func() {
		scoreCandidates(est, cands, nil, vals, 0, cfg.Threshold, scratch, change, nil, 1)
	})

	stream := obs.NewStreamTracer("allocs")
	events, cancel := stream.Subscribe(16) // connected but never read: idle client
	defer cancel()
	streamCfg := cfg
	streamCfg.Tracer = stream
	o := newRunObs(&streamCfg, net)
	withIdleSub := testing.AllocsPerRun(20, func() {
		scoreCandidates(est, cands, nil, vals, 0, cfg.Threshold, scratch, change, o, 1)
	})
	if withIdleSub > baseline {
		t.Fatalf("idle-subscriber scoring allocates %v/run, nil-tracer baseline %v/run",
			withIdleSub, baseline)
	}
	// The batch flow scores through the sharded scorer: the idle
	// subscriber costs it nothing either.
	shardedNil := shardedScoringAllocs(ctx, cands, cfg.Threshold, 1, nil)
	shardedIdle := shardedScoringAllocs(ctx, cands, cfg.Threshold, 1, o)
	if shardedIdle > shardedNil {
		t.Fatalf("idle-subscriber sharded scoring allocates %v/run, nil-tracer %v/run",
			shardedIdle, shardedNil)
	}
	select {
	case ev := <-events:
		t.Fatalf("candidate event %+v leaked without EmitCandidates", ev)
	default:
	}
}

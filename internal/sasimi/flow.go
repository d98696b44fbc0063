package sasimi

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"batchals/internal/analyze"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// IncrementalMode selects whether the flow carries simulation, error-state
// and CPM results across iterations (cone-scoped resimulation plus
// dirty-region CPM refresh) or rebuilds everything from scratch each
// iteration. Both paths are bit-identical — the incremental engine is
// purely a throughput knob, pinned by the differential suite — so the
// default is on; IncrementalOff exists as an escape hatch and as the
// reference side of the differential tests.
type IncrementalMode int

const (
	// IncrementalAuto (the zero value) enables the incremental engine.
	IncrementalAuto IncrementalMode = iota
	// IncrementalOn explicitly enables the incremental engine.
	IncrementalOn
	// IncrementalOff forces the per-iteration full rebuild.
	IncrementalOff
)

// String names the mode.
func (m IncrementalMode) String() string {
	switch m {
	case IncrementalAuto:
		return "auto"
	case IncrementalOn:
		return "on"
	case IncrementalOff:
		return "off"
	}
	return "unknown"
}

func (m IncrementalMode) enabled() bool { return m != IncrementalOff }

// Config parameterises one flow run. Zero values are filled with sensible
// defaults by Run; only Threshold must be set by the caller. The error
// budget, sample size and run-length fields are the embedded flow.Budget
// shared with the other iterative flows.
type Config struct {
	flow.Budget

	// Estimator chooses the per-candidate error estimation method.
	Estimator EstimatorKind
	// Workers sets the size of the pattern-sharded worker pool that runs
	// simulation, CPM construction, candidate gathering and batch scoring
	// concurrently. 0 (the default) selects runtime.NumCPU(); 1 forces the
	// legacy sequential path. Results are bit-identical at any worker
	// count — see DESIGN.md §10 for the determinism argument — so Workers
	// is purely a throughput knob.
	Workers int
	// Incremental selects the cross-iteration incremental engine (default
	// on; see IncrementalMode).
	Incremental IncrementalMode
	// Patterns, when non-nil, overrides NumPatterns/Seed with a
	// caller-provided (possibly non-uniform) pattern set.
	Patterns *sim.Patterns
	// SimilarityCap is the maximum local difference probability for a pair
	// to be considered almost-identical (default 0.3).
	SimilarityCap float64
	// MaxCandidates caps candidates evaluated per iteration (0 = all).
	MaxCandidates int
	// VerifyTopK, when positive, re-evaluates the K best-scoring feasible
	// candidates of each iteration with exact fanout-cone resimulation
	// before committing to one. This implements the mitigation the paper
	// lists as future work for the reconvergent-path inaccuracy: the batch
	// estimate ranks all T candidates cheaply, exact simulation then
	// settles the winner among K ≪ T. Costs K cone resimulations per
	// iteration; ignored by EstimatorFull (already exact).
	VerifyTopK int
	// KeepTrace records a per-iteration IterationRecord in the result.
	KeepTrace bool
	// Tracer, when non-nil, receives flow events: per-phase spans,
	// per-iteration summaries, per-candidate scores and accepted
	// substitutions. A nil Tracer costs nothing — the hot loops never
	// materialise event arguments.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives flow metrics: iteration / candidate
	// / accept counters, the five per-phase timers and the
	// estimator-drift histograms (split by the exactness certificate).
	Metrics *obs.Registry
	// CheckInvariants re-validates structural invariants after every
	// accepted substitution: a combinational cycle introduced by the
	// netlist surgery is reported as a named-cycle error immediately,
	// instead of a TopoOrder panic on the next simulation. The flow tests
	// keep it on; production callers pay one DFS per accepted
	// substitution if they opt in.
	CheckInvariants bool
	// Timeline, when non-nil, records the run's causal span timeline: one
	// dispatch span plus per-worker spans for every pool fan-out
	// (simulation, CPM build/refresh, gather, scoring), flow-phase and
	// iteration spans, and verify/apply/measure spans — exportable as
	// Chrome trace-event JSON (Recorder.WriteTrace) for Perfetto. Worker
	// goroutines additionally carry als_dispatch/als_phase pprof labels
	// while a timeline is attached. A nil Timeline costs nothing (one
	// predictable branch per dispatch) and the recorded computation is
	// bit-identical either way.
	Timeline *timeline.Recorder

	// verifyIncremental cross-checks the incremental engine against the
	// full-rebuild computation every iteration: the incremental candidate
	// list and (for the batch estimator) the refreshed CPM are compared
	// against freshly rebuilt ones, and any divergence aborts the run with
	// an error. Test-only paranoia hook — quadratically expensive.
	verifyIncremental bool
}

func (cfg *Config) fillDefaults() {
	cfg.Budget.FillDefaults()
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.SimilarityCap == 0 {
		cfg.SimilarityCap = 0.3
	}
}

// IterationRecord captures one accepted substitution, for the paper's
// per-iteration figures (Fig. 1, Fig. 3).
type IterationRecord struct {
	Iter       int
	Target     string  // name of the substituted signal
	Sub        string  // name of the substitute ("const0"/"const1")
	Inverted   bool    // complemented substitution
	EstGain    float64 // predicted area gain of the chosen AT
	EstDelta   float64 // estimated increased error of the chosen AT
	EstAccum   float64 // accumulated estimate (the EER curve of Fig. 3)
	ActualErr  float64 // measured error after applying, same pattern set
	Area       float64 // circuit area after applying
	Candidates int     // candidates evaluated this iteration
	Feasible   int     // candidates within the remaining budget
	Exact      bool    // chosen estimate carried the exactness certificate
	// Drift is ActualErr − (error before this iteration + EstDelta): the
	// estimator error realised by this substitution. Zero (up to float
	// noise) whenever Exact is set or the estimate was verified exactly.
	Drift    float64
	CPMTime  time.Duration
	IterTime time.Duration
}

// Result is the outcome of a flow run.
type Result struct {
	Approx       *circuit.Network
	OriginalArea float64
	FinalArea    float64
	// FinalError is measured on the flow's pattern set against the golden
	// circuit after the last accepted substitution.
	FinalError float64
	Iterations []IterationRecord
	// NumIterations counts accepted substitutions even when KeepTrace is
	// off.
	NumIterations int
	TotalTime     time.Duration
	CPMTime       time.Duration // total time spent building CPMs
	EstimateTime  time.Duration // total time spent estimating candidates
	// Phases is the per-phase wall-time (and, when a Tracer or Metrics
	// registry was configured, allocation) breakdown of the whole run
	// across the five flow phases.
	Phases obs.PhaseReport
}

// AreaRatio returns FinalArea / OriginalArea.
func (r *Result) AreaRatio() float64 {
	if r.OriginalArea == 0 {
		return 1
	}
	return r.FinalArea / r.OriginalArea
}

// ReplayTrace re-emits the run's recorded trace through tr: the aggregate
// phase spans, then one iteration + accept event per KeepTrace record.
// This lets a run that was executed without a tracer (or whose Result was
// loaded elsewhere) feed the same JSONL exporter as a live run.
func (r *Result) ReplayTrace(tr obs.Tracer) {
	if tr == nil {
		return
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		st := r.Phases.Stats[p]
		if st.Count == 0 {
			continue
		}
		tr.OnPhase(obs.PhaseInfo{Phase: p, Duration: st.Time, Mem: st.Mem})
	}
	prevErr := 0.0
	for _, it := range r.Iterations {
		tr.OnIteration(obs.IterationInfo{
			Iter:       it.Iter,
			CurErr:     prevErr,
			Candidates: it.Candidates,
			Feasible:   it.Feasible,
			Accepted:   true,
			Duration:   it.IterTime,
		})
		tr.OnAccept(obs.AcceptInfo{
			Iter:      it.Iter,
			Target:    it.Target,
			Sub:       it.Sub,
			Inverted:  it.Inverted,
			Predicted: it.ActualErr - it.Drift,
			Actual:    it.ActualErr,
			Drift:     it.Drift,
			Exact:     it.Exact,
			Area:      it.Area,
		})
		prevErr = it.ActualErr
	}
}

// runObs bundles the optional observability sinks of one run. A nil
// *runObs means "not observed": every method nil-checks the receiver
// first, so the flow body calls them unconditionally and the unobserved
// path costs one predictable branch — and, critically, zero allocations,
// because event structs are only built after the nil checks pass.
type runObs struct {
	tracer      obs.Tracer
	reg         *obs.Registry
	net         *circuit.Network
	iters       *obs.Counter
	cands       *obs.Counter
	accepts     *obs.Counter
	rollbacks   *obs.Counter
	acceptDrift *obs.DriftRecorder
	verifyDrift *obs.DriftRecorder

	// Confidence accounting for the M-sample MC estimate. conf is non-nil
	// only for metered ER runs; erMetric/threshold let a tracer-only run
	// still compute per-accept intervals.
	conf      *obs.RunStats
	erMetric  bool
	threshold float64

	// Incremental-engine accounting: nodes resimulated by cone-scoped
	// resimulation, CPM rows recomputed by dirty-region refresh, and the
	// per-refresh dirty fraction distribution.
	resimNodes  *obs.Counter
	refreshRows *obs.Counter
	dirtyFrac   *obs.Histogram

	// emitCands caches obs.WantsCandidates(tracer): when the attached
	// tracer declines the candidate firehose (a StreamTracer or JSONLTracer
	// with EmitCandidates off, a FlightRecorder), the scoring loop skips
	// building CandidateInfo — including the name lookups — entirely, which
	// keeps the per-candidate path allocation-identical to the nil-tracer
	// path even with live subscribers attached.
	emitCands bool
}

func newRunObs(cfg *Config, net *circuit.Network) *runObs {
	if cfg.Tracer == nil && cfg.Metrics == nil {
		return nil
	}
	o := &runObs{
		tracer:    cfg.Tracer,
		reg:       cfg.Metrics,
		net:       net,
		erMetric:  cfg.Metric == core.MetricER,
		threshold: cfg.Threshold,
		emitCands: obs.WantsCandidates(cfg.Tracer),
	}
	if reg := cfg.Metrics; reg != nil {
		o.iters = reg.Counter("sasimi_iterations_total")
		o.cands = reg.Counter("sasimi_candidates_scored_total")
		o.accepts = reg.Counter("sasimi_accepts_total")
		o.rollbacks = reg.Counter("sasimi_rollbacks_total")
		o.acceptDrift = obs.NewDriftRecorder(reg, "sasimi_accept_drift")
		o.verifyDrift = obs.NewDriftRecorder(reg, "sasimi_verify_drift")
		o.resimNodes = reg.Counter("sasimi_resim_nodes_total")
		o.refreshRows = reg.Counter("sasimi_cpm_refresh_rows_total")
		o.dirtyFrac = reg.Histogram("sasimi_cpm_dirty_fraction",
			[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1})
		if o.erMetric {
			o.conf = obs.NewRunStats(reg, "sasimi", cfg.Threshold)
		}
	}
	return o
}

func (o *runObs) candidateScored(iter int, c *Candidate) {
	if o == nil {
		return
	}
	if o.cands != nil {
		o.cands.Inc()
	}
	if o.emitCands {
		o.tracer.OnCandidate(obs.CandidateInfo{
			Iter:     iter,
			Target:   o.net.NameOf(c.Target),
			Sub:      subName(o.net, c),
			Inverted: c.Inverted,
			Delta:    c.Delta,
			Gain:     c.AreaGain,
			Score:    c.Score,
			Exact:    c.Exact,
		})
	}
}

func (o *runObs) verified(iter int, c *Candidate, batchDelta, exactDelta float64, wasExact bool) {
	if o == nil {
		return
	}
	if o.verifyDrift != nil {
		o.verifyDrift.Record(batchDelta, exactDelta, wasExact)
	}
}

// resimmed records one cone-scoped resimulation of n nodes.
func (o *runObs) resimmed(n int) {
	if o == nil || o.resimNodes == nil {
		return
	}
	o.resimNodes.Add(int64(n))
}

// cpmRefreshed records one dirty-region CPM refresh.
func (o *runObs) cpmRefreshed(stats core.RefreshStats) {
	if o == nil {
		return
	}
	if o.refreshRows != nil {
		o.refreshRows.Add(int64(stats.DirtyRows))
	}
	if o.dirtyFrac != nil && stats.TotalRows > 0 {
		o.dirtyFrac.Observe(float64(stats.DirtyRows) / float64(stats.TotalRows))
	}
}

func (o *runObs) iteration(iter int, curErr float64, cands, feasible int, accepted bool, d time.Duration) {
	if o == nil {
		return
	}
	if o.iters != nil {
		o.iters.Inc()
	}
	if o.tracer != nil {
		o.tracer.OnIteration(obs.IterationInfo{
			Iter:       iter,
			CurErr:     curErr,
			Candidates: cands,
			Feasible:   feasible,
			Accepted:   accepted,
			Duration:   d,
		})
	}
}

func (o *runObs) accepted(iter int, target, sub string, inverted bool, predicted, actual float64, exact bool, area float64, deltaEst float64, errCount, m int64) {
	if o == nil {
		return
	}
	if o.accepts != nil {
		o.accepts.Inc()
	}
	if o.acceptDrift != nil {
		o.acceptDrift.Record(predicted, actual, exact)
	}
	// Confidence intervals exist only when the metric is a Binomial
	// proportion over the M samples (ER); for AEM the fields stay zero and
	// ErrCI.Valid() is false.
	var (
		errCI    obs.Interval
		deltaHW  float64
		adequate bool
		mInfo    int
	)
	if o.erMetric && m > 0 && (o.conf != nil || o.tracer != nil) {
		errCI, deltaHW, adequate = o.conf.RecordAccept(errCount, m, deltaEst)
		if o.conf == nil {
			// Nil RunStats computes the interval but cannot know the
			// threshold; settle adequacy here for the tracer event.
			adequate = !errCI.Straddles(o.threshold)
		}
		mInfo = int(m)
	}
	if o.tracer != nil {
		o.tracer.OnAccept(obs.AcceptInfo{
			Iter:       iter,
			Target:     target,
			Sub:        sub,
			Inverted:   inverted,
			Predicted:  predicted,
			Actual:     actual,
			Drift:      actual - predicted,
			Exact:      exact,
			Area:       area,
			M:          mInfo,
			ErrCI:      errCI,
			DeltaHW:    deltaHW,
			CIAdequate: adequate,
		})
	}
}

func (o *runObs) rolledBack() {
	if o == nil || o.rollbacks == nil {
		return
	}
	o.rollbacks.Inc()
}

// Run executes the SASIMI flow on a copy of golden and returns the
// approximate circuit with the measured error within cfg.Threshold.
func Run(golden *circuit.Network, cfg Config) (*Result, error) {
	return RunContext(context.Background(), golden, cfg)
}

// RunContext is Run with cooperative cancellation: ctx is checked at every
// iteration boundary and inside the pattern-sharded scoring dispatch. On
// cancellation the flow returns the partial Result accumulated so far —
// every accepted substitution up to the abort is intact and measured —
// together with ctx.Err().
func RunContext(goCtx context.Context, golden *circuit.Network, cfg Config) (*Result, error) {
	start := time.Now()
	cfg.fillDefaults()
	if err := cfg.Budget.Validate("sasimi"); err != nil {
		return nil, err
	}
	if cfg.Patterns != nil && cfg.Patterns.NumPatterns() == 0 {
		return nil, fmt.Errorf("sasimi: %w: empty Patterns override", flow.ErrNoPatterns)
	}
	if cfg.Metric == core.MetricAEM && golden.NumOutputs() > 63 {
		return nil, fmt.Errorf("sasimi: AEM flow needs <= 63 outputs, have %d", golden.NumOutputs())
	}
	if err := golden.Validate(); err != nil {
		return nil, fmt.Errorf("sasimi: invalid input network: %w", err)
	}

	// TrackMem (ReadMemStats per phase span) keys off the caller's sinks,
	// computed before the timeline tracer is merged in: attaching only a
	// Timeline must not add stop-the-world sampling to the run.
	observed := cfg.Tracer != nil || cfg.Metrics != nil
	if cfg.Timeline != nil {
		cfg.Tracer = obs.Multi(cfg.Tracer, timeline.NewFlowTracer(cfg.Timeline))
	}
	prof := &obs.Profile{Tracer: cfg.Tracer, TrackMem: observed}

	pool := par.NewPool(cfg.Workers)
	defer pool.Close()
	if cfg.Timeline != nil {
		pool.AttachTimeline(cfg.Timeline, true)
	}
	if cfg.Metrics != nil {
		// Live worker-utilization / inflight gauges plus Go runtime health
		// (sched latency, GC pauses, goroutines), refreshed while the run
		// is in flight and finalised when the flow returns.
		stopSampler := pool.SampleInto(cfg.Metrics, 0)
		defer stopSampler()
		stopRuntime := obs.StartRuntimeSampler(cfg.Metrics, 0)
		defer stopRuntime()
	}

	sp := prof.Begin(obs.PhasePatternGen)
	patterns := cfg.Patterns
	if patterns == nil {
		patterns = sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
	}
	prof.End(sp)

	sp = prof.Begin(obs.PhaseSimulate)
	goldenVals := sim.SimulateParallel(golden, patterns, pool)
	goldenOut := sim.OutputMatrix(golden, goldenVals)
	prof.End(sp)

	approx := golden.Clone()
	est := newEstimator(cfg.Estimator)
	o := newRunObs(&cfg, approx)

	res := &Result{
		Approx:       approx,
		OriginalArea: cfg.Library.NetworkArea(golden),
	}
	res.FinalArea = res.OriginalArea

	estAccum := 0.0
	adm := newAdmission(patterns.NumPatterns(), cfg.SimilarityCap)
	scratch := bitvec.New(patterns.NumPatterns())
	change := bitvec.New(patterns.NumPatterns())
	var vscratch verifyScratch

	// The incremental engine carries net+vals+error-state+CPM across
	// iterations; the gather cache carries candidate enumeration state.
	// After an accept, pendingEdit/pendingChanged describe the surgery for
	// the next iteration's cache update. With the engine off, a fresh
	// Engine per iteration reproduces the legacy rebuild-from-scratch
	// sequence operation for operation.
	incremental := cfg.Incremental.enabled()
	var (
		eng            *core.Engine
		cache          *gatherCache
		pendingEdit    *core.Edit
		pendingChanged []circuit.NodeID
		runErr         error
	)

loop:
	for iter := 1; ; iter++ {
		if err := goCtx.Err(); err != nil {
			runErr = err
			break loop
		}
		if cfg.MaxIterations > 0 && iter > cfg.MaxIterations {
			break
		}
		iterStart := time.Now()
		prof.Iter = iter
		cfg.Timeline.SetIter(iter)

		sp = prof.Begin(obs.PhaseSimulate)
		if eng == nil || !incremental {
			eng = core.NewEngine(approx, goldenOut, patterns, pool)
		}
		vals, st := eng.Vals, eng.St
		prof.End(sp)
		curErr := cfg.Metric.Value(st)
		res.FinalError = curErr

		ictx := &iterContext{net: approx, vals: vals, st: st, metric: cfg.Metric,
			pool: pool, engine: eng, goCtx: goCtx}
		sp = prof.Begin(obs.PhaseCPMBuild)
		est.prepare(ictx)
		prof.End(sp)
		var cpmTime time.Duration
		if ictx.cpm != nil {
			cpmTime = ictx.cpm.BuildTime()
			res.CPMTime += cpmTime
			if stats, full := eng.LastRefresh(); !full {
				o.cpmRefreshed(stats)
			}
		}

		sp = prof.Begin(obs.PhaseEstimate)
		arrival := cfg.Library.NodeArrival(approx)
		invDelay := cfg.Library.GateDelay(circuit.KindNot)
		env := newGatherEnv(approx, vals, &cfg, arrival, invDelay, adm)
		var cands []Candidate
		var gerr error
		switch {
		case !incremental:
			cands, gerr = gather(goCtx, env, pool, nil)
			cands = capped(cands, &cfg)
		case cache == nil:
			cache = &gatherCache{}
			cands, gerr = cache.full(goCtx, env, pool)
		default:
			cands, gerr = cache.update(goCtx, env, pendingEdit, pendingChanged, pool)
		}
		if gerr != nil {
			// A cancelled gather leaves the cache partially written; drop
			// it so a hypothetical resume cannot read torn state.
			cache = nil
		}
		if err := goCtx.Err(); err != nil {
			prof.End(sp)
			runErr = err
			break loop
		}
		if cfg.verifyIncremental && incremental {
			if err := crossCheckIncremental(env, pool, cands, ictx.cpm); err != nil {
				prof.End(sp)
				return nil, err
			}
		}
		if len(cands) == 0 {
			prof.End(sp)
			o.iteration(iter, curErr, 0, 0, false, time.Since(iterStart))
			break
		}

		// Estimate the increased error of every candidate (the batch step)
		// and pick the best feasible one by ΔArea/ΔError score.
		estStart := time.Now()
		best, feasible := scoreCandidatesMaybeSharded(ictx, est, cands, curErr, cfg.Threshold,
			scratch, change, pool, o, iter)
		prof.End(sp)
		if err := goCtx.Err(); err != nil {
			runErr = err
			break loop
		}

		sp = prof.Begin(obs.PhaseVerifyApply)
		if cfg.VerifyTopK > 0 && cfg.Estimator != EstimatorFull && len(feasible) > 0 {
			tlv := cfg.Timeline.Start("sasimi.verify_topk", obs.PhaseVerifyApply)
			var verr error
			best, verr = verifyTopK(goCtx, approx, vals, st, &cfg, cands, feasible, curErr, scratch, &vscratch, pool, o, iter)
			cfg.Timeline.End(tlv)
			if verr != nil {
				prof.End(sp)
				runErr = verr
				break loop
			}
		}
		res.EstimateTime += time.Since(estStart)
		if best == -1 {
			prof.End(sp)
			o.iteration(iter, curErr, len(cands), len(feasible), false, time.Since(iterStart))
			break // nothing fits in the remaining budget
		}
		chosen := cands[best]

		// Apply the substitution on a backup so an over-budget result can
		// be rolled back, then measure the actual error (paper §3.2).
		tla := cfg.Timeline.Start("sasimi.apply", obs.PhaseVerifyApply)
		backup := approx.Clone()
		ed := applyCandidate(approx, &chosen)
		if cfg.CheckInvariants {
			if err := checkAcyclic(approx, backup, &chosen); err != nil {
				prof.End(sp)
				return nil, err
			}
		}
		cfg.Timeline.End(tla)

		// Measure the actual error on the same pattern set. Incrementally:
		// resimulate only the edit's fanout cones in place and refresh the
		// error state — bit-identical to the full resimulation by
		// construction. The full path rebuilds everything next iteration.
		tlm := cfg.Timeline.Start("sasimi.measure", obs.PhaseVerifyApply)
		var actual float64
		var wrongCount int64
		if incremental {
			resimmed, valsChanged := eng.Apply(ed)
			o.resimmed(len(resimmed))
			pendingEdit, pendingChanged = &ed, valsChanged
			actual = cfg.Metric.Value(eng.St)
			wrongCount = int64(eng.St.WrongAny.Count())
		} else {
			newVals := sim.SimulateParallel(approx, patterns, pool)
			newSt := emetric.NewState(goldenOut, sim.OutputMatrix(approx, newVals))
			actual = cfg.Metric.Value(newSt)
			wrongCount = int64(newSt.WrongAny.Count())
		}
		cfg.Timeline.End(tlm)
		predicted := curErr + chosen.Delta
		if actual > cfg.Threshold+1e-12 {
			// The estimate was wrong and the budget is blown: restore the
			// previous circuit and stop, as the paper's flow does. The
			// engine's derived state is stale for the restored circuit, but
			// the flow ends here so nothing reads it again.
			*approx = *backup
			prof.End(sp)
			o.rolledBack()
			o.iteration(iter, curErr, len(cands), len(feasible), false, time.Since(iterStart))
			break
		}
		prof.End(sp)

		estAccum += chosen.Delta
		res.NumIterations++
		res.FinalArea = cfg.Library.NetworkArea(approx)
		res.FinalError = actual
		targetName := backup.NameOf(chosen.Target)
		subN := subName(backup, &chosen)
		o.accepted(iter, targetName, subN, chosen.Inverted, predicted, actual, chosen.Exact, res.FinalArea,
			chosen.Delta, wrongCount, int64(patterns.NumPatterns()))
		o.iteration(iter, curErr, len(cands), len(feasible), true, time.Since(iterStart))
		if cfg.KeepTrace {
			res.Iterations = append(res.Iterations, IterationRecord{
				Iter:       iter,
				Target:     targetName,
				Sub:        subN,
				Inverted:   chosen.Inverted,
				EstGain:    chosen.AreaGain,
				EstDelta:   chosen.Delta,
				EstAccum:   estAccum,
				ActualErr:  actual,
				Area:       res.FinalArea,
				Candidates: len(cands),
				Feasible:   len(feasible),
				Exact:      chosen.Exact,
				Drift:      actual - predicted,
				CPMTime:    cpmTime,
				IterTime:   time.Since(iterStart),
			})
		}
	}

	res.TotalTime = time.Since(start)
	res.Phases = prof.Report()
	prof.Export(cfg.Metrics, "sasimi")
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("sasimi_parallel_speedup").Set(pool.Speedup())
	}
	if runErr != nil {
		// Cancelled: the partial result is consistent (accepted
		// substitutions only), returned alongside the context error.
		return res, runErr
	}
	if err := approx.Validate(); err != nil {
		return nil, fmt.Errorf("sasimi: flow corrupted the network: %w", err)
	}
	return res, nil
}

// crossCheckIncremental is the verifyIncremental paranoia pass: it rebuilds
// the candidate list (and, when present, the CPM) from scratch and compares
// against the incremental results field for field.
func crossCheckIncremental(env *gatherEnv, pool *par.Pool, cands []Candidate, cpm *core.CPM) error {
	net, vals := env.net, env.vals
	full, err := gather(context.Background(), env, pool, nil)
	if err != nil {
		return err
	}
	full = capped(full, env.cfg)
	if len(full) != len(cands) {
		return fmt.Errorf("sasimi: incremental gather diverged: %d candidates vs %d full", len(cands), len(full))
	}
	for i := range full {
		a, b := &cands[i], &full[i]
		if a.Target != b.Target || a.Sub != b.Sub || a.Inverted != b.Inverted ||
			a.Const != b.Const || a.ConstVal != b.ConstVal ||
			a.DiffProb != b.DiffProb || a.AreaGain != b.AreaGain {
			return fmt.Errorf("sasimi: incremental gather diverged at candidate %d: %+v vs full %+v", i, *a, *b)
		}
	}
	if cpm != nil {
		fresh := core.BuildParallel(net, vals, pool)
		for _, id := range net.LiveNodes() {
			for o := 0; o < fresh.NumOutputs(); o++ {
				if !cpm.Prop(id, o).Equal(fresh.Prop(id, o)) {
					return fmt.Errorf("sasimi: incremental CPM diverged at node %d output %d", id, o)
				}
			}
		}
	}
	return nil
}

// checkAcyclic closes the documented ReplaceFanin gap: circuit editing
// does not itself forbid a substitution that closes a combinational loop
// (the gather screens for it, but the screen and the surgery are
// separate code paths). Under Config.CheckInvariants every accepted
// substitution is re-checked here, turning what would be a TopoOrder
// panic inside the next simulation into an error that names the cycle.
func checkAcyclic(approx, backup *circuit.Network, c *Candidate) error {
	cyc := analyze.FindCycle(approx)
	if cyc == nil {
		return nil
	}
	return fmt.Errorf("sasimi: substituting %s <- %s created combinational cycle %s",
		backup.NameOf(c.Target), subName(backup, c), cycleNames(approx, cyc))
}

// cycleNames renders a cycle as "a -> b -> c -> a" for error messages.
func cycleNames(net *circuit.Network, cyc []circuit.NodeID) string {
	names := make([]string, 0, len(cyc)+1)
	for _, id := range cyc {
		names = append(names, net.NameOf(id))
	}
	if len(cyc) > 0 {
		names = append(names, net.NameOf(cyc[0]))
	}
	return strings.Join(names, " -> ")
}

// scoreCandidates runs the batch estimation inner loop: it fills
// Delta/Exact/Score for every candidate and returns the index of the best
// feasible candidate (-1 if none fits the remaining budget) plus the list
// of feasible indices. With o == nil this is exactly the pre-observability
// hot loop — TestNilTracerScoringAllocs pins that it allocates nothing
// beyond the estimator's own scratch work. The batch estimator's CPM
// queries are counted once for the whole pass.
//
//als:allocfree
func scoreCandidates(est estimator, cands []Candidate, vals *sim.Values,
	curErr, threshold float64, scratch, change *bitvec.Vec, o *runObs, iter int) (int, []int) {

	best := -1
	var feasible []int
	for i := range cands {
		c := &cands[i]
		sub := c.substituteValue(vals, scratch)
		change.Xor(vals.Node(c.Target), sub)
		c.Delta = est.delta(c.Target, sub, change)
		c.Exact = est.exactFor(c.Target)
		c.Score = score(c.AreaGain, c.Delta, vals.M)
		o.candidateScored(iter, c)
		if curErr+c.Delta > threshold+1e-12 {
			continue // estimated to bust the budget
		}
		feasible = append(feasible, i) //als:alloc-ok amortised grow of the returned index list; the pin's baseline absorbs it
		if best == -1 || c.Score > cands[best].Score {
			best = i
		}
	}
	if be, ok := est.(*batchEstimator); ok {
		core.CountDeltaQueries(be.ctx.metric, len(cands))
	}
	return best, feasible
}

// score ranks candidates: area gain per unit of increased error. ATs whose
// estimated error is non-positive are strictly better than any
// error-increasing AT; among them a larger gain and a more negative delta
// win. The floor of one tenth of a pattern keeps the ratio finite.
func score(gain, delta float64, m int) float64 {
	floor := 0.1 / float64(m)
	if delta <= 0 {
		// Map into a band above every positive-delta score.
		return 1e12 * (gain + 1) * (1 - delta)
	}
	if delta < floor {
		delta = floor
	}
	return gain / delta
}

func subName(n *circuit.Network, c *Candidate) string {
	if c.Const {
		if c.ConstVal {
			return "const1"
		}
		return "const0"
	}
	return n.NameOf(c.Sub)
}

// applyCandidate performs the netlist surgery for an accepted candidate and
// returns the structural edit record the incremental engine consumes: the
// replacement signal, the nodes rewired onto it (the target's former
// fanouts, captured before the rewiring), any added node, and the swept
// region with its live boundary.
func applyCandidate(net *circuit.Network, c *Candidate) core.Edit {
	var ed core.Edit
	var repl circuit.NodeID
	switch {
	case c.Const:
		repl = net.AddConst(c.ConstVal)
		ed.Added = []circuit.NodeID{repl}
	case c.Inverted:
		repl = net.AddGate(circuit.KindNot, c.Sub)
		ed.Added = []circuit.NodeID{repl}
	default:
		repl = c.Sub
	}
	ed.Repl = repl
	ed.Rewired = append([]circuit.NodeID(nil), net.Fanouts(c.Target)...)
	net.ReplaceNode(c.Target, repl)
	ed.Removed, ed.Boundary = net.SweepFromCollect(c.Target)
	return ed
}

// EstimateAll exposes the batch estimation step in isolation: it returns
// every admissible candidate of the network with Delta filled in by the
// selected estimator, without applying anything. The facade and the
// examples use it to demonstrate pure batch estimation.
func EstimateAll(golden, approx *circuit.Network, cfg Config) ([]Candidate, error) {
	cfg.fillDefaults()
	if err := approx.Validate(); err != nil {
		return nil, err
	}
	pool := par.NewPool(cfg.Workers)
	defer pool.Close()
	if cfg.Timeline != nil {
		pool.AttachTimeline(cfg.Timeline, true)
	}
	patterns := cfg.Patterns
	if patterns == nil {
		patterns = sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
	}
	goldenVals := sim.SimulateParallel(golden, patterns, pool)
	vals := sim.SimulateParallel(approx, patterns, pool)
	st := emetric.NewState(sim.OutputMatrix(golden, goldenVals), sim.OutputMatrix(approx, vals))

	est := newEstimator(cfg.Estimator)
	ctx := &iterContext{net: approx, vals: vals, st: st, metric: cfg.Metric, pool: pool}
	est.prepare(ctx)

	arrival := cfg.Library.NodeArrival(approx)
	env := newGatherEnv(approx, vals, &cfg, arrival, cfg.Library.GateDelay(circuit.KindNot),
		newAdmission(vals.M, cfg.SimilarityCap))
	cands, err := gather(context.Background(), env, pool, nil)
	if err != nil {
		return nil, err
	}
	cands = capped(cands, &cfg)
	scratch := bitvec.New(patterns.NumPatterns())
	change := bitvec.New(patterns.NumPatterns())
	o := newRunObs(&cfg, approx)
	scoreCandidatesMaybeSharded(ctx, est, cands, 0, cfg.Threshold, scratch, change, pool, o, 1)
	return cands, nil
}

package sasimi

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"batchals/internal/analyze"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// Config parameterises one flow run. Zero values are filled with sensible
// defaults by Run; only Threshold must be set by the caller. The error
// budget, sample size and run-length fields are the embedded flow.Budget
// shared with the other iterative flows.
type Config struct {
	flow.Budget

	// Estimator chooses the per-candidate error estimation method.
	Estimator EstimatorKind
	// Workers sets the size of the pattern-sharded worker pool that runs
	// simulation, CPM construction, candidate gathering, batch scoring and
	// exact verification concurrently. 0 (the default) selects
	// runtime.NumCPU(); 1 runs the same sharded kernels as one shard on
	// the calling goroutine. Results are bit-identical at any worker count
	// — see DESIGN.md §10 for the determinism argument — so Workers is
	// purely a throughput knob.
	Workers int
	// Patterns, when non-nil, overrides NumPatterns/Seed with a
	// caller-provided (possibly non-uniform) pattern set.
	Patterns *sim.Patterns
	// SimilarityCap is the maximum local difference probability for a pair
	// to be considered almost-identical (default 0.3).
	SimilarityCap float64
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
	// Tracer, when non-nil, receives the flow's decisions: per-iteration
	// summaries, per-candidate scores and accepted substitutions. A nil
	// Tracer costs nothing — the hot loops never materialise event
	// arguments.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives flow metrics: iteration / candidate
	// / accept counters, the five per-phase timers and allocation
	// counters, and the estimator-drift histograms (split by the
	// exactness certificate).
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
	// iteration spans, accept markers, and verify/apply/measure spans —
	// exportable as Chrome trace-event JSON (Recorder.WriteTrace) for
	// Perfetto. Worker goroutines additionally carry als_dispatch/als_phase
	// pprof labels while a timeline is attached. A nil Timeline costs
	// nothing (one predictable branch per dispatch) and the recorded
	// computation is bit-identical either way.
	Timeline *timeline.Recorder

	// verifyIncremental cross-checks the incremental engine against a
	// rebuild from scratch every iteration: the cached candidate list and
	// (for the batch estimator) the refreshed CPM against a fresh gather
	// and build, and after every accepted edit the engine's value table
	// and error state against a fresh core.NewEngine of the edited
	// network. Any divergence aborts the run with an error. Test-only
	// paranoia hook — quadratically expensive.
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

// Check validates a run's inputs before any work starts, so that bad
// input is an error instead of a panic mid-run: the budget (wrapping
// flow.ErrBadThreshold or flow.ErrNoPatterns), a Patterns override that
// is empty or sized for another input count, the golden network's
// structure, and the AEM limit of 63 outputs. flowName prefixes the
// errors. Call it after the budget defaults are filled.
func (cfg *Config) Check(flowName string, golden *circuit.Network) error {
	if err := cfg.Budget.Validate(flowName); err != nil {
		return err
	}
	if p := cfg.Patterns; p != nil {
		if p.NumPatterns() == 0 {
			return fmt.Errorf("%s: %w: empty Patterns override", flowName, flow.ErrNoPatterns)
		}
		if p.NumInputs() != golden.NumInputs() {
			return fmt.Errorf("%s: Patterns override has %d inputs, network has %d",
				flowName, p.NumInputs(), golden.NumInputs())
		}
	}
	if err := golden.Validate(); err != nil {
		return fmt.Errorf("%s: invalid input network: %w", flowName, err)
	}
	if cfg.Metric == core.MetricAEM && golden.NumOutputs() > 63 {
		return fmt.Errorf("%s: AEM flow needs <= 63 outputs, have %d", flowName, golden.NumOutputs())
	}
	return nil
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
	// Phases is the per-phase wall-time (and, when a Metrics registry was
	// configured, allocation) breakdown of the whole run across the five
	// flow phases.
	Phases obs.PhaseReport
}

// AreaRatio returns FinalArea / OriginalArea.
func (r *Result) AreaRatio() float64 {
	if r.OriginalArea == 0 {
		return 1
	}
	return r.FinalArea / r.OriginalArea
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

	// Scoring reuse: candidates that ran the full kernel, and candidates
	// whose carried pattern sum was reused (corrected or as is).
	rescored *obs.Counter
	reused   *obs.Counter
	// gatherPairs counts the pairs the gathers compared on the patterns.
	gatherPairs *obs.Counter

	// emitCands caches obs.WantsCandidates(tracer): when the attached
	// tracer declines the candidate firehose (a StreamTracer, a
	// FlightRecorder, a JSONLTracer with EmitCandidates off), the scoring
	// loop skips building CandidateInfo — including the name lookups —
	// entirely, which keeps the per-candidate path allocation-identical to
	// the nil-tracer path even with live subscribers attached.
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
		o.rescored = reg.Counter("sasimi_score_rescored_total")
		o.reused = reg.Counter("sasimi_score_reused_total")
		o.gatherPairs = reg.Counter("sasimi_gather_pairs_total")
		if o.erMetric {
			o.conf = obs.NewRunStats(reg, "sasimi", cfg.Threshold)
		}
	}
	return o
}

func (o *runObs) candidateScored(iter int, c *choice, e scored) {
	if o == nil {
		return
	}
	if o.cands != nil {
		o.cands.Inc()
	}
	if o.emitCands {
		o.tracer.OnCandidate(obs.CandidateInfo{
			Iter:     iter,
			Target:   o.net.NameOf(c.target),
			Sub:      subName(o.net, c),
			Inverted: c.kind() == kindInverted,
			Delta:    e.delta,
			Gain:     c.gain,
			Score:    e.score,
			Exact:    e.exact,
		})
	}
}

func (o *runObs) verified(batchDelta, exactDelta float64, wasExact bool) {
	if o == nil {
		return
	}
	if o.verifyDrift != nil {
		o.verifyDrift.Record(batchDelta, exactDelta, wasExact)
	}
}

// scoringPass records one iteration's scoring: rescored candidates ran
// the full kernel, reused ones kept their carried pattern sum.
func (o *runObs) scoringPass(rescored, reused int) {
	if o == nil || o.rescored == nil {
		return
	}
	o.rescored.Add(int64(rescored))
	o.reused.Add(int64(reused))
}

// gathered records the pairs one gather compared on the patterns.
func (o *runObs) gathered(pairs int) {
	if o == nil || o.gatherPairs == nil {
		return
	}
	o.gatherPairs.Add(int64(pairs))
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
	if err := cfg.Check("sasimi", golden); err != nil {
		return nil, err
	}

	// Per-phase allocation deltas (ReadMemStats per phase span) feed only
	// the registry's counters and the Mem field of Result.Phases, so only
	// a metered run pays for them.
	prof := timeline.NewProfile(cfg.Timeline, cfg.Metrics != nil)

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

	// The engine carries net+vals+error-state+CPM across iterations. It
	// starts on an unedited copy of golden, so its first simulation also
	// yields the golden outputs.
	sp = prof.Begin(obs.PhaseSimulate)
	approx := golden.Clone()
	eng := core.NewEngine(approx, nil, patterns, cfg.Metric, pool)
	goldenOut := eng.St.U
	prof.End(sp)

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
	var sscratch scoreScratch
	var entries []scored // scored-entry buffer, reused iteration after iteration

	// The gather cache carries candidate enumeration state across
	// iterations. After an accept, pendingEdit/pendingChanged describe the
	// surgery for the next iteration's cache update.
	var (
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
		cfg.Timeline.SetIter(iter)
		tli := cfg.Timeline.Start("iteration", obs.PhaseEstimate)

		vals, st := eng.Vals, eng.St
		curErr := cfg.Metric.Value(st)
		res.FinalError = curErr

		ictx := &iterContext{net: approx, vals: vals, st: st, metric: cfg.Metric,
			engine: eng, goCtx: goCtx}
		sp = prof.Begin(obs.PhaseCPMBuild)
		est.prepare(ictx)
		prof.End(sp)
		if ictx.cpm != nil {
			if stats, full := eng.LastRefresh(); !full {
				o.cpmRefreshed(stats)
			}
		}

		sp = prof.Begin(obs.PhaseEstimate)
		arrival := cfg.Library.NodeArrival(approx)
		invDelay := cfg.Library.GateDelay(circuit.KindNot)
		env := newGatherEnv(approx, vals, &cfg, arrival, invDelay, adm)
		var store *candStore
		var pairs int
		var gerr error
		if cache == nil {
			cache = &gatherCache{}
			store, pairs, gerr = cache.full(goCtx, env, pool)
		} else {
			store, pairs, gerr = cache.update(goCtx, env, pendingEdit, pendingChanged, pool)
		}
		o.gathered(pairs)
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
		if cfg.verifyIncremental {
			if err := crossCheckIncremental(env, pool, store, ictx.cpm); err != nil {
				prof.End(sp)
				return nil, err
			}
		}
		if store.len() == 0 {
			prof.End(sp)
			cfg.Timeline.End(tli)
			o.iteration(iter, curErr, 0, 0, false, time.Since(iterStart))
			break
		}

		// Estimate the increased error of every candidate (the batch step)
		// and pick the best feasible one by ΔArea/ΔError score. best indexes
		// feasible, the scored entries of the candidates within budget.
		best, feasible := scoreCandidatesMaybeSharded(ictx, est, store, entries, curErr, cfg.Threshold,
			scratch, change, &sscratch, pool, o, iter)
		entries = feasible
		prof.End(sp)
		if err := goCtx.Err(); err != nil {
			runErr = err
			break loop
		}
		if cfg.verifyIncremental {
			if err := crossCheckScores(ictx, est, store, best, feasible, curErr, cfg.Threshold); err != nil {
				return nil, err
			}
		}

		sp = prof.Begin(obs.PhaseVerifyApply)
		if cfg.VerifyTopK > 0 && cfg.Estimator != EstimatorFull && len(feasible) > 0 {
			tlv := cfg.Timeline.Start("sasimi.verify_topk", obs.PhaseVerifyApply)
			var verr error
			best, verr = verifyTopK(goCtx, approx, vals, st, &cfg, store, feasible, curErr, &vscratch, pool, o)
			cfg.Timeline.End(tlv)
			if verr != nil {
				prof.End(sp)
				runErr = verr
				break loop
			}
		}
		if best == -1 {
			prof.End(sp)
			cfg.Timeline.End(tli)
			o.iteration(iter, curErr, store.len(), len(feasible), false, time.Since(iterStart))
			break // nothing fits in the remaining budget
		}
		pick := feasible[best]
		chosen := store.at(int(pick.idx))

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

		// Measure the actual error on the same pattern set: resimulate only
		// the edit's fanout cones in place and refresh the error state —
		// bit-identical to a full resimulation by construction.
		tlm := cfg.Timeline.Start("sasimi.measure", obs.PhaseVerifyApply)
		resimmed, valsChanged := eng.Apply(ed)
		o.resimmed(len(resimmed))
		pendingEdit, pendingChanged = &ed, valsChanged
		actual := cfg.Metric.Value(eng.St)
		wrongCount := int64(eng.St.WrongAny.Count())
		cfg.Timeline.End(tlm)
		if cfg.verifyIncremental {
			if err := crossCheckEngine(eng, goldenOut, patterns, cfg.Metric, pool); err != nil {
				prof.End(sp)
				return nil, err
			}
		}
		predicted := curErr + pick.delta
		if actual > cfg.Threshold+1e-12 {
			// The estimate was wrong and the budget is blown: restore the
			// previous circuit and stop, as the paper's flow does. The
			// engine's derived state is stale for the restored circuit, but
			// the flow ends here so nothing reads it again.
			*approx = *backup
			prof.End(sp)
			o.rolledBack()
			cfg.Timeline.End(tli)
			o.iteration(iter, curErr, store.len(), len(feasible), false, time.Since(iterStart))
			break
		}
		prof.End(sp)

		estAccum += pick.delta
		res.NumIterations++
		res.FinalArea = cfg.Library.NetworkArea(approx)
		res.FinalError = actual
		targetName := backup.NameOf(chosen.target)
		subN := subName(backup, &chosen)
		inverted := chosen.kind() == kindInverted
		cfg.Timeline.Mark("accept", obs.PhaseVerifyApply)
		o.accepted(iter, targetName, subN, inverted, predicted, actual, pick.exact, res.FinalArea,
			pick.delta, wrongCount, int64(patterns.NumPatterns()))
		cfg.Timeline.End(tli)
		o.iteration(iter, curErr, store.len(), len(feasible), true, time.Since(iterStart))
		if cfg.KeepTrace {
			res.Iterations = append(res.Iterations, IterationRecord{
				Iter:       iter,
				Target:     targetName,
				Sub:        subN,
				Inverted:   inverted,
				EstGain:    chosen.gain,
				EstDelta:   pick.delta,
				EstAccum:   estAccum,
				ActualErr:  actual,
				Area:       res.FinalArea,
				Candidates: store.len(),
				Feasible:   len(feasible),
				Exact:      pick.exact,
				Drift:      actual - predicted,
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

// crossCheckIncremental is the verifyIncremental paranoia pass over an
// iteration's estimation inputs: it rebuilds the candidate store (and,
// when present, the CPM; see core.CPM.CheckRebuild) from scratch and
// compares against the incremental results candidate by candidate:
// target, record and derived gain.
func crossCheckIncremental(env *gatherEnv, pool *par.Pool, store *candStore, cpm *core.CPM) error {
	full, _, err := gather(context.Background(), env, pool, nil)
	if err != nil {
		return err
	}
	if full.len() != store.len() {
		return fmt.Errorf("sasimi: incremental gather diverged: %d candidates vs %d full", store.len(), full.len())
	}
	a, b := segCursor{segs: store.segs}, segCursor{segs: full.segs}
	for i := 0; i < full.len(); i++ {
		sa, sb := a.seek(i), b.seek(i)
		ca, cb := sa.choice(i-int(sa.pos), store.invArea), sb.choice(i-int(sb.pos), full.invArea)
		if ca != cb {
			return fmt.Errorf("sasimi: incremental gather diverged at candidate %d: %+v vs full %+v", i, ca, cb)
		}
	}
	if cpm != nil {
		if err := cpm.CheckRebuild(pool); err != nil {
			return fmt.Errorf("sasimi: incremental CPM diverged: %w", err)
		}
	}
	return nil
}

// crossCheckScores is the verifyIncremental paranoia pass over a batch
// estimator's scoring: the sequential reference scoreCandidates rescores
// every candidate from scratch with DeltaER or DeltaAEM on a full CPM
// built afresh, and each candidate's carried pattern sum, the feasible
// entries — Delta, Score and Exact — and the chosen index must match bit
// for bit.
func crossCheckScores(ctx *iterContext, est estimator, store *candStore, best int, feasible []scored,
	curErr, threshold float64) error {

	if _, ok := est.(*batchEstimator); !ok {
		return nil
	}
	est = referenceEstimator(ctx)
	m := ctx.vals.M
	scratch, change := bitvec.New(m), bitvec.New(m)
	refBest, refFeasible := scoreCandidates(est, store, nil, ctx.vals, curErr, threshold, scratch, change, nil, 0)
	if refBest != best || len(refFeasible) != len(feasible) {
		return fmt.Errorf("sasimi: incremental scoring diverged: best %d of %d feasible vs reference %d of %d",
			best, len(feasible), refBest, len(refFeasible))
	}
	for i := range refFeasible {
		if feasible[i] != refFeasible[i] {
			return fmt.Errorf("sasimi: incremental scoring diverged at feasible entry %d: %+v vs reference %+v",
				i, feasible[i], refFeasible[i])
		}
	}
	_, all := scoreCandidates(est, store, nil, ctx.vals, 0, math.Inf(1), scratch, change, nil, 0)
	for _, e := range all {
		sg, j := store.find(int(e.idx))
		var got float64
		if ctx.metric == core.MetricAEM {
			got = store.aem.of(sg)[j] / float64(m)
		} else {
			got = float64(store.er.of(sg)[j]) / float64(m)
		}
		if got != e.delta {
			return fmt.Errorf("sasimi: carried pattern sum of candidate %d diverged: delta %v vs reference %v", e.idx, got, e.delta)
		}
	}
	return nil
}

// crossCheckEngine is the verifyIncremental paranoia pass after an
// accepted edit: a fresh core.NewEngine of the edited network must agree
// with the engine's in-place state — every live node's value vector and
// the error state's V, W and WrongAny.
func crossCheckEngine(eng *core.Engine, goldenOut *bitvec.Matrix, patterns *sim.Patterns, metric core.Metric,
	pool *par.Pool) error {

	fresh := core.NewEngine(eng.Net, goldenOut, patterns, metric, pool)
	for _, id := range eng.Net.LiveNodes() {
		if !eng.Vals.Node(id).Equal(fresh.Vals.Node(id)) {
			return fmt.Errorf("sasimi: incremental value table diverged at node %d", id)
		}
	}
	for o := 0; o < fresh.St.V.Rows(); o++ {
		if !eng.St.V.Row(o).Equal(fresh.St.V.Row(o)) || !eng.St.W.Row(o).Equal(fresh.St.W.Row(o)) {
			return fmt.Errorf("sasimi: incremental error state diverged at output %d", o)
		}
	}
	if !eng.St.WrongAny.Equal(fresh.St.WrongAny) {
		return fmt.Errorf("sasimi: incremental WrongAny diverged")
	}
	return nil
}

// checkAcyclic closes the documented ReplaceFanin gap: circuit editing
// does not itself forbid a substitution that closes a combinational loop
// (the gather screens for it, but the screen and the surgery are
// separate code paths). Under Config.CheckInvariants every accepted
// substitution is re-checked here, turning what would be a TopoOrder
// panic inside the next simulation into an error that names the cycle.
func checkAcyclic(approx, backup *circuit.Network, c *choice) error {
	cyc := analyze.FindCycle(approx)
	if cyc == nil {
		return nil
	}
	return fmt.Errorf("sasimi: substituting %s <- %s created combinational cycle %s",
		backup.NameOf(c.target), subName(backup, c), cycleNames(approx, cyc))
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

// scoreCandidates runs the batch estimation inner loop: it estimates every
// candidate and returns the scored entries of the feasible ones, in list
// order and appended to buf[:0], plus the index among them of the best
// one, the candCompare-first of equal best scores (-1 if none fits the
// remaining budget). With o == nil this is
// exactly the pre-observability hot loop — TestNilTracerScoringAllocs
// pins that it allocates nothing beyond the estimator's own scratch work.
// The batch estimator's CPM queries are counted once for the whole pass.
//
//als:allocfree
func scoreCandidates(est estimator, store *candStore, buf []scored, vals *sim.Values,
	curErr, threshold float64, scratch, change *bitvec.Vec, o *runObs, iter int) (int, []scored) {

	best := -1
	var bc choice
	feasible := buf[:0]
	for k := range store.segs {
		sg := &store.segs[k]
		for j := range sg.recs {
			c := sg.choice(j, store.invArea)
			sub := c.substituteValue(vals, scratch)
			change.Xor(vals.Node(c.target), sub)
			delta := est.delta(c.target, sub, change)
			e := scored{idx: sg.pos + int32(j), delta: delta, score: score(c.gain, delta, vals.M), exact: est.exactFor(c.target)}
			o.candidateScored(iter, &c, e)
			if curErr+delta > threshold+1e-12 {
				continue // estimated to bust the budget
			}
			feasible = append(feasible, e) //als:alloc-ok amortised grow of the returned entries; the pin's baseline absorbs it
			if best == -1 || better(&c, e, &bc, feasible[best]) {
				best, bc = len(feasible)-1, c
			}
		}
	}
	if be, ok := est.(*batchEstimator); ok {
		core.CountDeltaQueries(be.ctx.metric, store.len())
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

func subName(n *circuit.Network, c *choice) string {
	switch c.kind() {
	case kindConst1:
		return "const1"
	case kindConst0:
		return "const0"
	}
	return n.NameOf(c.sub())
}

// applyCandidate performs the netlist surgery for an accepted candidate and
// returns the structural edit record the incremental engine consumes: the
// replacement signal, the nodes rewired onto it (the target's former
// fanouts, captured before the rewiring), any added node, and the swept
// region with its live boundary.
func applyCandidate(net *circuit.Network, c *choice) core.Edit {
	var ed core.Edit
	var repl circuit.NodeID
	switch c.kind() {
	case kindConst1, kindConst0:
		repl = net.AddConst(c.kind() == kindConst1)
		ed.Added = []circuit.NodeID{repl}
	case kindInverted:
		repl = net.AddGate(circuit.KindNot, c.sub())
		ed.Added = []circuit.NodeID{repl}
	default:
		repl = c.sub()
	}
	ed.Repl = repl
	ed.Rewired = append([]circuit.NodeID(nil), net.Fanouts(c.target)...)
	net.ReplaceNode(c.target, repl)
	ed.Removed, ed.Boundary = net.SweepFromCollect(c.target)
	return ed
}

// EstimateAll exposes the batch estimation step in isolation: it returns
// every admissible candidate of the network, in the flow's candidate list
// order — by target, then substitute (constants first, constant 1 before
// constant 0), plain before inverted — with Delta, Score and Exact filled
// in by the selected estimator, without applying anything. It scores with
// no budget, so no candidate is left unestimated. The facade and the examples use it to demonstrate
// pure batch estimation. Its inputs are checked as RunContext checks them
// (see Config.Check), and approx must be a valid network with golden's
// input and output counts.
func EstimateAll(golden, approx *circuit.Network, cfg Config) ([]Candidate, error) {
	cfg.fillDefaults()
	if err := cfg.Check("sasimi", golden); err != nil {
		return nil, err
	}
	if err := approx.Validate(); err != nil {
		return nil, fmt.Errorf("sasimi: invalid approximate network: %w", err)
	}
	if approx.NumInputs() != golden.NumInputs() || approx.NumOutputs() != golden.NumOutputs() {
		return nil, fmt.Errorf("sasimi: approximate network has %d inputs and %d outputs, golden has %d and %d",
			approx.NumInputs(), approx.NumOutputs(), golden.NumInputs(), golden.NumOutputs())
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
	eng := core.NewEngine(approx, sim.OutputMatrix(golden, goldenVals), patterns, cfg.Metric, pool)
	vals := eng.Vals

	est := newEstimator(cfg.Estimator)
	ctx := &iterContext{net: approx, vals: vals, st: eng.St, metric: cfg.Metric, engine: eng}
	est.prepare(ctx)

	arrival := cfg.Library.NodeArrival(approx)
	adm := newAdmission(vals.M, cfg.SimilarityCap)
	env := newGatherEnv(approx, vals, &cfg, arrival, cfg.Library.GateDelay(circuit.KindNot), adm)
	store, _, err := gather(context.Background(), env, pool, nil)
	if err != nil {
		return nil, err
	}
	scratch := bitvec.New(patterns.NumPatterns())
	change := bitvec.New(patterns.NumPatterns())
	o := newRunObs(&cfg, approx)
	_, scores := scoreCandidatesMaybeSharded(ctx, est, store, make([]scored, 0, store.len()),
		0, math.Inf(1), scratch, change, &scoreScratch{}, pool, o, 1)
	out := make([]Candidate, store.len())
	for k := range store.segs {
		sg := &store.segs[k]
		for j := range sg.recs {
			c := sg.choice(j, store.invArea)
			out[int(sg.pos)+j] = adm.view(&c)
		}
	}
	for _, e := range scores {
		c := &out[e.idx]
		c.Delta, c.Score, c.Exact = e.delta, e.score, e.exact
	}
	return out, nil
}

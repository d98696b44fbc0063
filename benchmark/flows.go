package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"batchals"
	"batchals/internal/cell"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/sim"
)

// Held-out measurement: heldoutPatterns independent patterns per input,
// simulated in chunks so the measurement never dominates peak memory.
const (
	heldoutPatterns = 100_000
	heldoutChunk    = 10_000
	heldoutOffset   = 1_000_003 // seed offset from the flow's pattern seed
)

// flowRunner runs and checks the flows of one workload.
type flowRunner struct {
	spec   flowSpec
	inputs []flowInput
	// first holds each input's first checked result, hash its netlist
	// hash; later repetitions must reproduce it.
	first []*batchals.Result
	hash  [][32]byte

	attempted, failed int
}

func newFlowRunner(spec flowSpec, inputs []flowInput) *flowRunner {
	return &flowRunner{
		spec:   spec,
		inputs: inputs,
		first:  make([]*batchals.Result, len(inputs)),
		hash:   make([][32]byte, len(inputs)),
	}
}

// flow runs input i once, traced when rec is non-nil.
func (r *flowRunner) flow(ctx context.Context, i int, rec *batchals.TimelineRecorder, reg *batchals.Metrics) (*batchals.Result, *batchals.PartitionReport, time.Duration, error) {
	o := r.spec.options(r.inputs[i])
	o.KeepTrace = rec != nil
	f := batchals.NewFlow(r.inputs[i].golden, o)
	if rec != nil {
		f.WithTimeline(rec).WithMetrics(reg)
	}
	t0 := time.Now()
	res, err := f.Run(ctx)
	return res, f.PartitionReport(), time.Since(t0), err
}

// check counts one attempted flow and reports whether it was correct.
func (r *flowRunner) check(i int, res *batchals.Result, err error) bool {
	r.attempted++
	if err == nil {
		err = r.verify(i, res)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "%s: input %d: %v\n", r.spec.name, i, err)
		return false
	}
	return true
}

// verify checks a flow result against what the library promises: a valid
// netlist, a FinalError equal to a fresh measurement on the regenerated
// flow patterns and within the threshold, a FinalArea equal to the
// library's area of the returned netlist, and the same netlist on every
// repetition of the input.
func (r *flowRunner) verify(i int, res *batchals.Result) error {
	in := r.inputs[i]
	if err := res.Approx.Validate(); err != nil {
		return fmt.Errorf("invalid netlist: %w", err)
	}
	o := r.spec.opts
	p := sim.RandomPatterns(in.golden.NumInputs(), o.NumPatterns, in.seed)
	got := errorOf(o.Metric, emetric.Measure(in.golden, res.Approx, p))
	if math.Abs(got-res.FinalError) > 1e-12 {
		return fmt.Errorf("FinalError %g, measured %g on the flow patterns", res.FinalError, got)
	}
	if got > o.Threshold+1e-12 {
		return fmt.Errorf("measured error %g over threshold %g", got, o.Threshold)
	}
	if area := cell.Default().NetworkArea(res.Approx); area != res.FinalArea {
		return fmt.Errorf("FinalArea %g, netlist area %g", res.FinalArea, area)
	}
	h := sha256.Sum256([]byte(res.Approx.Dump()))
	if r.first[i] == nil {
		r.first[i], r.hash[i] = res, h
	} else if h != r.hash[i] {
		return fmt.Errorf("netlist differs from the input's first run")
	}
	return nil
}

func errorOf(m batchals.Metric, rep emetric.Report) float64 {
	if m == batchals.AvgErrorMagnitude {
		return rep.AvgErrMag
	}
	return rep.ErrorRate
}

// quality is the mean outcome over every input's first result.
type quality struct {
	areaSavedPct float64 // mean area removed, % of the original
	finalErr     float64 // mean FinalError
	heldoutErr   float64 // mean held-out error (the workload's metric)
	heldoutERHi  float64 // worst 95% Wilson upper bound on held-out ER
}

// measureQuality takes the mean outcome of every input's first result and,
// when heldout is set, measures each on held-out patterns (the per-layer
// quality metrics; on a 20 000-gate circuit that takes seconds). It needs
// every input to have run.
func (r *flowRunner) measureQuality(heldout bool) (quality, error) {
	var q quality
	for i, res := range r.first {
		if res == nil {
			return q, fmt.Errorf("input %d never completed", i)
		}
		q.areaSavedPct += 100 * (res.OriginalArea - res.FinalArea) / res.OriginalArea
		q.finalErr += res.FinalError
		if !heldout {
			continue
		}
		h := measureHeldout(r.inputs[i], res.Approx)
		if r.spec.opts.Metric == batchals.AvgErrorMagnitude {
			q.heldoutErr += h.aem()
		} else {
			q.heldoutErr += h.errorRate()
		}
		q.heldoutERHi = math.Max(q.heldoutERHi, h.erUpper())
	}
	n := float64(len(r.first))
	q.areaSavedPct /= n
	q.finalErr /= n
	q.heldoutErr /= n
	return q, nil
}

// record writes the per-layer quality metrics.
func (q quality) record(m map[string]float64, threshold float64) {
	m["heldout_err_ratio"] = q.heldoutErr / threshold
	m["heldout_er_hi"] = q.heldoutERHi
	m["final_err"] = q.finalErr
}

// heldoutSeed is the pattern seed of chunk c of an input's held-out set.
func heldoutSeed(in flowInput, c int) int64 {
	return in.seed + heldoutOffset + 100_000*int64(c)
}

func measureHeldout(in flowInput, approx *batchals.Network) heldout {
	var h heldout
	for c := 0; c < heldoutPatterns/heldoutChunk; c++ {
		p := sim.RandomPatterns(in.golden.NumInputs(), heldoutChunk, heldoutSeed(in, c))
		rep := emetric.Measure(in.golden, approx, p)
		h.add(rep.ErrorRate, rep.AvgErrMag, heldoutChunk)
	}
	return h
}

// timedFlows is the untraced measurement: after one untimed warm-up flow,
// flows over the inputs in turn, for at least the window and at least
// once per input plus one repetition. Each flow starts on a collected
// heap whose free pages went back to the OS, so it pays for its own
// garbage and not its predecessor's, and with the kernel's peak-RSS mark
// reset, so its peak is the process's resident base (binary, runtime,
// the workload's inputs and first results) plus what the flow itself
// holds. The host's speed is calibrated just before and just after each
// flow (calib.go).
func (r *flowRunner) timedFlows(ctx context.Context, window time.Duration) (*flowTimes, error) {
	res, _, _, ferr := r.flow(ctx, 0, nil, nil)
	r.check(0, res, ferr)
	t := &flowTimes{}
	var wall, before []float64 // of every flow run, correct or not
	var ok []bool
	start := time.Now()
	for op := 0; op <= len(r.inputs) || time.Since(start) < window; op++ {
		i := op % len(r.inputs)
		debug.FreeOSMemory()
		before = append(before, hostFactor(3))
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		res, _, w, ferr := r.flow(ctx, i, nil, nil)
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		wall = append(wall, ms(w))
		ok = append(ok, r.check(i, res, ferr))
		if ok[op] {
			t.peak = append(t.peak, peak)
		}
		if ctx.Err() != nil {
			break
		}
	}
	// The calibration before flow k+1 is also the one after flow k.
	after := append(slices.Clone(before[1:]), hostFactor(3))
	for k := range wall {
		if ok[k] {
			f := bracket(before[k], after[k])
			t.wall = append(t.wall, wall[k])
			t.scaled = append(t.scaled, wall[k]*f)
			t.factor = append(t.factor, f)
		}
	}
	return t, nil
}

// flowTimes are the correct flows of a timed measurement: wall time in
// ms as measured and scaled to the reference speed, the host factor that
// scaled it, and peak RSS in MB.
type flowTimes struct {
	wall, scaled, factor, peak []float64
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current RSS (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the peak RSS since the last reset, in MB.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}

// phaseMB names the per-phase allocation metrics.
var phaseMB = []struct {
	name  string
	phase obs.Phase
}{
	{"phase.simulate_mb", obs.PhaseSimulate},
	{"phase.cpm_build_mb", obs.PhaseCPMBuild},
	{"phase.estimate_mb", obs.PhaseEstimate},
	{"phase.verify_apply_mb", obs.PhaseVerifyApply},
}

// flowCounters maps per-layer metrics to the registry counters they sum.
// A monolithic traced flow registers every one of them, so a missing name
// means the library renamed or dropped it, and the traced run fails
// instead of reporting 0.
var flowCounters = map[string]string{
	"rollbacks":        "sasimi_rollbacks_total",
	"resim_nodes":      "sasimi_resim_nodes_total",
	"cpm.refresh_rows": "sasimi_cpm_refresh_rows_total",
}

// perFlow are the per-layer metrics reported as a mean per traced flow.
var perFlow = []string{
	"iterations", "rollbacks", "resim_nodes", "cpm.refresh_rows",
	"phase.simulate_mb", "phase.cpm_build_mb", "phase.estimate_mb", "phase.verify_apply_mb",
	"partition.parts", "partition.rounds", "partition.reverted", "partition.reclaimed",
}

// tracedFlows is the traced measurement. Each step runs one input
// untraced and traced, alternating which goes first; check requires both
// to reproduce the input's netlist, so tracing cannot change a result.
// Traced flows feed the per-layer ledger, untraced ones the allocation
// counts and the tracing overhead. It returns the last traced recorder.
func (r *flowRunner) tracedFlows(ctx context.Context, window time.Duration, m map[string]float64) *batchals.TimelineRecorder {
	led := newLedger(workers)
	var (
		overhead, allocMB, mallocs []float64
		traced                     float64
		rec                        *batchals.TimelineRecorder
		sums                       = map[string]float64{}
		cands, feasible, iters     float64
	)
	start := time.Now()
	for op := 0; op < len(r.inputs) || time.Since(start) < window; op++ {
		i := op % len(r.inputs)
		var plain, tr time.Duration
		var okPlain, okTraced bool
		runPlain := func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, _, wall, err := r.flow(ctx, i, nil, nil)
			runtime.ReadMemStats(&after)
			plain = wall
			if okPlain = r.check(i, res, err); okPlain {
				allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
				mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
			}
		}
		runTraced := func() {
			rec = batchals.NewTimeline(workers)
			reg := batchals.NewMetrics()
			res, rep, wall, err := r.flow(ctx, i, rec, reg)
			tr = wall
			if okTraced = r.check(i, res, err); !okTraced {
				return
			}
			led.add(rec.Snapshot(), rec.Dropped(), wall.Nanoseconds())
			traced++
			sums["iterations"] += float64(res.NumIterations)
			if rep == nil || rep.NumParts <= 1 {
				// The partitioned flow leaves the registry to its parts'
				// engines, which run without one.
				counters := reg.Snapshot().Counters
				for name, counter := range flowCounters {
					v, ok := counters[counter]
					if !ok {
						r.failed++
						fmt.Fprintf(os.Stderr, "%s: the flow registered no counter %s (for %s)\n", r.spec.name, counter, name)
					}
					sums[name] += float64(v)
				}
			}
			for _, it := range res.Iterations {
				cands += float64(it.Candidates)
				feasible += float64(it.Feasible)
				iters++
			}
			for _, p := range phaseMB {
				sums[p.name] += float64(res.Phases.Stats[p.phase].Mem.Bytes) / (1 << 20)
			}
			if rep != nil && rep.NumParts > 1 {
				sums["partition.parts"] += float64(rep.NumParts)
				sums["partition.rounds"] += float64(rep.Rounds)
				sums["partition.reverted"] += float64(rep.Reverted)
				sums["partition.reclaimed"] += rep.Reclaimed
			}
		}
		if op%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		if okPlain && okTraced {
			overhead = append(overhead, tr.Seconds()/plain.Seconds()-1)
		}
		if ctx.Err() != nil {
			break
		}
	}
	led.metrics(m)
	for _, name := range perFlow {
		m[name] = ratio(sums[name], traced)
	}
	m["cands_per_iter"] = ratio(cands, iters)
	m["feasible_frac"] = ratio(feasible, cands)
	m["trace_overhead"] = median(overhead)
	m["flow.alloc_mb"] = median(allocMB)
	m["flow.mallocs"] = median(mallocs)
	return rec
}

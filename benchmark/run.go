package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"batchals/internal/obs/timeline"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	window   time.Duration // --seconds
	trace    bool
	alsd     string // alsd binary
	traceDir string // where Perfetto traces go ("" = not written)
}

// Set-up is timed in setupBatches batches. A batch repeats the set-up
// until setupBatch of set-up time has passed and yields the mean; the
// median batch is reported. A set-up of a millisecond or two, timed on
// its own, reads the timer and the scheduler as much as the set-up.
const (
	setupBatches = 5
	setupBatch   = 50 * time.Millisecond
)

// timeSetup runs setup, which returns how long its timed part took, in
// batches and returns the median batch mean in seconds. When calibrated,
// each batch is scaled to the reference speed by a calibration just
// before it (calib.go).
func timeSetup(calibrated bool, setup func() (time.Duration, error)) (float64, error) {
	means := make([]float64, setupBatches)
	for b := range means {
		factor := 1.0
		if calibrated {
			factor = hostFactor(5)
		}
		var spent time.Duration
		n := 0
		for n == 0 || spent < setupBatch {
			d, err := setup()
			if err != nil {
				return 0, err
			}
			spent += d
			n++
		}
		means[b] = spent.Seconds() / float64(n) * factor
	}
	return median(means), nil
}

// outcome is what one invocation reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, name string, cfg runConfig) (*outcome, error) {
	if name == serveJob.name {
		return runServe(ctx, cfg)
	}
	spec, ok := flowWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return runFlows(ctx, spec, cfg)
}

func runFlows(ctx context.Context, spec flowSpec, cfg runConfig) (*outcome, error) {
	inputs, err := spec.prepare(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	r := newFlowRunner(spec, inputs)
	if !cfg.trace {
		m["setup_s"], err = timeSetup(true, func() (time.Duration, error) {
			t0 := time.Now()
			_, err := spec.prepare(cfg.seed)
			return time.Since(t0), err
		})
		if err != nil {
			return nil, err
		}
		t, err := r.timedFlows(ctx, cfg.window)
		if err != nil {
			return nil, err
		}
		m["latency_p50_ms"] = median(t.scaled)
		m["peak_rss_mb"] = median(t.peak)
		fmt.Printf("# %s: %d flows over %d inputs, latency p50 %.1f ms at reference speed, tail %s; measured p50 %.1f ms, host factor %.3f\n",
			spec.name, len(t.scaled), len(inputs), median(t.scaled), tail(t.scaled), median(t.wall), median(t.factor))
	} else {
		// Each step of the traced measurement runs two flows; half the
		// window keeps a traced run about as long as an untraced one.
		if err := traceLayers(ctx, cfg, r, cfg.window/2, out); err != nil {
			return nil, err
		}
	}
	q, err := r.measureQuality(cfg.trace)
	if err != nil {
		out.fail("%s: %v", spec.name, err)
	}
	m["area_saved_pct"] = q.areaSavedPct
	out.attempted += r.attempted
	out.failed += r.failed

	if cfg.trace {
		q.record(m, spec.opts.Threshold)
		// The regression gate requires that "with --trace 1 the metrics
		// are every per_layer metric", on every workload, so a flow
		// workload reports the serve metrics too. They come from one
		// daemon and alsd-open's traffic with the 30 and 300 jobs/s steps
		// halved; the 80 jobs/s step keeps its length, so its p95 still
		// has ten samples beyond it. They do not depend on the flow
		// workload: here they are a repeat of alsd-open's, the control
		// that flow-layer changes should not move.
		steps := alsdSteps(cfg.window)
		steps[1].dur /= 2
		steps[3].dur /= 2
		so, _, err := serveRun(ctx, cfg.alsd, openRunsMax, openLoop(ctx, cfg.seed, steps))
		if err != nil {
			return nil, err
		}
		out.attempted += len(so.sent)
		out.failed += so.failed
		serve := map[string]float64{}
		so.serveMetrics(serve)
		for _, l := range layerMetrics {
			if v, ok := serve[l.name]; ok {
				m[l.name] = v
			}
		}
	}
	return out, nil
}

// traceLayers runs r's traced measurement for the window and then the
// layer probes on its first input, and writes both Perfetto traces.
func traceLayers(ctx context.Context, cfg runConfig, r *flowRunner, window time.Duration, out *outcome) error {
	rec := r.tracedFlows(ctx, window, out.metrics)
	for _, name := range missingShares(r.spec.name, out.metrics) {
		out.fail("%s: %s reads 0 on a workload it should move: are its spans still recorded under the names in spans.go?", r.spec.name, name)
	}
	if err := writeTrace(cfg, r.spec.name+".flow", rec); err != nil {
		return err
	}
	probes := timeline.NewRecorder(workers+1, 0)
	out.attempted++
	if r.first[0] == nil {
		out.fail("%s: probe: the first input never completed", r.spec.name)
	} else if err := runProbes(r.spec, r.inputs[0], r.first[0].Approx, probes, out.metrics); err != nil {
		out.fail("%s: probe: %v", r.spec.name, err)
	}
	return writeTrace(cfg, r.spec.name+".probes", probes)
}

// alsdSteps is the open-loop schedule of alsd-open's traced runs for a
// run window w: warm-up, then 30 jobs/s, 80 jobs/s and an overload of 300
// jobs/s, about 20%, 55% and 200% of the daemon's capacity on a 2-CPU
// host. How long a job waits there depends on how close the host runs to
// capacity, which is why the end-to-end latency comes from a closed loop
// instead (closedLoop).
func alsdSteps(w time.Duration) []step {
	return []step{
		{label: "warm", rate: 50, dur: w / 25},
		{label: "r30", rate: 30, dur: w * 3 / 10, measure: true},
		{label: "r80", rate: 80, dur: w * 4 / 10, measure: true},
		{label: "over", rate: 300, dur: w * 3 / 10, measure: true},
	}
}

// rerunJobs is how many alsd jobs are re-run in-process to check the
// daemon's answers and to measure the quality of what it delivered.
const rerunJobs = 40

// Finished runs alsd retains: every one under the open loop, whose
// traces are read after the drain; few under the closed loop, which reads
// each job's trace as it ends, so that the daemon's memory stops growing
// early in the run and does not depend on how many jobs a run manages.
const (
	openRunsMax   = 100_000
	closedRunsMax = 64
)

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var so *serveOutcome
	var d *daemon
	var err error
	if !cfg.trace {
		// A start-up of a few milliseconds is scaled by a quick
		// calibration just before it, not by one per batch.
		m["setup_s"], err = timeSetup(false, func() (time.Duration, error) {
			factor := quickFactor()
			d, ready, err := startDaemon(ctx, cfg.alsd, closedRunsMax)
			if err != nil {
				return 0, err
			}
			_, err = d.stop()
			return time.Duration(float64(ready) * factor), err
		})
		if err != nil {
			return nil, err
		}
		so, d, err = serveRun(ctx, cfg.alsd, closedRunsMax, closedLoop(ctx, cfg.seed, cfg.window, cfg.window/25))
		if err != nil {
			return nil, err
		}
		so.closedMetrics(m)
	} else {
		so, d, err = serveRun(ctx, cfg.alsd, openRunsMax, openLoop(ctx, cfg.seed, alsdSteps(cfg.window)))
		if err != nil {
			return nil, err
		}
		so.serveMetrics(m)
	}
	out.attempted, out.failed = len(so.sent), so.failed

	golden, err := serveJob.build()
	if err != nil {
		return nil, err
	}
	// Area saved over every job, as the daemon reported it.
	saved, n := 0.0, 0
	for _, s := range so.sent {
		if so.traces[s.name].State != "done" {
			continue
		}
		jr, ok := d.result(s.name)
		if !ok {
			out.fail("alsd: job %s done but no result line", s.name)
			continue
		}
		orig, err1 := strconv.ParseFloat(jr.origArea, 64)
		area, err2 := strconv.ParseFloat(jr.area, 64)
		if err1 != nil || err2 != nil || orig <= 0 {
			out.fail("alsd: job %s: unreadable areas %q -> %q", s.name, jr.origArea, jr.area)
			continue
		}
		saved += 100 * (orig - area) / orig
		n++
	}
	m["area_saved_pct"] = ratio(saved, float64(n))

	// Re-run a sample of the jobs in-process: flows are deterministic at
	// any worker count, so the daemon must have reported exactly what the
	// library computes for the same spec.
	var inputs []flowInput
	var idx []int
	for i := 0; i < len(so.sent) && len(inputs) < rerunJobs; i += max(len(so.sent)/rerunJobs, 1) {
		inputs = append(inputs, flowInput{golden: golden, seed: jobSeed(cfg.seed, i)})
		idx = append(idx, i)
	}
	r := newFlowRunner(serveJob, inputs)
	for k, i := range idx {
		res, _, _, err := r.flow(ctx, k, nil, nil)
		if !r.check(k, res, err) {
			continue
		}
		name := so.sent[i].name
		jr, ok := d.result(name)
		want := jobResult{
			origArea: fmt.Sprintf("%.0f", res.OriginalArea),
			area:     fmt.Sprintf("%.0f", res.FinalArea),
			iters:    res.NumIterations,
			err:      fmt.Sprintf("%.5f", res.FinalError),
		}
		if !ok || jr != want {
			out.fail("alsd: job %s reported %+v, the library computes %+v", name, jr, want)
		}
	}
	q, err := r.measureQuality(cfg.trace)
	if err != nil {
		out.fail("alsd: %v", err)
	}
	out.attempted += r.attempted
	out.failed += r.failed

	if cfg.trace {
		q.record(m, serveJob.opts.Threshold)
		// The flow layers a job goes through, traced in-process on the
		// job spec; the daemon itself runs untraced.
		inputs, err := serveJob.prepare(cfg.seed)
		if err != nil {
			return nil, err
		}
		tr := newFlowRunner(serveJob, inputs)
		if err := traceLayers(ctx, cfg, tr, cfg.window/5, out); err != nil {
			return nil, err
		}
		out.attempted += tr.attempted
		out.failed += tr.failed
	}
	return out, nil
}

// writeTrace exports a recorder as Chrome trace-event JSON for Perfetto.
func writeTrace(cfg runConfig, name string, rec *timeline.Recorder) error {
	if cfg.traceDir == "" || rec == nil {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, name+".json"))
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

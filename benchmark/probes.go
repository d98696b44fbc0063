package main

import (
	"fmt"
	"runtime"
	"time"

	"batchals"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
	"batchals/internal/par"
	"batchals/internal/partition"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
)

// prober times direct calls into one layer at a time, recording each call
// as a span on the benchmark's own recorder.
type prober struct {
	rec *timeline.Recorder
	m   map[string]float64
}

// Repetition limits of one probe: at least one call, then more until
// maxReps calls or the time budget is spent; the median call is reported.
const (
	probeMaxReps = 25
	probeBudget  = 400 * time.Millisecond
)

// run calls fn repeatedly and reports the median call in ms under msName
// and, when mbName is set, the bytes the first call allocated in MB.
func (p *prober) run(msName, mbName string, phase obs.Phase, fn func()) {
	var before, after runtime.MemStats
	var times []float64
	start := time.Now()
	for len(times) < probeMaxReps && (len(times) == 0 || time.Since(start) < probeBudget) {
		if len(times) == 0 {
			runtime.ReadMemStats(&before)
		}
		sp := p.rec.Start("probe."+msName, phase)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		p.rec.End(sp)
		if len(times) == 0 {
			runtime.ReadMemStats(&after)
		}
		times = append(times, float64(d.Nanoseconds())/1e6)
	}
	p.m[msName] = median(times)
	if mbName != "" {
		p.m[mbName] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
}

// runProbes times the layers one by one on the workload's first input:
// simulation, CPM construction, one batch estimation from scratch (the
// paper's Table 2 unit), the per-iteration driver work (clone, arrival
// times, area), a held-out measurement of approx, and the partition
// plan/extract/merge steps. It fails if the partition round trip changes
// the circuit's function.
func runProbes(spec flowSpec, in flowInput, approx *batchals.Network, rec *timeline.Recorder, m map[string]float64) error {
	p := &prober{rec: rec, m: m}
	g := in.golden
	pool := par.NewPool(workers)
	defer pool.Close()
	pool.AttachTimeline(rec, false)

	pats := sim.RandomPatterns(g.NumInputs(), spec.opts.NumPatterns, in.seed)
	var vals *sim.Values
	p.run("sim.probe_ms", "sim.probe_mb", obs.PhaseSimulate, func() { vals = sim.SimulateParallel(g, pats, pool) })
	p.run("cpm.probe_ms", "cpm.probe_mb", obs.PhaseCPMBuild, func() { core.BuildParallel(g, vals, pool) })

	lib := cell.Default()
	p.run("driver.clone_ms", "", obs.PhaseVerifyApply, func() { g.Clone() })
	p.run("driver.arrival_ms", "", obs.PhaseEstimate, func() { lib.NodeArrival(g) })
	p.run("driver.area_ms", "", obs.PhaseVerifyApply, func() { lib.NetworkArea(g) })

	held := sim.RandomPatterns(g.NumInputs(), heldoutChunk, heldoutSeed(in, 0))
	p.run("emetric.measure_ms", "", obs.PhaseVerifyApply, func() { emetric.Measure(g, approx, held) })

	var (
		plan  *partition.Plan
		parts []partition.Extracted
		err   error
	)
	p.run("partition.plan_ms", "", obs.PhaseCPMBuild, func() {
		plan, err = partition.BuildPlan(g, partition.Options{TargetCells: spec.partCells(g)})
	})
	if err != nil {
		return fmt.Errorf("partition plan: %w", err)
	}
	p.run("partition.extract_ms", "", obs.PhaseCPMBuild, func() { parts, err = plan.Extract(vals) })
	if err != nil {
		return fmt.Errorf("partition extract: %w", err)
	}
	nets := make([]*circuit.Network, len(parts))
	for k := range parts {
		nets[k] = parts[k].Net
	}
	var merged *circuit.Network
	p.run("partition.merge_ms", "", obs.PhaseVerifyApply, func() { merged, err = plan.Merge(nets) })
	if err != nil {
		return fmt.Errorf("partition merge: %w", err)
	}
	if er := emetric.Measure(g, merged, pats).ErrorRate; er != 0 {
		return fmt.Errorf("merging the unmodified parts changed the circuit: error rate %g", er)
	}

	// One batch estimation of every candidate. A partitioned workload
	// estimates within a part, which is what its flows do; the whole
	// circuit would cost the quadratic gather it partitions to avoid.
	cfg := sasimi.Config{
		Budget: flow.Budget{
			Metric:      spec.opts.Metric,
			Threshold:   spec.opts.Threshold,
			NumPatterns: spec.opts.NumPatterns,
			Seed:        in.seed,
		},
		Workers: workers,
	}
	target := g
	if spec.opts.Partition != nil {
		big := 0
		for k := range parts {
			if parts[k].Part.Cells() > parts[big].Part.Cells() {
				big = k
			}
		}
		target, cfg.Patterns = parts[big].Net, parts[big].Patterns
	}
	p.run("estimate.probe_ms", "estimate.probe_mb", obs.PhaseEstimate, func() {
		_, err = sasimi.EstimateAll(target, target, cfg)
	})
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	m["timeline.dropped"] += float64(rec.Dropped())
	return nil
}

package main

// Metric declarations. BENCHMARK.json at the repository root repeats the
// name, unit and direction of every metric (and the regression bound of
// every end-to-end one); TestSpecMatchesDeclarations keeps the two in
// step. The per-layer rows also name the end-to-end metric the layer
// should move and the workloads on which it should move it — the
// prediction a change to that layer states before it is measured.

// Metric units.
const (
	unitMS    = "ms"
	unitS     = "s"
	unitMB    = "MB"
	unitPerS  = "1/s"
	unitPct   = "%"
	unitRatio = "ratio"
	unitFrac  = "frac"
	unitCount = "count"
	unitErr   = "err"
)

// endToEnd is an end-to-end metric: what a user of the library or of the
// alsd service sees. Every workload emits every one of them.
type endToEnd struct {
	name, unit, better string
}

// e2eMetrics are emitted by untraced runs (-trace 0).
var e2eMetrics = []endToEnd{
	// Flow workloads: median Flow.Run wall. alsd-open: median job
	// latency, from the POST to done, one job at a time.
	{"latency_p50_ms", unitMS, "lower"},
	// Input preparation (circuit build and parse) or, for alsd-open, exec
	// of the daemon until /readyz answers 200; median of several set-ups.
	{"setup_s", unitS, "lower"},
	// Flow workloads: median peak RSS of one flow, each flow starting on
	// a collected heap. alsd-open: max RSS of the alsd process.
	{"peak_rss_mb", unitMB, "lower"},
	// Mean area removed per operation, as a share of the original area.
	{"area_saved_pct", unitPct, "higher"},
}

// perLayer is a per-layer metric with the prediction it carries.
type perLayer struct {
	name, unit, better string
	layer              string // module the metric measures
	moves              string // end-to-end metric it should move
	on                 string // workloads on which it should move it
}

// Workload groups used in the "on" column.
const (
	onFlows = "c880-er,mul8-aem,synth3k-mono,synth20k-part"
	onAll   = "all"
)

// layerMetrics are emitted by traced runs (-trace 1). Shares are self
// time over traced flow wall; idle fractions are pool capacity left idle
// inside dispatches; *_ms/*_mb probes time direct calls into a layer on
// the workload's input.
var layerMetrics = []perLayer{
	{"sim.simulate_share", unitFrac, "lower", "sim", "latency_p50_ms", "alsd-open,c880-er"},
	{"sim.resim_share", unitFrac, "lower", "sim", "latency_p50_ms", "c880-er,alsd-open"},
	{"sim.probe_ms", unitMS, "lower", "sim", "latency_p50_ms", "alsd-open,c880-er"},
	{"sim.probe_mb", unitMB, "lower", "sim", "peak_rss_mb", "synth20k-part"},

	{"cpm.build_share", unitFrac, "lower", "core", "latency_p50_ms", "c880-er,alsd-open"},
	{"cpm.refresh_share", unitFrac, "lower", "core", "latency_p50_ms", "c880-er"},
	{"cpm.refresh_rows", unitCount, "lower", "core", "latency_p50_ms", "c880-er"},
	{"cpm.probe_ms", unitMS, "lower", "core", "latency_p50_ms", "c880-er,alsd-open"},
	{"cpm.probe_mb", unitMB, "lower", "core", "peak_rss_mb", "synth3k-mono"},

	{"gather.full_share", unitFrac, "lower", "sasimi", "latency_p50_ms", "synth3k-mono"},
	{"gather.inc_share", unitFrac, "lower", "sasimi", "latency_p50_ms", "c880-er"},
	{"gather.idle_frac", unitFrac, "lower", "sasimi", "latency_p50_ms", "synth3k-mono"},
	{"estimate.probe_ms", unitMS, "lower", "sasimi", "latency_p50_ms", "synth3k-mono"},
	{"estimate.probe_mb", unitMB, "lower", "sasimi", "peak_rss_mb", "synth3k-mono"},
	{"cands_per_iter", unitCount, "lower", "sasimi", "latency_p50_ms", "synth3k-mono"},
	{"feasible_frac", unitFrac, "higher", "sasimi", "area_saved_pct", "c880-er"},

	{"score.share", unitFrac, "lower", "sasimi", "latency_p50_ms", "mul8-aem,c880-er"},
	{"score.idle_frac", unitFrac, "lower", "sasimi", "latency_p50_ms", "mul8-aem"},
	{"verify.share", unitFrac, "lower", "sasimi", "latency_p50_ms", "c880-er"},
	{"verify.idle_frac", unitFrac, "lower", "sasimi", "latency_p50_ms", "c880-er"},

	{"apply.share", unitFrac, "lower", "sasimi", "latency_p50_ms", "synth3k-mono,c880-er"},
	{"measure.share", unitFrac, "lower", "sasimi", "latency_p50_ms", "c880-er"},
	{"estimate.serial_share", unitFrac, "lower", "sasimi", "latency_p50_ms", "synth3k-mono"},
	{"driver.clone_ms", unitMS, "lower", "circuit", "latency_p50_ms", "synth3k-mono,c880-er"},
	{"driver.arrival_ms", unitMS, "lower", "cell", "latency_p50_ms", "synth3k-mono,c880-er"},
	{"driver.area_ms", unitMS, "lower", "cell", "latency_p50_ms", "synth3k-mono,c880-er"},
	{"iterations", unitCount, "higher", "sasimi", "area_saved_pct", onFlows},
	{"rollbacks", unitCount, "lower", "sasimi", "area_saved_pct", "c880-er"},
	{"resim_nodes", unitCount, "lower", "sim", "latency_p50_ms", "c880-er"},

	{"pool.parallel_frac", unitFrac, "higher", "par", "latency_p50_ms", onFlows},
	{"pool.idle_frac", unitFrac, "lower", "par", "latency_p50_ms", onFlows},

	{"flow.alloc_mb", unitMB, "lower", "memory", "peak_rss_mb", "synth3k-mono,synth20k-part"},
	{"flow.mallocs", unitCount, "lower", "memory", "latency_p50_ms", "synth3k-mono,synth20k-part"},
	{"phase.simulate_mb", unitMB, "lower", "memory", "peak_rss_mb", "synth3k-mono"},
	{"phase.cpm_build_mb", unitMB, "lower", "memory", "peak_rss_mb", "synth3k-mono"},
	{"phase.estimate_mb", unitMB, "lower", "memory", "peak_rss_mb", "synth3k-mono"},
	{"phase.verify_apply_mb", unitMB, "lower", "memory", "peak_rss_mb", "synth3k-mono"},

	// Quality: the flip side of area_saved_pct. Mean error on 100 000
	// held-out patterns divided by the threshold, the worst 95% Wilson
	// upper bound on the held-out error rate, and the error the flow
	// reports on its own patterns.
	{"heldout_err_ratio", unitRatio, "lower", "emetric", "area_saved_pct", "synth20k-part,synth3k-mono"},
	{"heldout_er_hi", unitErr, "lower", "emetric", "area_saved_pct", "synth20k-part,synth3k-mono"},
	{"final_err", unitErr, "lower", "emetric", "area_saved_pct", onFlows},
	{"emetric.measure_ms", unitMS, "lower", "emetric", "latency_p50_ms", "synth20k-part"},

	{"partition.plan_share", unitFrac, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.extract_share", unitFrac, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.flow_share", unitFrac, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.flow_idle_frac", unitFrac, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.merge_share", unitFrac, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.measure_share", unitFrac, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.plan_ms", unitMS, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.extract_ms", unitMS, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.merge_ms", unitMS, "lower", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.parts", unitCount, "higher", "partition", "latency_p50_ms", "synth20k-part"},
	{"partition.rounds", unitCount, "lower", "partition", "area_saved_pct", "synth20k-part"},
	{"partition.reverted", unitCount, "lower", "partition", "area_saved_pct", "synth20k-part"},
	{"partition.reclaimed", unitErr, "higher", "partition", "area_saved_pct", "synth20k-part"},

	// Open-loop job latency from due time: it grows with how close the
	// host runs to capacity, so it is no end-to-end metric (run.go).
	{"serve.job_p50_ms.r30", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.job_p50_ms.r80", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.job_p95_ms.r80", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.submit_p50_ms", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.submit_p95_ms", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.queue_wait_p50_ms", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.queue_wait_p95_ms", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.run_p50_ms", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.run_p95_ms", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.cpu_ms_per_job", unitMS, "lower", "serve", "latency_p50_ms", "alsd-open"},
	// Completions per second while the overload step keeps a backlog: the
	// highest rate the daemon sustains.
	{"serve.max_jobs_s", unitPerS, "higher", "serve", "latency_p50_ms", "alsd-open"},
	{"serve.backlog_end.r80", unitCount, "lower", "serve", "latency_p50_ms", "alsd-open"},

	{"trace_overhead", unitFrac, "lower", "timeline", "", onAll},
	{"timeline.dropped", unitCount, "lower", "timeline", "", onAll},
	{"loadgen.late_p95_ms", unitMS, "lower", "benchmark", "", onAll},
}

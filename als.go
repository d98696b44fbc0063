// Package batchals is a Go implementation of "Efficient Batch Statistical
// Error Estimation for Iterative Multi-level Approximate Logic Synthesis"
// (Su, Wu, Qian — DAC 2018).
//
// The library provides:
//
//   - a gate-level logic network with editing operations (internal/circuit),
//     bit-parallel simulation (internal/sim) and statistical error metrics
//     (internal/emetric);
//   - the paper's contribution — batch error estimation for all candidate
//     approximate transformations from a single Monte Carlo run plus a
//     change propagation matrix (internal/core);
//   - the SASIMI signal-substitution ALS flow with three interchangeable
//     estimators (batch / full-simulation / local), and a second
//     constant-setting flow (internal/sasimi, internal/snap);
//   - benchmark generators, .bench and BLIF I/O, and a harness
//     regenerating every table and figure of the paper (internal/bench,
//     internal/benchfmt, internal/blif, internal/repro).
//
// This root package is a thin facade over those building blocks: enough to
// load or generate a circuit, run an approximation flow under an ER or AEM
// budget, and measure the result. Anything more specialised is one import
// below.
//
// Quick start:
//
//	golden, _ := batchals.Benchmark("mul8")
//	res, _ := batchals.Approximate(golden, batchals.Options{
//		Metric:    batchals.ErrorRate,
//		Threshold: 0.01,
//	})
//	fmt.Printf("area %.0f -> %.0f at measured ER %.3f%%\n",
//		res.OriginalArea, res.FinalArea, 100*res.FinalError)
package batchals

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"batchals/internal/bench"
	"batchals/internal/benchfmt"
	"batchals/internal/blif"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
)

// Typed validation sentinels: every flow entry point wraps these with
// context, so callers can branch with errors.Is regardless of which flow
// produced the error.
var (
	// ErrBadThreshold marks a threshold outside the metric's valid range.
	ErrBadThreshold = flow.ErrBadThreshold
	// ErrNoPatterns marks an empty Monte Carlo sample.
	ErrNoPatterns = flow.ErrNoPatterns
	// ErrUnknownBenchmark marks a Benchmark name that is not registered.
	ErrUnknownBenchmark = bench.ErrUnknownBenchmark
)

// Network is the gate-level circuit representation used throughout the
// library (re-exported from internal/circuit).
type Network = circuit.Network

// Metric selects the statistical error measure a flow optimises under.
type Metric = core.Metric

// The two statistical error measures of the paper.
const (
	ErrorRate         = core.MetricER
	AvgErrorMagnitude = core.MetricAEM
)

// Estimator selects how a flow estimates per-candidate errors.
type Estimator = sasimi.EstimatorKind

// Estimator choices: Batch is the paper's contribution, Full is the
// accurate per-candidate resimulation baseline, Local ignores logic
// masking (the behaviour of prior flows).
const (
	Batch = sasimi.EstimatorBatch
	Full  = sasimi.EstimatorFull
	Local = sasimi.EstimatorLocal
)

// Options configures Approximate. Threshold is required; everything else
// has sensible defaults (Batch estimator, M=10000 uniform patterns, seed 0).
type Options struct {
	// Metric is ErrorRate (default) or AvgErrorMagnitude.
	Metric Metric
	// Threshold is the error budget: a fraction in [0,1] for ErrorRate, an
	// absolute magnitude for AvgErrorMagnitude.
	Threshold float64
	// Estimator defaults to Batch.
	Estimator Estimator
	// NumPatterns is the Monte Carlo sample size M (default 10000).
	NumPatterns int
	// Seed makes the whole flow reproducible.
	Seed int64
	// Workers sizes the pattern-sharded worker pool running simulation,
	// CPM construction, batch scoring and exact verification concurrently.
	// 0 (the default) uses all CPUs; 1 runs the same kernels as one shard.
	// Results are bit-identical at any worker count, so this is purely a
	// throughput knob.
	Workers int
	// KeepTrace records per-iteration details in Result.Iterations.
	KeepTrace bool
	// MaxIterations caps accepted transformations (0 = unlimited). A
	// partitioned run (Partition set) applies the cap to every part's flow
	// separately, so the run as a whole can accept up to parts ×
	// MaxIterations transformations.
	MaxIterations int
	// VerifyTopK, when positive, re-checks the K best candidates of each
	// iteration with exact fanout-cone resimulation before committing —
	// the mitigation for the estimator's reconvergent-path inaccuracy.
	VerifyTopK int
	// Tracer, when non-nil, receives the flow's decisions (iteration
	// summaries, candidate scores, accepted substitutions); see
	// NewJSONLTracer. Phase timing is reported through Result.Phases,
	// Metrics and Timeline instead. nil disables event tracing at zero
	// cost.
	Tracer Tracer
	// Metrics, when non-nil, collects flow metrics: iteration / candidate
	// counters, the five per-phase timers and allocation counters, and
	// the estimator-drift histograms split by the exactness certificate.
	// Use NewMetrics for a private registry or DefaultMetrics for the
	// process-global one.
	Metrics *Metrics
	// Timeline, when non-nil, records a causal span timeline of the run:
	// per-worker busy/idle spans for every parallel dispatch, driver-side
	// phase spans, and the verify/apply/measure sections of each iteration.
	// Export it with WriteTrace (Chrome trace-event JSON, loadable in
	// Perfetto) or summarise it with timeline.Summarize. nil keeps the hot
	// paths span-free; results are bit-identical either way.
	Timeline *TimelineRecorder
	// CheckInvariants validates structural invariants (combinational
	// acyclicity) after every accepted substitution, turning latent
	// netlist-surgery bugs into immediate named-cycle errors.
	CheckInvariants bool
	// Partition, when non-nil, routes the run through the partitioned
	// flow: the netlist is cut along fanout-free-region boundaries, each
	// part is approximated independently under a slice of the error
	// budget, and the merged result is re-measured globally. ErrorRate
	// only; use Flow.PartitionReport for the per-part breakdown.
	Partition *PartitionOptions
}

// Tracer receives flow events (re-exported from internal/obs).
type Tracer = obs.Tracer

// Metrics is a concurrency-safe metrics registry, snapshotable as JSON or
// Prometheus text (re-exported from internal/obs).
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DefaultMetrics returns the process-global registry, which also carries
// the always-on simulation and CPM substrate counters.
func DefaultMetrics() *Metrics { return obs.Default() }

// NewJSONLTracer returns a Tracer that streams events to w as JSON Lines
// (one {"ev","seq","data"} object per line, the encoding /events sends).
// Call Flush when the run ends.
func NewJSONLTracer(w io.Writer) *obs.JSONLTracer { return obs.NewJSONLTracer(w) }

// TimelineRecorder is a lock-free causal span recorder (re-exported from
// internal/obs/timeline). Attach one via Options.Timeline, then export the
// run's spans with WriteTrace or aggregate them with timeline.Summarize.
type TimelineRecorder = timeline.Recorder

// NewTimeline returns a span recorder sized for a flow run with the given
// worker count (0 = all CPUs): one lane per worker plus a driver lane,
// each with the default span capacity.
func NewTimeline(workers int) *TimelineRecorder {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return timeline.NewRecorder(workers+1, 0)
}

// Result is the outcome of an approximation flow (re-exported from
// internal/sasimi).
type Result = sasimi.Result

// Approximate runs the SASIMI flow with the configured estimator on a copy
// of golden and returns the approximate circuit whose measured error stays
// within opts.Threshold. It is a thin wrapper over NewFlow(...).Run; use
// the Flow API directly when you need the partition report or builder-
// style observability attachment.
func Approximate(golden *Network, opts Options) (*Result, error) {
	return ApproximateContext(context.Background(), golden, opts)
}

// ApproximateContext is Approximate with cancellation: the flow checks ctx
// at iteration boundaries and inside the parallel gather/score fan-outs,
// and returns ctx.Err() alongside the consistent partial result (accepted
// substitutions up to the cancellation point).
func ApproximateContext(ctx context.Context, golden *Network, opts Options) (*Result, error) {
	return NewFlow(golden, opts).Run(ctx)
}

// Benchmark builds one of the registered benchmark circuits by name
// (e.g. "rca32", "mul8", "alu4", "c880"). BenchmarkNames lists them.
func Benchmark(name string) (*Network, error) { return bench.ByName(name) }

// BenchmarkNames returns all registered benchmark names.
func BenchmarkNames() []string { return bench.Names() }

// ErrorReport carries all supported error measures between two circuits
// (re-exported from internal/emetric).
type ErrorReport = emetric.Report

// MeasureError estimates the error of approx against golden by Monte Carlo
// simulation with m patterns.
func MeasureError(golden, approx *Network, m int, seed int64) ErrorReport {
	p := sim.RandomPatterns(golden.NumInputs(), m, seed)
	return emetric.Measure(golden, approx, p)
}

// MeasureErrorExact computes the error of approx against golden by
// exhaustive enumeration. It panics for circuits with more than 26 inputs.
func MeasureErrorExact(golden, approx *Network) ErrorReport {
	return emetric.MeasureExact(golden, approx)
}

// Area returns the circuit's area under the default gate library.
func Area(n *Network) float64 { return cell.Default().NetworkArea(n) }

// Delay returns the circuit's critical-path delay under the default gate
// library.
func Delay(n *Network) float64 { return cell.Default().NetworkDelay(n) }

// Load reads a circuit from a file, selecting the format from the
// extension: ".bench" for ISCAS bench format, ".blif" for BLIF.
func Load(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return Read(f, filepath.Ext(path), base)
}

// Read parses a circuit from r in the format given by ext (".bench" or
// ".blif"); name is used for .bench, which carries no model name.
func Read(r io.Reader, ext, name string) (*Network, error) {
	switch strings.ToLower(ext) {
	case ".bench":
		return benchfmt.Parse(r, name)
	case ".blif":
		return blif.Parse(r)
	default:
		return nil, fmt.Errorf("batchals: unknown circuit format %q (want .bench or .blif)", ext)
	}
}

// Save writes a circuit to a file, selecting the format from the extension
// (".bench" or ".blif").
func Save(path string, n *Network) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteTo(f, filepath.Ext(path), n)
}

// WriteTo renders the circuit to w in the format given by ext.
func WriteTo(w io.Writer, ext string, n *Network) error {
	switch strings.ToLower(ext) {
	case ".bench":
		return benchfmt.Write(w, n)
	case ".blif":
		return blif.Write(w, n)
	default:
		return fmt.Errorf("batchals: unknown circuit format %q (want .bench or .blif)", ext)
	}
}

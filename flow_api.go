package batchals

import (
	"context"

	"batchals/internal/flow"
	"batchals/internal/partition"
	"batchals/internal/sasimi"
)

// PartitionOptions opts a flow into the partition-and-conquer path: the
// netlist is cut into ~TargetCells-gate parts along fanout-free-region
// boundaries, each part runs an independent SASIMI flow under a slice of
// the global error budget (parts run in parallel across Options.Workers),
// and the merged result is re-measured globally before being accepted.
// Partitioned runs support the ErrorRate metric only.
//
// Options.MaxIterations caps each part's flow, not the partitioned run:
// the run can accept up to parts × MaxIterations transformations.
type PartitionOptions struct {
	// TargetCells is the soft lower bound on gates per part (default 2000).
	TargetCells int
	// MaxCut is the cut width below which a part boundary is accepted
	// immediately (default 64); wider boundaries fall back to the
	// narrowest cut in the size window.
	MaxCut int
	// BudgetPolicy splits the global error budget across parts:
	// PolicyObservability (default) or PolicyUniform.
	BudgetPolicy string
	// MaxRounds bounds the allocate/run/reclaim budget loop (default 2).
	MaxRounds int
}

// Budget-split policies for PartitionOptions.BudgetPolicy.
const (
	PolicyObservability = partition.PolicyObservability
	PolicyUniform       = partition.PolicyUniform
)

// PartitionReport describes a partitioned run: part sizes and cut widths,
// per-part budgets and realised local errors, reclamation rounds, and the
// final globally measured error (re-exported from internal/partition).
type PartitionReport = partition.Report

// Flow is the builder-style entry point to the approximation flows. It
// subsumes Approximate/ApproximateContext: construct one with NewFlow,
// optionally attach observability sinks, then Run it. A Flow owns the
// wiring from Options to the engine configuration — including the
// partitioned path when Options.Partition is set — and retains the
// partition report for inspection after the run.
//
//	res, err := batchals.NewFlow(golden, batchals.Options{
//		Metric:    batchals.ErrorRate,
//		Threshold: 0.01,
//		Partition: &batchals.PartitionOptions{TargetCells: 2000},
//	}).Run(ctx)
//
// A Flow is single-use: Run consumes it, and the observability setters
// must be called before Run. It is not safe for concurrent use.
type Flow struct {
	golden *Network
	opts   Options
	report *PartitionReport
}

// NewFlow prepares a flow over golden with the given options. Nothing is
// validated until Run, so construction never fails.
func NewFlow(golden *Network, opts Options) *Flow {
	return &Flow{golden: golden, opts: opts}
}

// WithTracer attaches a flow-event tracer (see NewJSONLTracer). It
// overrides Options.Tracer and returns the Flow for chaining.
func (f *Flow) WithTracer(t Tracer) *Flow {
	f.opts.Tracer = t
	return f
}

// WithMetrics attaches a metrics registry, overriding Options.Metrics.
func (f *Flow) WithMetrics(m *Metrics) *Flow {
	f.opts.Metrics = m
	return f
}

// WithTimeline attaches a causal span recorder, overriding
// Options.Timeline. In a partitioned run the recorder's worker lanes show
// the per-partition flows as distinct concurrent spans.
func (f *Flow) WithTimeline(tl *TimelineRecorder) *Flow {
	f.opts.Timeline = tl
	return f
}

// Run executes the flow: the monolithic SASIMI engine by default, or the
// partitioned path when Options.Partition is set. The context is checked
// at iteration boundaries and inside the parallel fan-outs; on
// cancellation the consistent partial result is returned with ctx.Err().
func (f *Flow) Run(ctx context.Context) (*Result, error) {
	cfg := f.config()
	if f.opts.Partition == nil {
		return sasimi.RunContext(ctx, f.golden, cfg)
	}
	p := f.opts.Partition
	res, rep, err := partition.Run(ctx, f.golden, cfg, partition.Options{
		TargetCells:  p.TargetCells,
		MaxCut:       p.MaxCut,
		BudgetPolicy: p.BudgetPolicy,
		MaxRounds:    p.MaxRounds,
	})
	f.report = rep
	return res, err
}

// PartitionReport returns the report of the last partitioned Run, or nil
// when the flow has not run or ran monolithically. A report is available
// even for degenerate single-part plans (NumParts == 1).
func (f *Flow) PartitionReport() *PartitionReport { return f.report }

func (f *Flow) config() sasimi.Config {
	o := &f.opts
	return sasimi.Config{
		Budget: flow.Budget{
			Metric:        o.Metric,
			Threshold:     o.Threshold,
			NumPatterns:   o.NumPatterns,
			Seed:          o.Seed,
			MaxIterations: o.MaxIterations,
		},
		Estimator:       o.Estimator,
		Workers:         o.Workers,
		KeepTrace:       o.KeepTrace,
		VerifyTopK:      o.VerifyTopK,
		Tracer:          o.Tracer,
		Metrics:         o.Metrics,
		Timeline:        o.Timeline,
		CheckInvariants: o.CheckInvariants,
	}
}

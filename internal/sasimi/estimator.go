// Package sasimi implements the SASIMI approximate logic synthesis flow
// (Venkataramani et al., DATE 2013) as re-done by the paper: a greedy
// iterative loop whose approximate transformation substitutes a signal by
// an almost-identical signal (or its complement, or a constant), removing
// the substituted signal's maximum fanout-free cone.
//
// Three interchangeable error estimators drive the greedy choice:
//
//   - EstimatorBatch — the paper's contribution: one Monte Carlo run per
//     iteration plus the change propagation matrix (internal/core).
//   - EstimatorFull — the accurate baseline of Table 2: per-candidate
//     fanout-cone resimulation.
//   - EstimatorLocal — the original SASIMI behaviour the paper improves
//     on: the local difference probability of the pair, with no output
//     propagation ("without accurate error estimation").
//
// The flow follows Section 3.2: evaluate all candidates, apply the one with
// the best ΔArea/ΔError score whose estimated resulting error stays within
// the threshold, then measure the actual error on the same fixed pattern
// set; if the measured error exceeds the threshold the transformation is
// rolled back and the flow stops.
package sasimi

import (
	"context"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/sim"
)

// EstimatorKind selects how candidate errors are estimated.
type EstimatorKind int

// Supported estimator kinds.
const (
	EstimatorBatch EstimatorKind = iota
	EstimatorFull
	EstimatorLocal
)

// String names the estimator kind.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorBatch:
		return "batch"
	case EstimatorFull:
		return "full"
	case EstimatorLocal:
		return "local"
	}
	return "unknown"
}

// iterContext is the per-iteration evaluation context shared by estimators.
type iterContext struct {
	net    *circuit.Network
	vals   *sim.Values
	st     *emetric.State
	metric core.Metric
	cpm    *core.CPM // non-nil for EstimatorBatch
	// engine owns vals, st and the CPM across iterations: the batch
	// estimator's prepare asks it for the matrix (a dirty-region refresh
	// after an accepted edit).
	engine *core.Engine
	// goCtx carries the flow's cancellation into the pattern-sharded
	// scoring dispatch; nil means not cancellable.
	goCtx context.Context
}

// estimator evaluates the increased error of one candidate substitution.
type estimator interface {
	// prepare is called once per flow iteration, after simulation.
	prepare(ctx *iterContext)
	// delta estimates the increased error of forcing target to newVal;
	// change is precomputed as current(target) XOR newVal.
	delta(target circuit.NodeID, newVal, change *bitvec.Vec) float64
	// exactFor reports whether delta for a change injected at target is
	// provably exact on the pattern set (see analyze.Certificate).
	exactFor(target circuit.NodeID) bool
}

type batchEstimator struct{ ctx *iterContext }

func (e *batchEstimator) prepare(ctx *iterContext) {
	ctx.cpm = ctx.engine.CPM()
	e.ctx = ctx
}

// referenceEstimator returns a batch estimator over a full CPM of ctx's
// network and values, built from scratch: DeltaER and DeltaAEM, the
// sequential reference the pooled scorer is held to. The engine's CPM is
// the ER form for ER, which only the pooled scorer reads.
func referenceEstimator(ctx *iterContext) *batchEstimator {
	ref := *ctx
	ref.cpm = core.BuildParallel(ctx.net, ctx.vals, nil)
	return &batchEstimator{ctx: &ref}
}

// delta scores one candidate with DeltaER or DeltaAEM, which need the
// full CPM: only a referenceEstimator's delta is called.
func (e *batchEstimator) delta(target circuit.NodeID, newVal, change *bitvec.Vec) float64 {
	if e.ctx.metric == core.MetricAEM {
		return e.ctx.cpm.DeltaAEM(target, change, e.ctx.st)
	}
	return e.ctx.cpm.DeltaER(target, change, e.ctx.st)
}

// exactFor consults the CPM's reconvergence-freedom certificate: the batch
// estimate is provably exact exactly for targets whose output cone is
// tree-shaped.
func (e *batchEstimator) exactFor(target circuit.NodeID) bool {
	return e.ctx.cpm.ExactFor(target)
}

type fullEstimator struct{ ctx *iterContext }

func (e *fullEstimator) prepare(ctx *iterContext) { e.ctx = ctx }

func (e *fullEstimator) delta(target circuit.NodeID, newVal, change *bitvec.Vec) float64 {
	return core.ExactDelta(e.ctx.net, e.ctx.vals, target, newVal, e.ctx.st, e.ctx.metric)
}

// exactFor is always true: cone resimulation measures the error directly.
func (e *fullEstimator) exactFor(circuit.NodeID) bool { return true }

type localEstimator struct{ ctx *iterContext }

func (e *localEstimator) prepare(ctx *iterContext) { e.ctx = ctx }

// delta for the local estimator is the difference probability observed at
// the substituted signal itself: logic masking between the local change and
// the primary outputs is ignored, exactly the simplification the paper
// identifies in prior flows. The value doubles as both metrics' estimate:
// for ER it is the toggle probability, and for AEM the method has no output
// knowledge to weight toggles with, so each toggle is charged a nominal
// magnitude of one LSB — numerically the same p, which is why there is a
// single return rather than a per-metric branch.
func (e *localEstimator) delta(target circuit.NodeID, newVal, change *bitvec.Vec) float64 {
	return float64(change.Count()) / float64(e.ctx.vals.M)
}

// exactFor is always false: the local method ignores logic masking, so no
// structural certificate applies.
func (e *localEstimator) exactFor(circuit.NodeID) bool { return false }

func newEstimator(k EstimatorKind) estimator {
	switch k {
	case EstimatorBatch:
		return &batchEstimator{}
	case EstimatorFull:
		return &fullEstimator{}
	case EstimatorLocal:
		return &localEstimator{}
	}
	panic("sasimi: unknown estimator kind")
}

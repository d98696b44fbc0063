// Package snap implements a second greedy iterative ALS flow in the spirit
// of Shin & Gupta (DATE 2011): its approximate transformation forces an
// internal signal to constant 0 or 1 ("stuck-at" simplification) and sweeps
// the logic that becomes redundant.
//
// It exists to demonstrate the paper's point that the batch CPM estimator
// is flow-agnostic: snap reuses internal/core unchanged, only the
// transformation space differs from SASIMI. The estimator choice mirrors
// sasimi.EstimatorKind but only Batch and Local are offered (Full would be
// identical in spirit to sasimi's).
package snap

import (
	"fmt"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

// Config parameterises a snap run. The shared budget fields (Metric,
// Threshold, NumPatterns, Seed, Library, MaxIterations) come from the
// embedded flow.Budget.
type Config struct {
	flow.Budget

	// UseBatch selects the CPM estimator; false falls back to the local
	// toggle-probability estimate.
	UseBatch bool
	// ProbCap skips constants whose local toggle probability exceeds this
	// bound (default 0.4).
	ProbCap float64
}

// Result reports a snap run.
type Result struct {
	Approx        *circuit.Network
	OriginalArea  float64
	FinalArea     float64
	FinalError    float64
	NumIterations int
	TotalTime     time.Duration
}

// AreaRatio returns FinalArea / OriginalArea.
func (r *Result) AreaRatio() float64 {
	if r.OriginalArea == 0 {
		return 1
	}
	return r.FinalArea / r.OriginalArea
}

// Run executes the constant-setting flow on a copy of golden.
func Run(golden *circuit.Network, cfg Config) (*Result, error) {
	start := time.Now()
	cfg.Budget.FillDefaults()
	if cfg.ProbCap == 0 {
		cfg.ProbCap = 0.4
	}
	if err := cfg.Budget.Validate("snap"); err != nil {
		return nil, err
	}
	if cfg.Metric == core.MetricAEM && golden.NumOutputs() > 63 {
		return nil, fmt.Errorf("snap: AEM flow needs <= 63 outputs, have %d", golden.NumOutputs())
	}
	if err := golden.Validate(); err != nil {
		return nil, fmt.Errorf("snap: invalid input network: %w", err)
	}

	patterns := sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
	goldenOut := sim.OutputMatrix(golden, sim.Simulate(golden, patterns))
	approx := golden.Clone()

	res := &Result{Approx: approx, OriginalArea: cfg.Library.NetworkArea(golden)}
	res.FinalArea = res.OriginalArea
	m := patterns.NumPatterns()
	change := bitvec.New(m)

	for iter := 1; ; iter++ {
		if cfg.MaxIterations > 0 && iter > cfg.MaxIterations {
			break
		}
		vals := sim.Simulate(approx, patterns)
		st := emetric.NewState(goldenOut, sim.OutputMatrix(approx, vals))
		curErr := cfg.Metric.Value(st)
		res.FinalError = curErr

		var cpm *core.CPM
		if cfg.UseBatch {
			cpm = core.Build(approx, vals)
		}

		// Candidates: every gate stuck at 0 or 1.
		type cand struct {
			target circuit.NodeID
			value  bool
			gain   float64
			delta  float64
		}
		bestScore := -1.0
		var best *cand
		queries := 0
		for _, id := range approx.LiveNodes() {
			if !approx.Kind(id).IsGate() {
				continue
			}
			gain := 0.0
			for _, mid := range approx.MFFC(id) {
				gain += cfg.Library.GateArea(approx.Kind(mid), len(approx.Fanins(mid)))
			}
			if gain <= 0 {
				continue
			}
			ones := vals.Node(id).Count()
			for _, v := range []bool{false, true} {
				toggles := ones
				if v {
					toggles = m - ones
				}
				p := float64(toggles) / float64(m)
				if p > cfg.ProbCap {
					continue
				}
				change.CopyFrom(vals.Node(id))
				if v {
					change.Not(change)
				}
				var delta float64
				if cfg.UseBatch {
					if cfg.Metric == core.MetricAEM {
						delta = cpm.DeltaAEM(id, change, st)
					} else {
						delta = cpm.DeltaER(id, change, st)
					}
					queries++
				} else {
					delta = p
				}
				if curErr+delta > cfg.Threshold+1e-12 {
					continue
				}
				score := scoreOf(gain, delta, m)
				if score > bestScore {
					bestScore = score
					best = &cand{target: id, value: v, gain: gain, delta: delta}
				}
			}
		}
		core.CountDeltaQueries(cfg.Metric, queries)
		if best == nil {
			break
		}

		backup := approx.Clone()
		c := approx.AddConst(best.value)
		approx.ReplaceNode(best.target, c)
		approx.SweepFrom(best.target)
		// Fold the freshly planted constant through its fanout logic: the
		// stuck-at simplification's area gain largely comes from here.
		approx.PropagateConstants()

		newVals := sim.Simulate(approx, patterns)
		newSt := emetric.NewState(goldenOut, sim.OutputMatrix(approx, newVals))
		actual := cfg.Metric.Value(newSt)
		if actual > cfg.Threshold+1e-12 {
			*approx = *backup
			break
		}
		res.NumIterations++
		res.FinalArea = cfg.Library.NetworkArea(approx)
		res.FinalError = actual
	}

	res.TotalTime = time.Since(start)
	if err := approx.Validate(); err != nil {
		return nil, fmt.Errorf("snap: flow corrupted the network: %w", err)
	}
	return res, nil
}

func scoreOf(gain, delta float64, m int) float64 {
	floor := 0.1 / float64(m)
	if delta <= 0 {
		return 1e12 * (gain + 1) * (1 - delta)
	}
	if delta < floor {
		delta = floor
	}
	return gain / delta
}

// Package wu implements a simplified variant of Wu & Qian's multi-level
// ALS flow (DAC 2016), the third method of the paper's Table 3. Its
// approximate transformation shrinks a node by deleting one literal: a
// fanin is removed from an AND/OR-family gate (a 2-input gate collapses
// onto its remaining fanin, with the inversion folded in for NAND/NOR).
//
// The original operates on factored-form expressions of Boolean-network
// nodes; on this library's simple-gate networks every gate *is* a flat
// product or sum, so literal deletion is exactly fanin removal. XOR-family
// gates have no removable literal (deleting a XOR input changes the
// function in a non-monotone way the original's error model does not
// cover) and are left alone, as is MUX.
//
// The flow is the same greedy iteration as SASIMI and reuses the batch CPM
// estimator for the increased error of every candidate deletion — i.e.
// this package is the paper's technique applied to a second published AT
// type.
package wu

import (
	"fmt"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

// Config parameterises a run. The shared budget fields (Metric, Threshold,
// NumPatterns, Seed, Library, MaxIterations) come from the embedded
// flow.Budget.
type Config struct {
	flow.Budget

	// UseBatch selects the CPM estimator (true, default behaviour of the
	// modified flow) or the local toggle-probability estimate (false, the
	// original flow's local error model).
	UseBatch bool
}

// Result reports a run.
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

// candidate is one literal deletion: remove fanin pin (index) of gate.
type candidate struct {
	gate  circuit.NodeID
	pin   int
	gain  float64
	delta float64
}

// Run executes the literal-removal flow on a copy of golden.
func Run(golden *circuit.Network, cfg Config) (*Result, error) {
	start := time.Now()
	cfg.Budget.FillDefaults()
	if err := cfg.Budget.Validate("wu"); err != nil {
		return nil, err
	}
	if cfg.Metric == core.MetricAEM && golden.NumOutputs() > 63 {
		return nil, fmt.Errorf("wu: AEM flow needs <= 63 outputs, have %d", golden.NumOutputs())
	}
	if err := golden.Validate(); err != nil {
		return nil, fmt.Errorf("wu: invalid input network: %w", err)
	}

	patterns := sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
	goldenOut := sim.OutputMatrix(golden, sim.Simulate(golden, patterns))
	approx := golden.Clone()
	res := &Result{Approx: approx, OriginalArea: cfg.Library.NetworkArea(golden)}
	res.FinalArea = res.OriginalArea
	m := patterns.NumPatterns()
	newVal := bitvec.New(m)
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

		var best *candidate
		bestScore := -1.0
		queries := 0
		for _, id := range approx.LiveNodes() {
			kind := approx.Kind(id)
			if !removableKind(kind) {
				continue
			}
			fanins := approx.Fanins(id)
			for pin := range fanins {
				gain := deletionGain(approx, cfg.Library, id, pin)
				if gain <= 0 {
					continue
				}
				reducedValue(approx, vals, id, pin, newVal)
				change.Xor(vals.Node(id), newVal)
				var delta float64
				if cfg.UseBatch {
					if cfg.Metric == core.MetricAEM {
						delta = cpm.DeltaAEM(id, change, st)
					} else {
						delta = cpm.DeltaER(id, change, st)
					}
					queries++
				} else {
					delta = float64(change.Count()) / float64(m)
				}
				if curErr+delta > cfg.Threshold+1e-12 {
					continue
				}
				score := gain / maxf(delta, 0.1/float64(m))
				if delta <= 0 {
					score = 1e12 * (gain + 1) * (1 - delta)
				}
				if score > bestScore {
					bestScore = score
					best = &candidate{gate: id, pin: pin, gain: gain, delta: delta}
				}
			}
		}
		core.CountDeltaQueries(cfg.Metric, queries)
		if best == nil {
			break
		}

		backup := approx.Clone()
		applyDeletion(approx, best.gate, best.pin)
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
		return nil, fmt.Errorf("wu: flow corrupted the network: %w", err)
	}
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// removableKind reports whether literal deletion is defined for the kind.
func removableKind(k circuit.Kind) bool {
	switch k {
	case circuit.KindAnd, circuit.KindOr, circuit.KindNand, circuit.KindNor:
		return true
	}
	return false
}

// deletionGain is the area reclaimed by removing pin from gate: the gate
// shrinks by one input (or collapses entirely at arity 2) and the removed
// fanin's exclusive cone may die.
func deletionGain(n *circuit.Network, lib *cell.Library, gate circuit.NodeID, pin int) float64 {
	fanins := n.Fanins(gate)
	kind := n.Kind(gate)
	old := lib.GateArea(kind, len(fanins))
	var newArea float64
	if len(fanins) > 2 {
		newArea = lib.GateArea(kind, len(fanins)-1)
	} else {
		// Gate collapses to a wire (AND/OR) or an inverter (NAND/NOR).
		if kind == circuit.KindNand || kind == circuit.KindNor {
			newArea = lib.GateArea(circuit.KindNot, 1)
		} else {
			newArea = 0
		}
	}
	gain := old - newArea
	// The removed fanin's exclusively-supported cone dies too, unless the
	// same signal feeds the gate on another pin.
	removed := fanins[pin]
	occurrences := 0
	for _, f := range fanins {
		if f == removed {
			occurrences++
		}
	}
	if occurrences == 1 && len(n.Fanouts(removed)) == 1 && n.Kind(removed).IsGate() && !drivesOutput(n, removed) {
		for _, id := range n.MFFC(removed) {
			gain += lib.GateArea(n.Kind(id), len(n.Fanins(id)))
		}
	}
	return gain
}

func drivesOutput(n *circuit.Network, id circuit.NodeID) bool {
	for _, o := range n.Outputs() {
		if o.Node == id {
			return true
		}
	}
	return false
}

// reducedValue computes the gate's value vector with pin removed, into dst.
func reducedValue(n *circuit.Network, vals *sim.Values, gate circuit.NodeID, pin int, dst *bitvec.Vec) {
	kind := n.Kind(gate)
	fanins := n.Fanins(gate)
	rest := make([]*bitvec.Vec, 0, len(fanins)-1)
	for i, f := range fanins {
		if i == pin {
			continue
		}
		rest = append(rest, vals.Node(f))
	}
	words := bitvec.Words(vals.M)
	dw := dst.WordsSlice()
	buf := make([]uint64, len(rest))
	for w := 0; w < words; w++ {
		for j, v := range rest {
			buf[j] = v.WordsSlice()[w]
		}
		// EvalWord handles the shrunken arity directly, including the
		// single-operand AND/NAND/OR/NOR forms (identity / inversion).
		dw[w] = kind.EvalWord(buf)
	}
	dst.MaskTail()
}

// applyDeletion performs the netlist surgery for an accepted deletion.
func applyDeletion(n *circuit.Network, gate circuit.NodeID, pin int) {
	fanins := n.Fanins(gate)
	kind := n.Kind(gate)
	if len(fanins) > 2 {
		keep := make([]circuit.NodeID, 0, len(fanins)-1)
		for i, f := range fanins {
			if i != pin {
				keep = append(keep, f)
			}
		}
		repl := n.AddGate(kind, keep...)
		n.ReplaceNode(gate, repl)
		n.SweepFrom(gate)
		return
	}
	other := fanins[1-pin]
	var repl circuit.NodeID
	if kind == circuit.KindNand || kind == circuit.KindNor {
		repl = n.AddGate(circuit.KindNot, other)
	} else {
		repl = other
	}
	n.ReplaceNode(gate, repl)
	n.SweepFrom(gate)
}

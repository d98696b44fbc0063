// Package stoch implements a stochastic ALS flow in the spirit of Liu &
// Zhang's statistically certified approach (ICCAD 2017), which the paper's
// related-work section discusses: each move randomly proposes one
// substitution and accepts it probabilistically under a cooling
// temperature.
//
// The paper observes that batch estimation cannot help such a flow early
// on (there is only one candidate per move, so direct evaluation is
// affordable) but *can* help "in later iterations when the accumulated
// error is close to the limit: ... it may be advantageous to consider
// multiple candidates and then choose a good one". This package implements
// exactly that hybrid: single-candidate exact evaluation while the error
// budget is comfortable, switching to CPM-ranked batch selection once the
// consumed budget crosses SwitchFrac.
package stoch

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/sim"
)

// Config parameterises a stochastic flow run.
type Config struct {
	// Metric and Threshold define the error budget.
	Metric    core.Metric
	Threshold float64
	// NumPatterns and Seed control the Monte Carlo run and the proposal
	// randomness (default 10000 / 0).
	NumPatterns int
	Seed        int64
	// Moves is the number of stochastic proposals (default 300).
	Moves int
	// Temp0 is the initial acceptance temperature in area units (default
	// 4); Cooling multiplies it each move (default 0.99).
	Temp0   float64
	Cooling float64
	// SwitchFrac is the consumed-budget fraction after which the flow
	// switches from single-candidate evaluation to batch selection
	// (default 0.5). Set above 1 to disable batch mode.
	SwitchFrac float64
	// BatchWidth is how many random candidates each batch-mode move
	// considers (default 32).
	BatchWidth int
	// Library provides the area model (default cell.Default()).
	Library *cell.Library
}

func (cfg *Config) fillDefaults() {
	if cfg.NumPatterns == 0 {
		cfg.NumPatterns = 10000
	}
	if cfg.Moves == 0 {
		cfg.Moves = 300
	}
	if cfg.Temp0 == 0 {
		cfg.Temp0 = 4
	}
	if cfg.Cooling == 0 {
		cfg.Cooling = 0.99
	}
	if cfg.SwitchFrac == 0 {
		cfg.SwitchFrac = 0.5
	}
	if cfg.BatchWidth == 0 {
		cfg.BatchWidth = 32
	}
	if cfg.Library == nil {
		cfg.Library = cell.Default()
	}
}

// Result reports a stochastic flow run.
type Result struct {
	Approx        *circuit.Network
	OriginalArea  float64
	FinalArea     float64
	FinalError    float64
	Accepted      int // accepted moves
	Proposed      int // proposed moves (== cfg.Moves unless it ran dry)
	BatchMoves    int // moves decided in batch mode
	SwitchedAtErr float64
	TotalTime     time.Duration
}

// AreaRatio returns FinalArea / OriginalArea.
func (r *Result) AreaRatio() float64 {
	if r.OriginalArea == 0 {
		return 1
	}
	return r.FinalArea / r.OriginalArea
}

// proposal is one randomly drawn substitution.
type proposal struct {
	target, sub circuit.NodeID
	inverted    bool
	gain        float64
	delta       float64
}

// Run executes the stochastic flow on a copy of golden.
func Run(golden *circuit.Network, cfg Config) (*Result, error) {
	start := time.Now()
	cfg.fillDefaults()
	if cfg.Threshold < 0 {
		return nil, errors.New("stoch: negative threshold")
	}
	if cfg.Metric == core.MetricAEM && golden.NumOutputs() > 63 {
		return nil, fmt.Errorf("stoch: AEM flow needs <= 63 outputs, have %d", golden.NumOutputs())
	}
	if err := golden.Validate(); err != nil {
		return nil, fmt.Errorf("stoch: invalid input network: %w", err)
	}

	r := rand.New(rand.NewSource(cfg.Seed + 7919))
	patterns := sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
	goldenOut := sim.OutputMatrix(golden, sim.Simulate(golden, patterns))
	approx := golden.Clone()
	res := &Result{Approx: approx, OriginalArea: cfg.Library.NetworkArea(golden)}
	res.FinalArea = res.OriginalArea
	res.SwitchedAtErr = math.NaN()

	temp := cfg.Temp0
	scratch := bitvec.New(cfg.NumPatterns)
	change := bitvec.New(cfg.NumPatterns)

	for move := 0; move < cfg.Moves; move++ {
		temp *= cfg.Cooling
		res.Proposed++

		vals := sim.Simulate(approx, patterns)
		st := emetric.NewState(goldenOut, sim.OutputMatrix(approx, vals))
		curErr := cfg.Metric.Value(st)
		res.FinalError = curErr

		arrival := cfg.Library.NodeArrival(approx)
		batchMode := cfg.Threshold > 0 && curErr >= cfg.SwitchFrac*cfg.Threshold
		if batchMode && math.IsNaN(res.SwitchedAtErr) {
			res.SwitchedAtErr = curErr
		}

		var best *proposal
		if batchMode {
			// Late phase: draw several candidates, rank them all with the
			// CPM in one pass, take the best feasible.
			cpm := core.Build(approx, vals)
			res.BatchMoves++
			queries := 0
			for k := 0; k < cfg.BatchWidth; k++ {
				p := draw(approx, vals, arrival, cfg, r)
				if p == nil {
					continue
				}
				sub := substituteValue(approx, vals, p, scratch)
				change.Xor(vals.Node(p.target), sub)
				if cfg.Metric == core.MetricAEM {
					p.delta = cpm.DeltaAEM(p.target, change, st)
				} else {
					p.delta = cpm.DeltaER(p.target, change, st)
				}
				queries++
				if curErr+p.delta > cfg.Threshold+1e-12 {
					continue
				}
				if best == nil || p.gain/(p.delta+1e-9) > best.gain/(best.delta+1e-9) {
					best = p
				}
			}
			core.CountDeltaQueries(cfg.Metric, queries)
		} else {
			// Early phase: a single proposal, evaluated exactly (cheap
			// because it is just one candidate — the paper's observation).
			p := draw(approx, vals, arrival, cfg, r)
			if p == nil {
				continue
			}
			sub := substituteValue(approx, vals, p, scratch)
			p.delta = core.ExactDelta(approx, vals, p.target, sub, st, cfg.Metric)
			if curErr+p.delta > cfg.Threshold+1e-12 {
				continue
			}
			// Metropolis acceptance on the area gain.
			if p.gain < 0 && r.Float64() >= math.Exp(p.gain/math.Max(temp, 1e-6)) {
				continue
			}
			best = p
		}
		if best == nil {
			continue
		}

		backup := approx.Clone()
		apply(approx, best)
		newVals := sim.Simulate(approx, patterns)
		newSt := emetric.NewState(goldenOut, sim.OutputMatrix(approx, newVals))
		actual := cfg.Metric.Value(newSt)
		if actual > cfg.Threshold+1e-12 {
			*approx = *backup
			continue
		}
		res.Accepted++
		res.FinalArea = cfg.Library.NetworkArea(approx)
		res.FinalError = actual
	}

	res.TotalTime = time.Since(start)
	if err := approx.Validate(); err != nil {
		return nil, fmt.Errorf("stoch: flow corrupted the network: %w", err)
	}
	return res, nil
}

// draw samples one structurally admissible substitution: a random target,
// then the most-similar of a handful of random substitute candidates
// (polarity chosen by whichever phase matches better). A blind uniform
// pair would almost never be error-feasible; biasing by observed
// similarity mirrors the almost-identical-signal ATs the certified flow
// mutates over.
func draw(net *circuit.Network, vals *sim.Values, arrival []float64, cfg Config, r *rand.Rand) *proposal {
	live := net.LiveNodes()
	var gates []circuit.NodeID
	for _, id := range live {
		if net.Kind(id).IsGate() {
			gates = append(gates, id)
		}
	}
	if len(gates) == 0 {
		return nil
	}
	invArea := cfg.Library.GateArea(circuit.KindNot, 1)
	invDelay := cfg.Library.GateDelay(circuit.KindNot)
	words := bitvec.Words(vals.M)
	if words > 4 {
		words = 4
	}
	for tries := 0; tries < 20; tries++ {
		t := gates[r.Intn(len(gates))]
		tfo := net.TransitiveFanoutCone(t)
		tw := vals.Node(t).WordsSlice()

		// Sample a handful of substitutes, keep the most similar phase.
		var bestS circuit.NodeID = circuit.InvalidNode
		bestInv := false
		bestDiff := -1
		for k := 0; k < 12; k++ {
			s := live[r.Intn(len(live))]
			if s == t || net.Kind(s).IsConst() || tfo[s] {
				continue
			}
			sw := vals.Node(s).WordsSlice()
			d := 0
			for w := 0; w < words; w++ {
				d += bits.OnesCount64(tw[w] ^ sw[w])
			}
			inv := false
			if inverse := words*64 - d; inverse < d {
				d, inv = inverse, true
			}
			need := arrival[s]
			if inv {
				need += invDelay
			}
			if need > arrival[t] {
				continue
			}
			if bestDiff == -1 || d < bestDiff {
				bestS, bestInv, bestDiff = s, inv, d
			}
		}
		if bestS == circuit.InvalidNode {
			continue
		}
		gain := 0.0
		for _, id := range net.MFFCExcluding(t, bestS) {
			gain += cfg.Library.GateArea(net.Kind(id), len(net.Fanins(id)))
		}
		if bestInv {
			gain -= invArea
		}
		if gain <= 0 {
			continue
		}
		return &proposal{target: t, sub: bestS, inverted: bestInv, gain: gain}
	}
	return nil
}

func popcount(w uint64) int { // small local helper; hot path uses <=4 words
	c := 0
	for w != 0 {
		w &= w - 1
		c++
	}
	return c
}

func substituteValue(net *circuit.Network, vals *sim.Values, p *proposal, scratch *bitvec.Vec) *bitvec.Vec {
	if p.inverted {
		scratch.Not(vals.Node(p.sub))
		return scratch
	}
	return vals.Node(p.sub)
}

func apply(net *circuit.Network, p *proposal) {
	repl := p.sub
	if p.inverted {
		repl = net.AddGate(circuit.KindNot, p.sub)
	}
	net.ReplaceNode(p.target, repl)
	net.SweepFrom(p.target)
}

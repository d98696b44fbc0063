// Package partition implements the partition-and-conquer flow for
// netlists far beyond what one monolithic batch-estimation run can hold:
// a reconvergence-aware partitioner cuts the network into ~TargetCells
// parts along fanout-free-region boundaries, each part is materialised as
// a standalone circuit driven by recorded simulation patterns from the
// parent run, an independent SASIMI flow approximates every part under a
// slice of the global error budget (parallel across parts via par.Pool,
// layered on the existing pattern-shard parallelism), and a merge step
// stitches the approximated parts back together with the existing
// estimator re-measuring global error as the acceptance gate.
//
// The partitioner never cuts inside a fanout-free region: FFR roots are
// exactly the multi-consumer signals, so region boundaries are where the
// interface is narrow and where the batch estimator's per-part exactness
// certificates stay meaningful. See DESIGN.md §17.
package partition

import (
	"fmt"
	"sort"

	"batchals/internal/analyze"
	"batchals/internal/circuit"
)

// Options configures the partitioner and the global budget allocator.
// The zero value selects the defaults below.
type Options struct {
	// TargetCells is the soft lower bound on gates per part (default
	// 2000, the part size both exemplar partition-and-conquer ALS repos
	// converged on). A part closes at the first FFR boundary at or past
	// TargetCells whose cut is narrow enough, and never grows beyond
	// 1.5x TargetCells without closing at the narrowest boundary seen.
	TargetCells int
	// MaxCut is the cut width (signals crossing a part boundary) below
	// which a boundary is accepted immediately (default 64). It is
	// advisory, not a hard limit: when no boundary in the size window is
	// that narrow, the narrowest one wins.
	MaxCut int
	// BudgetPolicy selects how the global error budget is split across
	// parts: "observability" (default) weighs each part by how many
	// primary outputs its exported signals reach, "uniform" splits
	// evenly.
	BudgetPolicy string
	// MaxRounds bounds the allocate -> run -> reclaim loop (default 2):
	// after each round, budget left unused by converged parts is pooled
	// and re-granted to parts that exhausted theirs.
	MaxRounds int
}

// Budget policies accepted by Options.BudgetPolicy.
const (
	PolicyObservability = "observability"
	PolicyUniform       = "uniform"
)

// FillDefaults replaces zero values with the package defaults.
func (o *Options) FillDefaults() {
	if o.TargetCells <= 0 {
		o.TargetCells = 2000
	}
	if o.MaxCut <= 0 {
		o.MaxCut = 64
	}
	if o.BudgetPolicy == "" {
		o.BudgetPolicy = PolicyObservability
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 2
	}
}

// Validate rejects unknown policy names. Call after FillDefaults.
func (o *Options) Validate() error {
	switch o.BudgetPolicy {
	case PolicyObservability, PolicyUniform:
		return nil
	}
	return fmt.Errorf("partition: unknown budget policy %q (want %q or %q)",
		o.BudgetPolicy, PolicyObservability, PolicyUniform)
}

// Part is one slice of the parent network: a topologically contiguous run
// of fanout-free regions. All node ids are parent ids; Extract maps them
// into a standalone network.
type Part struct {
	// Index is the part's position in topological part order: every
	// boundary signal a part consumes is produced by a part with a
	// strictly smaller index (or is a primary input).
	Index int
	// Members are the part's gates in parent topological order.
	Members []circuit.NodeID
	// Inputs are the part's boundary signals — parent primary inputs plus
	// cut signals from earlier parts — in ascending parent id order.
	Inputs []circuit.NodeID
	// Outputs are the part's exported signals — gates consumed by later
	// parts or bound to parent primary outputs — in ascending parent id
	// order.
	Outputs []circuit.NodeID
	// CutIns counts the Inputs that are cut gate signals (not primary
	// inputs): the width of the part's upstream interface.
	CutIns int
}

// Cells returns the part's gate count.
func (p *Part) Cells() int { return len(p.Members) }

// Plan is a partitioning of one network: every live gate belongs to
// exactly one part, parts are convex (no edge from a later part back into
// an earlier one), and primary inputs and constants belong to no part
// (inputs become boundary signals, constants are replicated per part).
type Plan struct {
	Net   *circuit.Network
	Parts []Part

	partOf []int // indexed by parent NodeID; -1 for inputs/constants/dead slots
}

// NumParts returns the number of parts.
func (p *Plan) NumParts() int { return len(p.Parts) }

// PartOf returns the part index owning gate id, or -1 for inputs,
// constants and dead slots.
func (p *Plan) PartOf(id circuit.NodeID) int { return p.partOf[id] }

// ffrUnit is one fanout-free region restricted to its gates, the atomic
// grain of partitioning.
type ffrUnit struct {
	root    circuit.NodeID
	members []circuit.NodeID // gates, parent topo order
}

// BuildPlan partitions the network along FFR boundaries. The construction
// guarantees convexity: units are ordered by the topological position of
// their region root, and every cross-region edge originates at a region
// root (a single-consumer node always joins its consumer's region), so an
// edge from unit A into unit B implies topo(root A) < topo(root B) and
// contiguous chunks of the unit order can only be fed from earlier chunks.
// Cut width is minimised per boundary: the number of signals crossing a
// prefix/suffix split depends only on the split point, so the chunker
// closes each part at the narrowest boundary inside its size window.
func BuildPlan(net *circuit.Network, opt Options) (*Plan, error) {
	opt.FillDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}

	order := net.TopoOrder()
	topoIdx := make([]int, net.NumSlots())
	for i, id := range order {
		topoIdx[id] = i
	}
	ffrs := analyze.ComputeFFRs(net)

	// Group gates into units by FFR root, units ordered by root topo
	// position, members in parent topo order.
	unitOf := make(map[circuit.NodeID]int)
	var units []ffrUnit
	var roots []circuit.NodeID
	for _, id := range order {
		if !net.Kind(id).IsGate() {
			continue
		}
		r := ffrs.Root(id)
		if _, ok := unitOf[r]; !ok {
			unitOf[r] = 0 // placeholder until roots are ordered
			roots = append(roots, r)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return topoIdx[roots[i]] < topoIdx[roots[j]] })
	units = make([]ffrUnit, len(roots))
	for i, r := range roots {
		units[i].root = r
		unitOf[r] = i
	}
	unitOfGate := make([]int, net.NumSlots())
	for i := range unitOfGate {
		unitOfGate[i] = -1
	}
	for _, id := range order {
		if !net.Kind(id).IsGate() {
			continue
		}
		u := unitOf[ffrs.Root(id)]
		units[u].members = append(units[u].members, id)
		unitOfGate[id] = u
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: network %q has no gates", net.Name)
	}

	// frontier[i] = number of gate signals crossing the boundary between
	// units[0..i] and units[i+1..]: gates in the prefix with at least one
	// gate consumer in the suffix. A gate g produced in unit u(g) and last
	// consumed in unit maxCU(g) crosses boundaries u(g) .. maxCU(g)-1;
	// accumulate with a difference array.
	diff := make([]int, len(units)+1)
	for _, id := range order {
		u := unitOfGate[id]
		if u < 0 {
			continue
		}
		maxCU := -1
		for _, fo := range net.Fanouts(id) {
			if cu := unitOfGate[fo]; cu > maxCU {
				maxCU = cu
			}
		}
		if maxCU > u {
			diff[u]++
			diff[maxCU]--
		}
	}
	frontier := make([]int, len(units))
	run := 0
	for i := range units {
		run += diff[i]
		frontier[i] = run
	}

	// Chunk units into parts: grow to TargetCells, then close at the
	// first boundary with cut <= MaxCut, or — once past 1.5x TargetCells —
	// at the narrowest boundary seen since TargetCells.
	plan := &Plan{Net: net, partOf: make([]int, net.NumSlots())}
	for i := range plan.partOf {
		plan.partOf[i] = -1
	}
	hi := opt.TargetCells + opt.TargetCells/2
	start := 0
	for start < len(units) {
		cells := 0
		closeAt := -1
		best, bestCut := -1, int(^uint(0)>>1)
		for i := start; i < len(units); i++ {
			cells += len(units[i].members)
			if cells < opt.TargetCells {
				continue
			}
			if frontier[i] <= opt.MaxCut {
				closeAt = i
				break
			}
			if frontier[i] < bestCut {
				best, bestCut = i, frontier[i]
			}
			if cells >= hi {
				closeAt = best
				break
			}
		}
		if closeAt == -1 {
			if best >= 0 {
				closeAt = best // ran out of units past TargetCells
			} else {
				closeAt = len(units) - 1 // undersized tail part
			}
		}
		k := len(plan.Parts)
		part := Part{Index: k}
		for i := start; i <= closeAt; i++ {
			part.Members = append(part.Members, units[i].members...)
		}
		for _, id := range part.Members {
			plan.partOf[id] = k
		}
		plan.Parts = append(plan.Parts, part)
		start = closeAt + 1
	}

	if err := plan.computeBoundaries(); err != nil {
		return nil, err
	}
	return plan, nil
}

// computeBoundaries fills each part's Inputs/Outputs/CutIns from the
// part assignment and verifies convexity.
func (p *Plan) computeBoundaries() error {
	net := p.Net
	isPO := make([]bool, net.NumSlots())
	for _, o := range net.Outputs() {
		isPO[o.Node] = true
	}
	for k := range p.Parts {
		part := &p.Parts[k]
		inSet := make(map[circuit.NodeID]bool)
		outSet := make(map[circuit.NodeID]bool)
		for _, g := range part.Members {
			for _, f := range net.Fanins(g) {
				fk := net.Kind(f)
				if fk == circuit.KindConst0 || fk == circuit.KindConst1 {
					continue // constants are replicated, never cut
				}
				src := p.partOf[f]
				if src == k {
					continue
				}
				if src > k {
					return fmt.Errorf("partition: convexity violated: part %d consumes %s from part %d",
						k, net.NameOf(f), src)
				}
				inSet[f] = true
			}
			if isPO[g] {
				outSet[g] = true
			}
			for _, fo := range net.Fanouts(g) {
				if dst := p.partOf[fo]; dst != k && dst >= 0 {
					if dst < k {
						return fmt.Errorf("partition: convexity violated: part %d feeds %s back to part %d",
							k, net.NameOf(g), dst)
					}
					outSet[g] = true
				}
			}
		}
		part.Inputs = sortedIDs(inSet)
		part.Outputs = sortedIDs(outSet)
		part.CutIns = 0
		for _, id := range part.Inputs {
			if net.Kind(id) != circuit.KindInput {
				part.CutIns++
			}
		}
	}
	return nil
}

func sortedIDs(set map[circuit.NodeID]bool) []circuit.NodeID {
	ids := make([]circuit.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

package core

import (
	"fmt"
	"sort"
	"strings"

	"batchals/internal/circuit"
	"batchals/internal/sim"
)

// NodeTestability summarises one node's statistical testability measures
// under the simulated input distribution: its signal probability
// (controllability) and the probability that a flip at it reaches any
// primary output (observability, straight out of the CPM).
type NodeTestability struct {
	Node          circuit.NodeID
	Name          string
	Kind          circuit.Kind
	Prob1         float64 // fraction of patterns where the node is 1
	Observability float64 // fraction of patterns where a flip is visible
	// Impact is Prob-weighted observability of the rarer phase: an upper
	// bound on the ER a stuck-at fault at this node could cause; nodes
	// with near-zero impact are the natural first targets of approximate
	// transformations.
	Impact float64
}

// TestabilityReport computes per-node testability for all live gates from
// one simulation and one CPM — a by-product the batch estimation
// infrastructure provides for free, useful for test-point insertion and
// for understanding where an ALS flow will find its savings. It reads only
// observability, so the one-row AnyProp fold (BuildAnyProp) is all the
// CPM it needs: about 1/O of a full build's rows.
func TestabilityReport(n *circuit.Network, vals *sim.Values, cpm *CPM) []NodeTestability {
	var out []NodeTestability
	m := float64(vals.M)
	for _, id := range n.TopoOrder() {
		if !n.Kind(id).IsGate() {
			continue
		}
		ones := float64(vals.Node(id).Count())
		p1 := ones / m
		ob := cpm.Observability(id)
		rarer := p1
		if rarer > 0.5 {
			rarer = 1 - rarer
		}
		out = append(out, NodeTestability{
			Node:          id,
			Name:          n.NameOf(id),
			Kind:          n.Kind(id),
			Prob1:         p1,
			Observability: ob,
			Impact:        rarer * ob,
		})
	}
	return out
}

// RenderTestability formats a report, least-impactful nodes first, capped
// at limit rows (0 = all).
func RenderTestability(rows []NodeTestability, limit int) string {
	sorted := append([]NodeTestability(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Impact != sorted[j].Impact {
			return sorted[i].Impact < sorted[j].Impact
		}
		return sorted[i].Node < sorted[j].Node
	})
	if limit > 0 && len(sorted) > limit {
		sorted = sorted[:limit]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-6s %8s %8s %10s\n", "node", "kind", "P(1)", "observ", "impact")
	for _, r := range sorted {
		fmt.Fprintf(&sb, "%-14s %-6s %8.4f %8.4f %10.6f\n",
			r.Name, r.Kind, r.Prob1, r.Observability, r.Impact)
	}
	return sb.String()
}

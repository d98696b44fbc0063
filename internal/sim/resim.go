package sim

import (
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// Grow extends the value table to cover n node slots, so vectors for nodes
// created by a network edit can be installed. Existing vectors are kept.
func (v *Values) Grow(n int) {
	for len(v.vecs) < n {
		v.vecs = append(v.vecs, nil)
	}
}

// Drop releases the value vector of a deleted node slot.
func (v *Values) Drop(id circuit.NodeID) {
	if int(id) < len(v.vecs) {
		v.vecs[id] = nil
	}
}

// ResimulateFrom re-evaluates, in place, the union of the structural
// fanout cones of the seed nodes (seeds included) and reports which nodes'
// value vectors actually changed. It is the incremental iteration engine's
// workhorse: after netlist surgery, the seeds are the rewired gates (whose
// fanin lists now read different nodes) plus any newly created nodes
// (whose vectors do not exist yet — the table is grown and fresh vectors
// allocated).
//
// The changed set is a pure function of the network and the value table —
// a node is reported iff its recomputed vector differs from its previous
// one in any of the M bits — so it is identical at any worker count:
// workers compute disjoint word ranges and their per-word difference flags
// are OR-combined after the join. Primary inputs are never re-evaluated.
func ResimulateFrom(n *circuit.Network, v *Values, seeds []circuit.NodeID, pool *par.Pool) (resimmed, changed []circuit.NodeID) {
	v.Grow(n.NumSlots())
	inCone := make([]bool, n.NumSlots())
	stack := make([]circuit.NodeID, 0, len(seeds))
	for _, s := range seeds {
		if n.IsLive(s) && !inCone[s] {
			inCone[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range n.Fanouts(x) {
			if !inCone[fo] {
				inCone[fo] = true
				stack = append(stack, fo)
			}
		}
	}
	var list []circuit.NodeID
	for _, id := range n.TopoOrder() {
		if !inCone[id] || n.Kind(id) == circuit.KindInput {
			continue
		}
		if v.vecs[id] == nil { // newly created node
			v.vecs[id] = bitvec.New(v.M)
		}
		list = append(list, id)
	}
	if len(list) == 0 {
		return nil, nil
	}
	diff := make([]bool, len(list))
	pool.Label("sim.resim_from", obs.PhaseSimulate)
	evalSharded(n, v, list, pool, diff)
	for i, id := range list {
		if diff[i] {
			changed = append(changed, id)
		}
	}
	statConeResims.Inc()
	statGateEvals.Add(int64(len(list)))
	return list, changed
}

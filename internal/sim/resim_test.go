package sim

import (
	"testing"

	"batchals/internal/bench"
	"batchals/internal/circuit"
	"batchals/internal/par"
)

// TestResimulateFromMatchesFreshSimulation pins the in-place edit
// resimulation: after a substitution edit, ResimulateFrom must leave every
// live node's value vector bit-identical to a from-scratch simulation of
// the edited network, at any worker count, and must report exactly the
// nodes whose vectors changed.
func TestResimulateFromMatchesFreshSimulation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		n, err := bench.ByName("rca8")
		if err != nil {
			t.Fatal(err)
		}
		pool := par.NewPool(workers)
		patterns := RandomPatterns(n.NumInputs(), 700, 2)
		vals := SimulateParallel(n, patterns, pool)
		before := make(map[circuit.NodeID][]uint64)
		for _, id := range n.LiveNodes() {
			before[id] = append([]uint64(nil), vals.Node(id).WordsSlice()...)
		}

		// One substitution edit: rewire the fanouts of a gate onto a fresh
		// NOT of one of its cone-external peers, then sweep.
		var target, sub circuit.NodeID
		found := false
		for _, tt := range n.LiveNodes() {
			if !n.Kind(tt).IsGate() {
				continue
			}
			tfo := n.TransitiveFanoutCone(tt)
			for _, ss := range n.LiveNodes() {
				if ss != tt && !tfo[ss] && (n.Kind(ss).IsGate() || n.Kind(ss) == circuit.KindInput) {
					target, sub, found = tt, ss, true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatal("no substitution available")
		}
		repl := n.AddGate(circuit.KindNot, sub)
		rewired := append([]circuit.NodeID(nil), n.Fanouts(target)...)
		n.ReplaceNode(target, repl)
		removed, _ := n.SweepFromCollect(target)

		seeds := append(append([]circuit.NodeID(nil), rewired...), repl)
		resimmed, changed := ResimulateFrom(n, vals, seeds, pool)
		for _, id := range removed {
			vals.Drop(id)
		}

		fresh := SimulateParallel(n, patterns, pool)
		for _, id := range n.LiveNodes() {
			if !vals.Node(id).Equal(fresh.Node(id)) {
				t.Fatalf("workers=%d: node %d diverges from fresh simulation", workers, id)
			}
		}

		// changed must be exactly the live nodes whose vectors moved.
		changedSet := make(map[circuit.NodeID]bool, len(changed))
		for _, id := range changed {
			changedSet[id] = true
		}
		resimSet := make(map[circuit.NodeID]bool, len(resimmed))
		for _, id := range resimmed {
			resimSet[id] = true
		}
		for _, id := range n.LiveNodes() {
			old, had := before[id]
			if !had {
				continue // added node, outside the before snapshot
			}
			moved := false
			now := vals.Node(id).WordsSlice()
			for w := range now {
				if now[w] != old[w] {
					moved = true
					break
				}
			}
			if moved && !changedSet[id] {
				t.Fatalf("workers=%d: node %d changed value but is not reported", workers, id)
			}
			if changedSet[id] && !moved {
				t.Fatalf("workers=%d: node %d reported changed but its vector is identical", workers, id)
			}
			if changedSet[id] && !resimSet[id] {
				t.Fatalf("workers=%d: node %d changed but was not resimulated", workers, id)
			}
		}
		pool.Close()
	}
}

package circuit

import (
	"math/rand"
	"slices"
	"testing"
)

// mapMFFCExcluding is the reference MFFC walk: a recursive closure over
// two maps and an output-list scan per driver test. AppendMFFC must
// return exactly its nodes, in its order.
func mapMFFCExcluding(n *Network, root, keep NodeID) []NodeID {
	refDrop := make(map[NodeID]int)
	var mffc []NodeID
	inCone := make(map[NodeID]bool)
	var visit func(id NodeID)
	visit = func(id NodeID) {
		if inCone[id] {
			return
		}
		inCone[id] = true
		mffc = append(mffc, id)
		for _, f := range n.nodes[id].Fanins {
			if n.nodes[f].Kind == KindInput || f == keep {
				continue
			}
			refDrop[f]++
			if refDrop[f] == len(n.nodes[f].fanouts) && !n.isOutputDriver(f) {
				visit(f)
			}
		}
	}
	if n.nodes[root].Kind == KindInput || root == keep {
		return nil
	}
	visit(root)
	return mffc
}

// randomMFFCNetwork is randomNetwork with the shapes the MFFC walk must
// count right: gates that read one fanin twice, wide gates, and outputs
// on internal nodes (some driven twice).
func randomMFFCNetwork(t *testing.T, r *rand.Rand, nin, ngates int) *Network {
	t.Helper()
	n := New("mffc")
	pool := make([]NodeID, 0, nin+ngates)
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(""))
	}
	kinds := []Kind{KindAnd, KindOr, KindNand, KindXor, KindNot}
	for i := 0; i < ngates; i++ {
		k := kinds[r.Intn(len(kinds))]
		pick := func() NodeID { return pool[len(pool)-1-r.Intn(min(len(pool), 12))] }
		var id NodeID
		switch {
		case k == KindNot:
			id = n.AddGate(k, pick())
		case r.Intn(6) == 0:
			f := pick()
			id = n.AddGate(k, f, pick(), f)
		default:
			id = n.AddGate(k, pick(), pick())
		}
		pool = append(pool, id)
	}
	for _, id := range pool[nin:] {
		if len(n.Fanouts(id)) == 0 || r.Intn(10) == 0 {
			n.AddOutput("", id)
			if r.Intn(4) == 0 {
				n.AddOutput("", id)
			}
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestMFFCMatchesMapWalk holds the slot-indexed walk to the map walk it
// replaced, node for node and in order (the gather sums gate areas in
// this order, so the order is part of its float result), on random DAGs,
// for every root with no pin, a random pin and every pin inside the
// root's cone. One scratch serves every network, larger and smaller ones
// in turn, so a count or mark left by an earlier walk would show.
func TestMFFCMatchesMapWalk(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var s MFFCScratch
	var dst []NodeID
	for trial := 0; trial < 40; trial++ {
		n := randomMFFCNetwork(t, r, 3+r.Intn(6), 5+r.Intn(120))
		check := func(root, keep NodeID) {
			t.Helper()
			want := mapMFFCExcluding(n, root, keep)
			dst = n.AppendMFFC(dst[:0], &s, root, keep)
			if !slices.Equal(dst, want) {
				t.Fatalf("trial %d root %d keep %d: walk %v, map walk %v", trial, root, keep, dst, want)
			}
			if got := n.MFFCExcluding(root, keep); !slices.Equal(got, want) {
				t.Fatalf("trial %d root %d keep %d: MFFCExcluding %v, map walk %v", trial, root, keep, got, want)
			}
		}
		for _, root := range n.LiveNodes() {
			check(root, InvalidNode)
			check(root, NodeID(r.Intn(n.NumSlots())))
			for _, keep := range mapMFFCExcluding(n, root, InvalidNode) {
				check(root, keep)
			}
		}
	}
}

// TestAppendMFFCAllocs pins that a walk with a warmed scratch and a
// result buffer with room allocates nothing.
func TestAppendMFFCAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := randomMFFCNetwork(t, r, 6, 200)
	var s MFFCScratch
	var dst []NodeID
	gates := n.LiveNodes()[6:]
	for _, root := range gates {
		dst = n.AppendMFFC(dst[:0], &s, root, InvalidNode)
	}
	dst = slices.Grow(dst[:0], n.NumSlots())
	if allocs := testing.AllocsPerRun(20, func() {
		for _, root := range gates {
			dst = n.AppendMFFC(dst[:0], &s, root, InvalidNode)
		}
	}); allocs != 0 {
		t.Fatalf("a warmed MFFC walk allocates %v times per run, want 0", allocs)
	}
}

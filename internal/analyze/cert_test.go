package analyze

import (
	"testing"

	"batchals/internal/bench"
	"batchals/internal/circuit"
)

// referenceCertificate is the certificate by its definition: one cone walk
// per live node, exact iff the walk finds no merge point.
func referenceCertificate(n *circuit.Network) *Certificate {
	c := &Certificate{exact: make([]bool, n.NumSlots())}
	w := newConeWalker(n)
	for _, id := range n.LiveNodes() {
		c.assessed++
		if w.firstMerge(id) == circuit.InvalidNode {
			c.exact[id] = true
			c.numExact++
		}
	}
	return c
}

// TestCertificateMatchesPerNodeWalk pins the reverse-topological pass and
// its two pruning rules against the per-node walk, node for node, on every
// registered circuit and a 3000-gate Tiled one.
func TestCertificateMatchesPerNodeWalk(t *testing.T) {
	names := append(bench.Names(), "synth3k")
	for _, name := range names {
		var n *circuit.Network
		if name == "synth3k" {
			n = bench.Tiled("synth3k", 64, 64, 3000, 10)
		} else {
			var err error
			if n, err = bench.ByName(name); err != nil {
				t.Fatal(err)
			}
		}
		got, want := ExactnessCertificate(n), referenceCertificate(n)
		for id := 0; id < n.NumSlots(); id++ {
			if g, w := got.Exact(circuit.NodeID(id)), want.Exact(circuit.NodeID(id)); g != w {
				t.Fatalf("%s: node %s exact=%v, per-node walk says %v", name, n.NameOf(circuit.NodeID(id)), g, w)
			}
		}
		if got.NumExact() != want.NumExact() || got.NumNodes() != want.NumNodes() {
			t.Fatalf("%s: %d/%d exact, per-node walk %d/%d",
				name, got.NumExact(), got.NumNodes(), want.NumExact(), want.NumNodes())
		}
	}
}

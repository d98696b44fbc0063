package sim

import (
	"math/rand"
	"testing"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
)

func adder2(t testing.TB) *circuit.Network {
	t.Helper()
	// 2-bit adder: s = a + b, 3 output bits.
	n := circuit.New("add2")
	a0 := n.AddInput("a0")
	a1 := n.AddInput("a1")
	b0 := n.AddInput("b0")
	b1 := n.AddInput("b1")
	s0 := n.AddGate(circuit.KindXor, a0, b0)
	c0 := n.AddGate(circuit.KindAnd, a0, b0)
	x1 := n.AddGate(circuit.KindXor, a1, b1)
	s1 := n.AddGate(circuit.KindXor, x1, c0)
	c1a := n.AddGate(circuit.KindAnd, a1, b1)
	c1b := n.AddGate(circuit.KindAnd, x1, c0)
	c1 := n.AddGate(circuit.KindOr, c1a, c1b)
	n.AddOutput("s0", s0)
	n.AddOutput("s1", s1)
	n.AddOutput("s2", c1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExhaustivePatternsCoverAllAssignments(t *testing.T) {
	for _, nin := range []int{1, 3, 6, 7, 8} {
		p := ExhaustivePatterns(nin)
		if p.NumPatterns() != 1<<uint(nin) {
			t.Fatalf("nin=%d: %d patterns", nin, p.NumPatterns())
		}
		seen := make(map[uint32]bool)
		for i := 0; i < p.NumPatterns(); i++ {
			var key uint32
			for k := 0; k < nin; k++ {
				if p.Bit(i, k) {
					key |= 1 << uint(k)
				}
			}
			if seen[key] {
				t.Fatalf("nin=%d: duplicate assignment %b", nin, key)
			}
			seen[key] = true
		}
	}
}

func TestAdderExhaustive(t *testing.T) {
	n := adder2(t)
	p := ExhaustivePatterns(4)
	v := Simulate(n, p)
	for i := 0; i < p.NumPatterns(); i++ {
		a := b2i(p.Bit(i, 0)) + 2*b2i(p.Bit(i, 1))
		b := b2i(p.Bit(i, 2)) + 2*b2i(p.Bit(i, 3))
		sum := 0
		for o, out := range n.Outputs() {
			if v.Bit(out.Node, i) {
				sum += 1 << uint(o)
			}
		}
		if sum != a+b {
			t.Fatalf("pattern %d: %d+%d=%d got %d", i, a, b, a+b, sum)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSimulateMatchesEvalOne(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := randomNetwork(t, r, 9, 80)
	p := RandomPatterns(n.NumInputs(), 500, 99)
	v := Simulate(n, p)
	in := make([]bool, n.NumInputs())
	for i := 0; i < 100; i++ {
		pi := r.Intn(p.NumPatterns())
		for k := range in {
			in[k] = p.Bit(pi, k)
		}
		want := EvalOne(n, in)
		for o, out := range n.Outputs() {
			if v.Bit(out.Node, pi) != want[o] {
				t.Fatalf("pattern %d output %d mismatch", pi, o)
			}
		}
	}
}

func randomNetwork(t testing.TB, r *rand.Rand, nin, ngates int) *circuit.Network {
	t.Helper()
	n := circuit.New("rand")
	pool := make([]circuit.NodeID, 0, nin+ngates)
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(""))
	}
	kinds := []circuit.Kind{circuit.KindAnd, circuit.KindOr, circuit.KindNand,
		circuit.KindNor, circuit.KindXor, circuit.KindXnor, circuit.KindNot}
	for i := 0; i < ngates; i++ {
		k := kinds[r.Intn(len(kinds))]
		var id circuit.NodeID
		if k == circuit.KindNot {
			id = n.AddGate(k, pool[r.Intn(len(pool))])
		} else {
			id = n.AddGate(k, pool[r.Intn(len(pool))], pool[r.Intn(len(pool))])
		}
		pool = append(pool, id)
	}
	for _, id := range pool {
		if len(n.Fanouts(id)) == 0 {
			n.AddOutput("", id)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRandomPatternsDeterministic(t *testing.T) {
	a := RandomPatterns(7, 333, 42)
	b := RandomPatterns(7, 333, 42)
	for k := 0; k < 7; k++ {
		if !a.InputRow(k).Equal(b.InputRow(k)) {
			t.Fatal("same seed differs")
		}
	}
	c := RandomPatterns(7, 333, 43)
	same := true
	for k := 0; k < 7; k++ {
		if !a.InputRow(k).Equal(c.InputRow(k)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestResimulateConeMatchesFullSim(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := randomNetwork(t, r, 6, 50)
		p := RandomPatterns(6, 200, int64(trial))
		v := Simulate(n, p)
		// Force a random gate to the value of another random node, then
		// resimulate the cone and compare to simulating a modified network.
		var gates []circuit.NodeID
		for _, id := range n.LiveNodes() {
			if n.Kind(id).IsGate() {
				gates = append(gates, id)
			}
		}
		root := gates[r.Intn(len(gates))]
		// New value: complement of current.
		nv := v.Node(root).Clone()
		nv.Not(nv)
		v.Node(root).CopyFrom(nv)
		ResimulateCone(n, v, root)

		// Reference: rebuild network with root complemented via EvalOne.
		in := make([]bool, 6)
		for i := 0; i < 50; i++ {
			pi := r.Intn(p.NumPatterns())
			for k := range in {
				in[k] = p.Bit(pi, k)
			}
			want := evalOneForced(n, in, root)
			for o, out := range n.Outputs() {
				if v.Bit(out.Node, pi) != want[o] {
					t.Fatalf("trial %d pattern %d output %d mismatch", trial, pi, o)
				}
			}
		}
	}
}

// evalOneForced evaluates with node `forced` complemented.
func evalOneForced(n *circuit.Network, inputs []bool, forced circuit.NodeID) []bool {
	val := make([]bool, n.NumSlots())
	for k, in := range n.Inputs() {
		val[in] = inputs[k]
	}
	var buf []bool
	for _, id := range n.TopoOrder() {
		kind := n.Kind(id)
		if kind != circuit.KindInput {
			buf = buf[:0]
			for _, f := range n.Fanins(id) {
				buf = append(buf, val[f])
			}
			val[id] = kind.Eval(buf)
		}
		if id == forced {
			val[id] = !val[id]
		}
	}
	outs := make([]bool, n.NumOutputs())
	for o, out := range n.Outputs() {
		outs[o] = val[out.Node]
	}
	return outs
}

func TestSnapshotRestore(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := randomNetwork(t, r, 5, 30)
	p := RandomPatterns(5, 100, 1)
	v := Simulate(n, p)
	ref := v.Clone()
	var gates []circuit.NodeID
	for _, id := range n.LiveNodes() {
		if n.Kind(id).IsGate() {
			gates = append(gates, id)
		}
	}
	root := gates[r.Intn(len(gates))]
	snap := SnapshotCone(n, v, root)
	v.Node(root).Not(v.Node(root))
	ResimulateCone(n, v, root)
	snap.Restore(v)
	for _, id := range n.LiveNodes() {
		if !v.Node(id).Equal(ref.Node(id)) {
			t.Fatalf("node %d not restored", id)
		}
	}
}

func TestOutputMatrix(t *testing.T) {
	n := adder2(t)
	p := ExhaustivePatterns(4)
	v := Simulate(n, p)
	m := OutputMatrix(n, v)
	if m.Rows() != 3 || m.Bits() != 16 {
		t.Fatalf("matrix dims %dx%d", m.Rows(), m.Bits())
	}
	for o, out := range n.Outputs() {
		if !m.Row(o).Equal(v.Node(out.Node)) {
			t.Fatal("row mismatch")
		}
	}
}

// TestCompactIntoRefillsTable holds CompactInto, refilling one table and
// one arena over a sequence of selections that grow and shrink the
// compacted pattern count, to a fresh Compact of each selection, vector
// for vector; dropped nodes stay dropped.
func TestCompactIntoRefillsTable(t *testing.T) {
	n := adder2(t)
	vals := Simulate(n, RandomPatterns(n.NumInputs(), 700, 3))
	r := rand.New(rand.NewSource(8))
	arena := bitvec.NewArena(1, n.NumSlots())
	var table *Values
	for trial, density := range []float64{0.02, 0.3, 0.9, 0.1, 0, 0.5} {
		sel := bitvec.New(vals.M)
		for i := 0; i < vals.M; i++ {
			if r.Float64() < density {
				sel.Set(i, true)
			}
		}
		want := vals.Compact(sel)
		table = vals.CompactInto(table, sel, arena)
		if table.M != want.M || len(table.vecs) != len(want.vecs) {
			t.Fatalf("trial %d: table over %d patterns, %d slots; want %d, %d", trial, table.M, len(table.vecs), want.M, len(want.vecs))
		}
		for id := range want.vecs {
			if (want.vecs[id] == nil) != (table.vecs[id] == nil) ||
				want.vecs[id] != nil && !want.vecs[id].Equal(table.vecs[id]) {
				t.Fatalf("trial %d: node %d differs from a fresh Compact", trial, id)
			}
		}
	}
}

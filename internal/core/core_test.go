package core

import (
	"math"
	"math/rand"
	"testing"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/sim"
)

// actualChangedOutputs computes ground truth: the outputs that really flip
// when node nx's value vector is complemented on the mask, via cone
// resimulation. Returns one M-bit vector per output marking flipped
// patterns.
func actualChangedOutputs(n *circuit.Network, vals *sim.Values, nx circuit.NodeID, mask *bitvec.Vec) []*bitvec.Vec {
	before := sim.OutputMatrix(n, vals)
	snap := sim.SnapshotCone(n, vals, nx)
	nv := vals.Node(nx).Clone()
	nv.Xor(nv, mask)
	vals.Node(nx).CopyFrom(nv)
	sim.ResimulateCone(n, vals, nx)
	after := sim.OutputMatrix(n, vals)
	snap.Restore(vals)
	out := make([]*bitvec.Vec, n.NumOutputs())
	for o := range out {
		out[o] = bitvec.New(vals.M).Xor(before.Row(o), after.Row(o))
	}
	return out
}

// randomTree builds a random forest network where every node has at most
// one fanout, so the CPM is provably exact on it.
func randomTree(t testing.TB, r *rand.Rand, nin, ngates int) *circuit.Network {
	t.Helper()
	n := circuit.New("tree")
	avail := make([]circuit.NodeID, 0, nin+ngates)
	for i := 0; i < nin; i++ {
		avail = append(avail, n.AddInput(""))
	}
	kinds := []circuit.Kind{circuit.KindAnd, circuit.KindOr, circuit.KindNand,
		circuit.KindNor, circuit.KindXor, circuit.KindXnor, circuit.KindNot}
	take := func() circuit.NodeID {
		i := r.Intn(len(avail))
		id := avail[i]
		avail = append(avail[:i], avail[i+1:]...)
		return id
	}
	for g := 0; g < ngates && len(avail) >= 2; g++ {
		k := kinds[r.Intn(len(kinds))]
		var id circuit.NodeID
		if k == circuit.KindNot {
			id = n.AddGate(k, take())
		} else {
			id = n.AddGate(k, take(), take())
		}
		avail = append(avail, id)
	}
	for _, id := range avail {
		n.AddOutput("", id)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func randomDAG(t testing.TB, r *rand.Rand, nin, ngates int) *circuit.Network {
	t.Helper()
	n := circuit.New("dag")
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

func gatesOf(n *circuit.Network) []circuit.NodeID {
	var gs []circuit.NodeID
	for _, id := range n.LiveNodes() {
		if n.Kind(id).IsGate() {
			gs = append(gs, id)
		}
	}
	return gs
}

func TestBoolDiffANDExample(t *testing.T) {
	// Example 4.2 of the paper: N1 = I1 AND I2; dN1/dI1 = I2.
	n := circuit.New("ex")
	i1 := n.AddInput("I1")
	i2 := n.AddInput("I2")
	n1 := n.AddGate(circuit.KindAnd, i1, i2)
	n.AddOutput("O", n1)
	p := sim.ExhaustivePatterns(2)
	vals := sim.Simulate(n, p)
	d := bitvec.New(4)
	boolDiff(n, vals, i1, n1, d)
	if !d.Equal(vals.Node(i2)) {
		t.Fatalf("dN1/dI1 = %v, want value of I2 = %v", d, vals.Node(i2))
	}
	boolDiff(n, vals, i2, n1, d)
	if !d.Equal(vals.Node(i1)) {
		t.Fatalf("dN1/dI2 wrong")
	}
}

func TestBoolDiffXORAlwaysOne(t *testing.T) {
	n := circuit.New("x")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate(circuit.KindXor, a, b)
	n.AddOutput("o", g)
	p := sim.RandomPatterns(2, 100, 1)
	vals := sim.Simulate(n, p)
	d := bitvec.New(100)
	boolDiff(n, vals, a, g, d)
	if d.Count() != 100 {
		t.Fatal("XOR Boolean difference must be constant 1")
	}
}

func TestBoolDiffMultiPin(t *testing.T) {
	// g = AND(x, x): flipping x always flips g (g == x).
	n := circuit.New("mp")
	x := n.AddInput("x")
	g := n.AddGate(circuit.KindAnd, x, x)
	n.AddOutput("o", g)
	p := sim.ExhaustivePatterns(1)
	vals := sim.Simulate(n, p)
	d := bitvec.New(2)
	boolDiff(n, vals, x, g, d)
	if d.Count() != 2 {
		t.Fatalf("d(AND(x,x))/dx should be 1 everywhere, got %v", d)
	}
	// h = XOR(x, x) is constant 0; flipping x never changes it.
	n2 := circuit.New("mp2")
	x2 := n2.AddInput("x")
	h := n2.AddGate(circuit.KindXor, x2, x2)
	n2.AddOutput("o", h)
	v2 := sim.Simulate(n2, sim.ExhaustivePatterns(1))
	d2 := bitvec.New(2)
	boolDiff(n2, v2, x2, h, d2)
	if d2.Any() {
		t.Fatalf("d(XOR(x,x))/dx should be 0, got %v", d2)
	}
}

func TestCPMOutputDriverBaseCase(t *testing.T) {
	n := circuit.New("base")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate(circuit.KindAnd, a, b)
	n.AddOutput("o0", g)
	n.AddOutput("o1", g) // same driver, two outputs
	p := sim.RandomPatterns(2, 70, 2)
	vals := sim.Simulate(n, p)
	c := Build(n, vals)
	for o := 0; o < 2; o++ {
		if c.Prop(g, o).Count() != 70 {
			t.Fatalf("output driver must propagate to output %d always", o)
		}
	}
}

func TestCPMExactOnTrees(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		n := randomTree(t, r, 8, 20)
		p := sim.RandomPatterns(n.NumInputs(), 256, int64(trial))
		vals := sim.Simulate(n, p)
		c := Build(n, vals)
		full := bitvec.New(256)
		full.Fill()
		for _, nx := range n.LiveNodes() {
			want := actualChangedOutputs(n, vals, nx, full)
			for o := 0; o < n.NumOutputs(); o++ {
				if !c.Prop(nx, o).Equal(want[o]) {
					t.Fatalf("trial %d: CPM not exact on tree at node %d output %d", trial, nx, o)
				}
			}
		}
	}
}

func TestCPMReconvergenceKnownFailure(t *testing.T) {
	// O = XOR(BUF(x), NOT(x)) is constant 1: flipping x never changes O.
	// The CPM, evaluating each Boolean difference at unperturbed side
	// values, predicts propagation — the documented limitation (§4.3).
	n := circuit.New("reconv")
	x := n.AddInput("x")
	n1 := n.AddGate(circuit.KindBuf, x)
	n2 := n.AddGate(circuit.KindNot, x)
	o := n.AddGate(circuit.KindXor, n1, n2)
	n.AddOutput("O", o)
	p := sim.ExhaustivePatterns(1)
	vals := sim.Simulate(n, p)
	c := Build(n, vals)
	full := bitvec.New(2)
	full.Fill()
	truth := actualChangedOutputs(n, vals, x, full)
	if truth[0].Any() {
		t.Fatal("sanity: flipping x must not change constant output")
	}
	if !c.Prop(x, 0).Any() {
		t.Fatal("expected the documented reconvergence over-approximation; CPM returned exact result")
	}
}

func TestCPMCloseOnRandomDAGs(t *testing.T) {
	// On general DAGs the CPM is an approximation; check per-node
	// prediction accuracy stays high in aggregate.
	r := rand.New(rand.NewSource(77))
	totalBits, wrongBits := 0, 0
	for trial := 0; trial < 10; trial++ {
		n := randomDAG(t, r, 8, 60)
		p := sim.RandomPatterns(8, 256, int64(trial))
		vals := sim.Simulate(n, p)
		c := Build(n, vals)
		full := bitvec.New(256)
		full.Fill()
		for _, nx := range gatesOf(n) {
			want := actualChangedOutputs(n, vals, nx, full)
			for o := 0; o < n.NumOutputs(); o++ {
				diff := bitvec.New(256).Xor(c.Prop(nx, o), want[o])
				wrongBits += diff.Count()
				totalBits += 256
			}
		}
	}
	frac := float64(wrongBits) / float64(totalBits)
	if frac > 0.10 {
		t.Fatalf("CPM disagrees with ground truth on %.1f%% of entries; expected high accuracy", frac*100)
	}
}

// buildApproxPair returns a golden DAG, an identical working copy, its
// simulation and error state (zero error initially).
func buildApproxPair(t testing.TB, r *rand.Rand, nin, ngates, m int, seed int64) (golden, approx *circuit.Network, p *sim.Patterns, vals *sim.Values, st *emetric.State) {
	golden = randomDAG(t, r, nin, ngates)
	approx = golden.Clone()
	p = sim.RandomPatterns(nin, m, seed)
	gv := sim.Simulate(golden, p)
	vals = sim.Simulate(approx, p)
	st = emetric.NewState(sim.OutputMatrix(golden, gv), sim.OutputMatrix(approx, vals))
	return
}

func TestDeltaERMatchesExactOnTrees(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		golden := randomTree(t, r, 8, 18)
		approx := golden.Clone()
		p := sim.RandomPatterns(8, 512, int64(trial))
		gv := sim.Simulate(golden, p)
		vals := sim.Simulate(approx, p)
		st := emetric.NewState(sim.OutputMatrix(golden, gv), sim.OutputMatrix(approx, vals))
		c := Build(approx, vals)
		gates := gatesOf(approx)
		for k := 0; k < 10; k++ {
			nx := gates[r.Intn(len(gates))]
			// Candidate AT: force nx to a random flip mask.
			change := bitvec.New(512)
			for i := 0; i < 512; i++ {
				if r.Intn(4) == 0 {
					change.Set(i, true)
				}
			}
			newVal := vals.Node(nx).Clone()
			newVal.Xor(newVal, change)
			got := c.DeltaER(nx, change, st)
			want := ExactDelta(approx, vals, nx, newVal, st, MetricER)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d node %d: DeltaER=%v exact=%v", trial, nx, got, want)
			}
		}
	}
}

func TestDeltaERNegativeWhenFixing(t *testing.T) {
	// Corrupt the approximate circuit at one node, then the AT that undoes
	// the corruption must report a negative (improving) ΔER equal to -ER.
	n := circuit.New("fix")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate(circuit.KindAnd, a, b)
	n.AddOutput("o", g)
	approx := circuit.New("fix2")
	a2 := approx.AddInput("a")
	b2 := approx.AddInput("b")
	g2 := approx.AddGate(circuit.KindOr, a2, b2) // wrong gate
	approx.AddOutput("o", g2)

	p := sim.ExhaustivePatterns(2)
	gv := sim.Simulate(n, p)
	av := sim.Simulate(approx, p)
	st := emetric.NewState(sim.OutputMatrix(n, gv), sim.OutputMatrix(approx, av))
	if st.ErrorRate() != 0.5 {
		t.Fatalf("sanity: OR vs AND differ on 2 of 4 patterns, ER=%v", st.ErrorRate())
	}
	c := Build(approx, av)
	// AT: change g2 back to AND; change mask = patterns where OR != AND.
	change := bitvec.New(4).Xor(av.Node(g2), gv.Node(g))
	got := c.DeltaER(g2, change, st)
	if math.Abs(got-(-0.5)) > 1e-12 {
		t.Fatalf("ΔER=%v want -0.5", got)
	}
}

func TestDeltaERCloseOnDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	var sumAbs, worst float64
	count := 0
	for trial := 0; trial < 12; trial++ {
		_, approx, _, vals, st := buildApproxPair(t, r, 9, 70, 1024, int64(trial))
		c := Build(approx, vals)
		gates := gatesOf(approx)
		for k := 0; k < 12; k++ {
			nx := gates[r.Intn(len(gates))]
			ns := gates[r.Intn(len(gates))]
			if nx == ns || approx.TransitiveFanoutCone(nx)[ns] {
				continue
			}
			// Substitution-style AT: nx takes ns's value vector.
			change := bitvec.New(1024).Xor(vals.Node(nx), vals.Node(ns))
			got := c.DeltaER(nx, change, st)
			want := ExactDelta(approx, vals, nx, vals.Node(ns), st, MetricER)
			d := math.Abs(got - want)
			sumAbs += d
			if d > worst {
				worst = d
			}
			count++
		}
	}
	if count == 0 {
		t.Fatal("no candidates evaluated")
	}
	if avg := sumAbs / float64(count); avg > 0.02 || worst > 0.25 {
		t.Fatalf("ΔER estimate too loose: mean |err| %.4f worst %.4f over %d ATs", avg, worst, count)
	}
}

func TestDeltaAEMMatchesExactOnTrees(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		golden := randomTree(t, r, 8, 16)
		approx := golden.Clone()
		p := sim.RandomPatterns(8, 512, int64(trial)+50)
		gv := sim.Simulate(golden, p)
		vals := sim.Simulate(approx, p)
		st := emetric.NewState(sim.OutputMatrix(golden, gv), sim.OutputMatrix(approx, vals))
		c := Build(approx, vals)
		gates := gatesOf(approx)
		for k := 0; k < 8; k++ {
			nx := gates[r.Intn(len(gates))]
			change := bitvec.New(512)
			for i := 0; i < 512; i++ {
				if r.Intn(5) == 0 {
					change.Set(i, true)
				}
			}
			newVal := vals.Node(nx).Clone()
			newVal.Xor(newVal, change)
			got := c.DeltaAEM(nx, change, st)
			want := ExactDelta(approx, vals, nx, newVal, st, MetricAEM)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d node %d: ΔAEM=%v exact=%v", trial, nx, got, want)
			}
		}
	}
}

func TestDeltaZeroForEmptyChange(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	_, approx, _, vals, st := buildApproxPair(t, r, 6, 30, 128, 1)
	c := Build(approx, vals)
	nx := gatesOf(approx)[0]
	empty := bitvec.New(128)
	if c.DeltaER(nx, empty, st) != 0 || c.DeltaAEM(nx, empty, st) != 0 {
		t.Fatal("empty change mask must give zero delta")
	}
}

func TestObservabilityBounds(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	n := randomDAG(t, r, 7, 50)
	p := sim.RandomPatterns(7, 256, 4)
	vals := sim.Simulate(n, p)
	c := Build(n, vals)
	for _, id := range n.LiveNodes() {
		ob := c.Observability(id)
		if ob < 0 || ob > 1 {
			t.Fatalf("observability %v out of range", ob)
		}
	}
	// An output driver is fully observable.
	drv := n.Outputs()[0].Node
	if c.Observability(drv) != 1 {
		t.Fatal("output driver must have observability 1")
	}
}

func TestMetricString(t *testing.T) {
	if MetricER.String() != "ER" || MetricAEM.String() != "AEM" {
		t.Fatal("metric names wrong")
	}
}

package core

import (
	"strings"
	"testing"

	"batchals/internal/circuit"
	"batchals/internal/sim"
)

func TestTestabilityReport(t *testing.T) {
	// o = AND(a, AND(b, AND(c, d))): the deep AND is rarely 1 and fully
	// observable at the single output; the shallow ANDs are masked.
	n := circuit.New("tb")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	g1 := n.AddGate(circuit.KindAnd, c, d)
	g2 := n.AddGate(circuit.KindAnd, b, g1)
	g3 := n.AddGate(circuit.KindAnd, a, g2)
	n.AddOutput("o", g3)

	p := sim.ExhaustivePatterns(4)
	vals := sim.Simulate(n, p)
	cpm := BuildAnyProp(n, vals, nil)
	rows := TestabilityReport(n, vals, cpm)
	if len(rows) != 3 {
		t.Fatalf("rows=%d want 3", len(rows))
	}
	byNode := map[circuit.NodeID]NodeTestability{}
	for _, r := range rows {
		byNode[r.Node] = r
		if r.Prob1 < 0 || r.Prob1 > 1 || r.Observability < 0 || r.Observability > 1 {
			t.Fatalf("out-of-range measures: %+v", r)
		}
	}
	// Output driver: observability 1, P(1) = 1/16.
	if byNode[g3].Observability != 1 {
		t.Fatalf("output driver observability %v", byNode[g3].Observability)
	}
	if byNode[g3].Prob1 != 1.0/16 {
		t.Fatalf("P1(g3)=%v want 1/16", byNode[g3].Prob1)
	}
	// g1 is observable only when a=b=1: 1/4 of patterns.
	if byNode[g1].Observability != 0.25 {
		t.Fatalf("observability(g1)=%v want 0.25", byNode[g1].Observability)
	}
	// Tree circuit: CPM observability is exact here.
	out := RenderTestability(rows, 2)
	if !strings.Contains(out, "observ") || len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("render wrong:\n%s", out)
	}
}

func TestTestabilityImpactOrdering(t *testing.T) {
	// A node feeding no masking logic has higher impact than one behind
	// heavy masking with the same signal probability.
	n := circuit.New("imp")
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.AddGate(circuit.KindXor, a, b) // directly observable
	deep := n.AddGate(circuit.KindXor, a, b)
	blocked := n.AddGate(circuit.KindAnd, deep, n.AddConst(false)) // fully masked
	n.AddOutput("o1", x)
	n.AddOutput("o2", blocked)
	p := sim.ExhaustivePatterns(2)
	vals := sim.Simulate(n, p)
	cpm := BuildAnyProp(n, vals, nil)
	rows := TestabilityReport(n, vals, cpm)
	var xi, di NodeTestability
	for _, r := range rows {
		if r.Node == x {
			xi = r
		}
		if r.Node == deep {
			di = r
		}
	}
	if !(xi.Impact > di.Impact) {
		t.Fatalf("impact ordering wrong: visible %v vs masked %v", xi.Impact, di.Impact)
	}
	if di.Observability != 0 {
		t.Fatalf("masked node observability %v want 0", di.Observability)
	}
}

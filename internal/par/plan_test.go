package par

import (
	"math/rand"
	"testing"
)

// checkPlan asserts the structural invariants every plan must satisfy:
// the bins partition 0..n-1 (disjoint, full cover), bin loads are in
// descending order, and maxLoad - minLoad is bounded by the largest item
// cost (the LPT guarantee).
func checkPlan(t *testing.T, costs []float64, bins [][]int, wantBins int) {
	t.Helper()
	n := len(costs)
	if len(bins) != wantBins {
		t.Fatalf("got %d bins, want %d", len(bins), wantBins)
	}
	seen := make([]bool, n)
	total := 0
	for _, bin := range bins {
		for _, it := range bin {
			if it < 0 || it >= n {
				t.Fatalf("item %d out of range [0,%d)", it, n)
			}
			if seen[it] {
				t.Fatalf("item %d assigned twice", it)
			}
			seen[it] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("bins cover %d items, want %d", total, n)
	}

	load := func(bin []int) float64 {
		s := 0.0
		for _, it := range bin {
			c := costs[it]
			if c < 0 {
				c = 0
			}
			s += c
		}
		return s
	}
	maxCost := 0.0
	for _, c := range costs {
		if c > maxCost {
			maxCost = c
		}
	}
	prev := -1.0
	minLoad, maxLoad := load(bins[0]), load(bins[0])
	for i, bin := range bins {
		l := load(bin)
		if i > 0 && l > prev+1e-9 {
			t.Fatalf("bin %d load %.3f exceeds previous bin load %.3f (want descending)", i, l, prev)
		}
		prev = l
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad-minLoad > maxCost+1e-9 {
		t.Fatalf("balance bound violated: spread %.3f > max item cost %.3f", maxLoad-minLoad, maxCost)
	}
}

func TestPlannerPartitionAndBalance(t *testing.T) {
	var p Planner
	cases := []struct {
		name  string
		costs []float64
		bins  int
	}{
		{"uniform", []float64{1, 1, 1, 1, 1, 1, 1, 1}, 3},
		{"skewed", []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 4},
		{"single", []float64{5}, 4},
		{"more-bins-than-items", []float64{3, 2}, 8},
		{"zeros", []float64{0, 0, 0, 5, 0}, 2},
		{"negative-clamped", []float64{-3, 2, 4, -1, 7}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.bins
			if want > len(tc.costs) {
				want = len(tc.costs)
			}
			bins := p.Plan(tc.costs, tc.bins)
			checkPlan(t, tc.costs, bins, want)
		})
	}
}

func TestPlannerPropertyRandom(t *testing.T) {
	var p Planner
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		bins := 1 + rng.Intn(20)
		costs := make([]float64, n)
		for i := range costs {
			// Mix heavy-tailed and uniform costs so some trials have one
			// dominating item (the regime the bound matters in).
			if rng.Intn(10) == 0 {
				costs[i] = float64(rng.Intn(1000))
			} else {
				costs[i] = rng.Float64() * 10
			}
		}
		want := bins
		if want > n {
			want = n
		}
		got := p.Plan(costs, bins)
		checkPlan(t, costs, got, want)
	}
}

// TestPlannerDeterministic pins that Plan is a pure function of its
// inputs: same costs and bin count give the identical partition across
// calls and across fresh Planner values, including under cost ties where
// only the index tiebreak disambiguates.
func TestPlannerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := make([]float64, 60)
	for i := range costs {
		costs[i] = float64(rng.Intn(5)) // heavy ties on purpose
	}
	var p1, p2 Planner
	ref := clonePlan(p1.Plan(costs, 7))
	for trial := 0; trial < 5; trial++ {
		for _, got := range [][][]int{p1.Plan(costs, 7), p2.Plan(costs, 7)} {
			if len(got) != len(ref) {
				t.Fatalf("bin count varies: %d vs %d", len(got), len(ref))
			}
			for b := range got {
				if len(got[b]) != len(ref[b]) {
					t.Fatalf("bin %d size varies: %d vs %d", b, len(got[b]), len(ref[b]))
				}
				for i := range got[b] {
					if got[b][i] != ref[b][i] {
						t.Fatalf("bin %d item %d varies: %d vs %d", b, i, got[b][i], ref[b][i])
					}
				}
			}
		}
	}
}

func clonePlan(bins [][]int) [][]int {
	out := make([][]int, len(bins))
	for i, b := range bins {
		out[i] = append([]int(nil), b...)
	}
	return out
}

func TestPlanBins(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{100, 4, 16},
		{10, 4, 10},
		{0, 4, 1},
		{5, 0, 1},
		{3, 1, 1},
		{100, 1, 1},
	}
	for _, tc := range cases {
		if got := PlanBins(tc.n, tc.workers); got != tc.want {
			t.Errorf("PlanBins(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestPlannerSteadyStateAllocs pins the zero-alloc contract: after the
// first (warm-up) call, re-planning the same-sized input allocates
// nothing, so per-iteration dispatch planning adds no GC pressure.
func TestPlannerSteadyStateAllocs(t *testing.T) {
	var p Planner
	costs := make([]float64, 128)
	rng := rand.New(rand.NewSource(3))
	for i := range costs {
		costs[i] = rng.Float64() * 100
	}
	p.Plan(costs, 16) // warm scratch
	allocs := testing.AllocsPerRun(20, func() {
		p.Plan(costs, 16)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Plan allocates %.1f times per run, want 0", allocs)
	}
}

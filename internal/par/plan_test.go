package par

import (
	"math/rand"
	"slices"
	"testing"
)

// checkPlan asserts the invariants every plan must satisfy: wantBins
// contiguous bins that cover 0..n-1 in order (bounds from 0 to n, never
// decreasing), each costing less than its share of the total plus the
// largest item cost (the split's balance bound; negative costs count as
// zero).
func checkPlan(t *testing.T, costs []float64, bounds []int, wantBins int) {
	t.Helper()
	n := len(costs)
	if len(bounds) != wantBins+1 {
		t.Fatalf("got %d bins, want %d", len(bounds)-1, wantBins)
	}
	if bounds[0] != 0 || bounds[wantBins] != n {
		t.Fatalf("bounds %v do not run from 0 to %d", bounds, n)
	}
	total, maxCost := 0.0, 0.0
	for _, c := range costs {
		total += max(c, 0)
		maxCost = max(maxCost, c)
	}
	for k := 0; k < wantBins; k++ {
		if bounds[k+1] < bounds[k] {
			t.Fatalf("bounds %v decrease at bin %d", bounds, k)
		}
		load := 0.0
		for _, c := range costs[bounds[k]:bounds[k+1]] {
			load += max(c, 0)
		}
		if total > 0 && load > total/float64(wantBins)+maxCost+1e-9 {
			t.Fatalf("balance bound violated: bin %d costs %.3f, share %.3f plus max item %.3f",
				k, load, total/float64(wantBins), maxCost)
		}
		if total == 0 && bounds[k+1]-bounds[k] > (n+wantBins-1)/wantBins {
			t.Fatalf("zero costs: bin %d holds %d of %d items", k, bounds[k+1]-bounds[k], n)
		}
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
// inputs: same costs and bin count give the identical bounds across calls
// and across fresh Planner values, including under cost ties.
func TestPlannerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := make([]float64, 60)
	for i := range costs {
		costs[i] = float64(rng.Intn(5)) // heavy ties on purpose
	}
	var p1, p2 Planner
	ref := slices.Clone(p1.Plan(costs, 7))
	for trial := 0; trial < 5; trial++ {
		for _, got := range [][]int{p1.Plan(costs, 7), p2.Plan(costs, 7)} {
			if !slices.Equal(got, ref) {
				t.Fatalf("bounds vary: %v vs %v", got, ref)
			}
		}
	}
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

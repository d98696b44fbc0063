package core

import (
	"math/rand"
	"sync"
	"testing"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/par"
	"batchals/internal/sim"
)

func cpmsEqual(t *testing.T, n *circuit.Network, a, b *CPM) {
	t.Helper()
	if a.M() != b.M() || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("shape differs: (%d,%d) vs (%d,%d)", a.M(), a.NumOutputs(), b.M(), b.NumOutputs())
	}
	for _, id := range n.TopoOrder() {
		for o := 0; o < a.NumOutputs(); o++ {
			if !a.Prop(id, o).Equal(b.Prop(id, o)) {
				t.Fatalf("P[%d][%d] differs:\n seq %s\n par %s",
					id, o, a.Prop(id, o), b.Prop(id, o))
			}
		}
		if !a.AnyProp(id).Equal(b.AnyProp(id)) {
			t.Fatalf("AnyProp[%d] differs", id)
		}
	}
}

// TestBuildParallelBitIdentical holds the sharded fold to the sequential
// Build at every worker count, one included.
func TestBuildParallelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	for _, m := range []int{64, 65, 200, 1000} {
		for trial := 0; trial < 3; trial++ {
			n := randomDAG(t, r, 8, 60)
			p := sim.RandomPatterns(8, m, int64(m)+int64(trial))
			vals := sim.Simulate(n, p)
			want := Build(n, vals)
			for _, workers := range []int{2, 4, 7} {
				pool := par.NewPool(workers)
				got := BuildParallel(n, vals, pool)
				pool.Close()
				cpmsEqual(t, n, want, got)
			}
		}
	}
}

// TestBuildParallelNilPoolMatchesBuild holds the sharded fold on a nil
// pool, which runs it as one shard inline, to the sequential Build.
func TestBuildParallelNilPoolMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	n := randomDAG(t, r, 6, 30)
	vals := sim.Simulate(n, sim.RandomPatterns(6, 256, 5))
	cpmsEqual(t, n, Build(n, vals), BuildParallel(n, vals, nil))
}

// corruptedState returns an error state with a non-trivial WrongAny mask by
// flipping random bits of the approximate output matrix, so the partial-sum
// properties exercise both the newly-wrong and fully-corrected cases of
// Algorithm 1.
func corruptedState(r *rand.Rand, st *emetric.State) *emetric.State {
	v := st.V.Clone()
	for o := 0; o < v.Rows(); o++ {
		row := v.Row(o)
		for i := 0; i < row.Len(); i++ {
			if r.Intn(16) == 0 {
				row.Flip(i)
			}
		}
	}
	return emetric.NewState(st.U.Clone(), v)
}

// randomWordPartition returns sorted word cut points 0 = c[0] < ... <
// c[len-1] = words, a random word-aligned partition of the pattern space.
func randomWordPartition(r *rand.Rand, words, parts int) []int {
	if parts > words {
		parts = words
	}
	cutset := map[int]bool{0: true, words: true}
	for len(cutset) < parts+1 {
		cutset[1+r.Intn(words-1)] = true
	}
	cuts := make([]int, 0, len(cutset))
	for c := range cutset {
		cuts = append(cuts, c)
	}
	for i := range cuts {
		for j := i + 1; j < len(cuts); j++ {
			if cuts[j] < cuts[i] {
				cuts[i], cuts[j] = cuts[j], cuts[i]
			}
		}
	}
	return cuts
}

// TestDeltaERPartialSumsMatchFull is the metamorphic property pinning the
// sharded ER reduction: for any word-aligned partition of the pattern
// space, summing DeltaERPartial's integer counts and normalising must equal
// DeltaER exactly — not approximately.
func TestDeltaERPartialSumsMatchFull(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		m := []int{192, 500, 1000}[trial%3]
		_, approx, _, vals, st0 := buildApproxPair(t, r, 8, 50, m, int64(trial))
		st := corruptedState(r, st0)
		c := Build(approx, vals)
		gates := gatesOf(approx)
		words := bitvec.Words(m)
		for k := 0; k < 10; k++ {
			nx := gates[r.Intn(len(gates))]
			change := bitvec.New(m)
			for i := 0; i < m; i++ {
				if r.Intn(3) == 0 {
					change.Set(i, true)
				}
			}
			want := c.DeltaER(nx, change, st)
			cuts := randomWordPartition(r, words, 1+r.Intn(6))
			var inc, dec int64
			for s := 0; s+1 < len(cuts); s++ {
				i, d := c.DeltaERPartial(nx, change.WordsSlice(), st, cuts[s], cuts[s+1])
				inc += i
				dec += d
			}
			got := (float64(inc) - float64(dec)) / float64(m)
			if got != want {
				t.Fatalf("trial %d node %d cuts %v: partial sum %v != DeltaER %v",
					trial, nx, cuts, got, want)
			}
		}
	}
}

// TestDeltaAEMPartialSumsMatchFull pins the sharded AEM reduction the same
// way: partial magnitude sums combined in partition order and normalised
// must reproduce DeltaAEM bit for bit (the per-pattern contributions are
// integer-valued, so the regrouped sum is exactly associative).
func TestDeltaAEMPartialSumsMatchFull(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		m := []int{192, 500, 1000}[trial%3]
		_, approx, _, vals, st0 := buildApproxPair(t, r, 8, 40, m, int64(trial)+100)
		if approx.NumOutputs() > 63 {
			continue
		}
		st := corruptedState(r, st0)
		c := Build(approx, vals)
		c.EnsureAEMColumns(st)
		gates := gatesOf(approx)
		words := bitvec.Words(m)
		for k := 0; k < 10; k++ {
			nx := gates[r.Intn(len(gates))]
			change := bitvec.New(m)
			for i := 0; i < m; i++ {
				if r.Intn(3) == 0 {
					change.Set(i, true)
				}
			}
			want := c.DeltaAEM(nx, change, st)
			cuts := randomWordPartition(r, words, 1+r.Intn(6))
			var total float64
			for s := 0; s+1 < len(cuts); s++ {
				total += c.DeltaAEMPartial(nx, change.WordsSlice(), st, cuts[s], cuts[s+1])
			}
			if got := total / float64(m); got != want {
				t.Fatalf("trial %d node %d cuts %v: partial sum %v != DeltaAEM %v",
					trial, nx, cuts, got, want)
			}
		}
	}
}

func TestDeltaAEMPartialRequiresEnsure(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	_, approx, _, vals, st := buildApproxPair(t, r, 6, 25, 128, 2)
	c := Build(approx, vals)
	defer func() {
		if recover() == nil {
			t.Fatal("DeltaAEMPartial without EnsureAEMColumns must panic")
		}
	}()
	chg := bitvec.New(128)
	chg.Fill()
	c.DeltaAEMPartial(gatesOf(approx)[0], chg.WordsSlice(), st, 0, 2)
}

// TestRaceConcurrentCPMQueries is the regression test for the latent
// lazy-cache sharing bugs: before AnyProp and Certificate moved to atomic
// pointers, concurrent first queries raced their plain cache writes and
// this test failed under -race. It must keep passing with the race
// detector enabled (CI runs it with -race at GOMAXPROCS=2 too).
func TestRaceConcurrentCPMQueries(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	_, approx, _, vals, st0 := buildApproxPair(t, r, 8, 50, 512, 13)
	st := corruptedState(r, st0)
	c := Build(approx, vals)
	c.EnsureAEMColumns(st)
	gates := gatesOf(approx)
	aem := approx.NumOutputs() <= 63
	words := bitvec.Words(512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			chg := bitvec.New(512)
			for i := 0; i < 512; i += 3 {
				chg.Set(i, true)
			}
			for k := 0; k < 200; k++ {
				nx := gates[rr.Intn(len(gates))]
				c.AnyProp(nx)
				c.Observability(nx)
				c.ExactFor(nx)
				w0 := rr.Intn(words)
				c.DeltaERPartial(nx, chg.WordsSlice(), st, w0, words)
				if aem {
					c.DeltaAEMPartial(nx, chg.WordsSlice(), st, w0, words)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

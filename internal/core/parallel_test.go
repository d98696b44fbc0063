package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"batchals/internal/bench"
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

// TestERTermsSumsMatchDeltaER is the metamorphic property pinning the
// ER target masks: on random DAGs under a corrupted state (a nonzero
// WrongAny, so both cases of Algorithm 1 count), for any word-aligned
// partition of the pattern space, summing one ERTerms net per part must
// equal DeltaER·M exactly — for a change mask given as is, and for the
// fused change word target ⊕ substitute ⊕ flip of the four substitution
// kinds, whose inverted and constant-1 forms set bits beyond M that the
// masks must drop. One table per part serves every target in turn, so a
// word left from an earlier target would show.
func TestERTermsSumsMatchDeltaER(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	terms := make([]ERTerms, 6)
	for trial := 0; trial < 8; trial++ {
		m := []int{192, 500, 1000}[trial%3]
		_, approx, _, vals, st0 := buildApproxPair(t, r, 8, 50, m, int64(trial))
		st := corruptedState(r, st0)
		if !st.WrongAny.Any() {
			t.Fatalf("trial %d: the corrupted state is right on every pattern", trial)
		}
		c := Build(approx, vals)
		gates := gatesOf(approx)
		nodes := approx.LiveNodes()
		words := bitvec.Words(m)
		net := func(cuts []int, nx circuit.NodeID, tw, sw []uint64, flip uint64) int {
			sum := 0
			for s := 0; s+1 < len(cuts); s++ {
				terms[s].Build(c, nx, st, cuts[s], cuts[s+1])
				sum += terms[s].Net(tw, sw, flip)
			}
			return sum
		}
		chg := bitvec.New(m)
		for k := 0; k < 10; k++ {
			nx := gates[r.Intn(len(gates))]
			cuts := randomWordPartition(r, words, 1+r.Intn(len(terms)))
			change := randomMask(r, m, 3)
			want := c.DeltaER(nx, change, st)
			if got := float64(net(cuts, nx, change.WordsSlice(), nil, 0)) / float64(m); got != want {
				t.Fatalf("trial %d node %d cuts %v: net %v != DeltaER %v", trial, nx, cuts, got, want)
			}
			// The fused change word of each substitution kind.
			tv, sv := vals.Node(nx), vals.Node(nodes[r.Intn(len(nodes))])
			for _, form := range []struct {
				name string
				sw   []uint64
				flip uint64
			}{{"plain", sv.WordsSlice(), 0}, {"inverted", sv.WordsSlice(), ^uint64(0)},
				{"const0", nil, 0}, {"const1", nil, ^uint64(0)}} {
				switch {
				case form.sw != nil:
					chg.Xor(tv, sv)
				default:
					chg.CopyFrom(tv)
				}
				if form.flip != 0 {
					chg.Not(chg) // Not keeps the bits beyond M clear
				}
				want := c.DeltaER(nx, chg, st)
				if got := float64(net(cuts, nx, tv.WordsSlice(), form.sw, form.flip)) / float64(m); got != want {
					t.Fatalf("trial %d node %d %s cuts %v: net %v != DeltaER %v", trial, nx, form.name, cuts, got, want)
				}
			}
		}
	}
}

// TestAEMTermsSumMatchesDeltaAEM pins the AEM target table: on random
// DAGs under a corrupted state, a candidate's sum over one AEMTerms table
// per target, normalised, must reproduce DeltaAEM bit for bit. One table
// serves every gate in turn, so an entry left from an earlier target would
// show.
func TestAEMTermsSumMatchesDeltaAEM(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	var terms AEMTerms
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
		for k := 0; k < 10; k++ {
			nx := gates[r.Intn(len(gates))]
			change := randomMask(r, m, 3)
			want := c.DeltaAEM(nx, change, st)
			terms.Full(c, nx, st)
			if got := terms.Sum(change.WordsSlice()) / float64(m); got != want {
				t.Fatalf("trial %d node %d: table sum %v != DeltaAEM %v", trial, nx, got, want)
			}
		}
	}
}

// TestAEMTermsRequiresEnsure pins the column-cache contract: a table for
// a state the cache was not filled for must panic, not read another
// state's output words.
func TestAEMTermsRequiresEnsure(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	_, approx, _, vals, st := buildApproxPair(t, r, 6, 25, 128, 2)
	c := Build(approx, vals)
	nx := gatesOf(approx)[0]
	for _, ensured := range []*emetric.State{nil, corruptedState(r, st)} {
		if ensured != nil {
			c.EnsureAEMColumns(ensured)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AEMTerms.Full after EnsureAEMColumns(%p) for state %p must panic", ensured, st)
				}
			}()
			var terms AEMTerms
			terms.Full(c, nx, st)
		}()
	}
}

// TestAEMTermsEveryGate holds the AEM target table to DeltaAEM on every
// gate of mul8 and ksa32 (33 outputs, so magnitudes above 2^32) at
// M = 1000, whose last word is partial, with the approximate outputs
// corrupted under two error states, Prev and St, that share the golden
// outputs. For each gate and four random change masks:
//   - Sum over the table Full built under St is DeltaAEM under St times M;
//   - with the correction built once at the union of the masks' patterns
//     where the output word differs between the states, SumAt for each
//     mask is its DeltaAEM under St minus its DeltaAEM under Prev, times M.
//
// Every sum is an integer below 2^53 there, so both hold exactly. A
// 63-output netlist, whose terms reach 2^62 so that an int64 sum of them
// could wrap, is held to the same within float tolerance.
func TestAEMTermsEveryGate(t *testing.T) {
	const m = 1000
	r := rand.New(rand.NewSource(19))
	var nets []*circuit.Network
	for _, name := range []string{"mul8", "ksa32"} {
		n, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	nets = append(nets, wideDAG(t, r, 12, 160, 63))
	for _, net := range nets {
		p := sim.RandomPatterns(net.NumInputs(), m, 7)
		vals := sim.Simulate(net, p)
		out := sim.OutputMatrix(net, vals)
		exact := emetric.NewState(out, out.Clone())
		st, prev := corruptedState(r, exact), corruptedState(r, exact)
		c := Build(net, vals)

		// D: the patterns whose output word differs between the states,
		// and Prev's word at each pattern.
		d := bitvec.New(m)
		x := bitvec.New(m)
		for o := 0; o < st.V.Rows(); o++ {
			x.Xor(st.V.Row(o), prev.V.Row(o))
			d.Or(d, x)
		}
		var ws []int32
		for w, dw := range d.WordsSlice() {
			if dw != 0 {
				ws = append(ws, int32(w))
			}
		}
		prevV := make([]uint64, m)
		for i := range prevV {
			prevV[i] = prev.V.Column(i)
		}

		// tol bounds the rounding of a float sum of m terms below 2^o:
		// zero while the sums stay below 2^53.
		o := net.NumOutputs()
		tol := 0.0
		if o+11 > 53 {
			tol = math.Ldexp(m, o-50)
		}
		check := func(what string, nx circuit.NodeID, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > tol {
				t.Fatalf("%s gate %d: %s %v, want %v (tolerance %v)", net.Name, nx, what, got, want, tol)
			}
		}
		var terms AEMTerms
		wraps := false
		masks := make([]*bitvec.Vec, 4)
		mcs := make([][]uint64, len(masks))
		um := make([]uint64, len(ws))
		full := make([]float64, len(masks))
		diff := make([]float64, len(masks))
		for _, nx := range gatesOf(net) {
			clear(um)
			for j := range masks {
				masks[j] = randomMask(r, m, 2+j)
				mcs[j] = make([]uint64, len(ws))
				for k, w := range ws {
					mcs[j][k] = masks[j].WordsSlice()[w] & d.WordsSlice()[w]
					um[k] |= mcs[j][k]
				}
				dPrev := c.DeltaAEM(nx, masks[j], prev)
				full[j] = c.DeltaAEM(nx, masks[j], st)
				diff[j] = math.Round(full[j]*m) - math.Round(dPrev*m)
				if tol > 0 {
					diff[j] = (full[j] - dPrev) * m
				}
			}
			c.EnsureAEMColumns(st)
			terms.Full(c, nx, st)
			for j, chg := range masks {
				sum := terms.Sum(chg.WordsSlice())
				check("table sum / M", nx, sum/m, full[j])
				wraps = wraps || math.Abs(sum) >= 1<<63
			}
			terms.Correction(c, nx, st, prevV, ws, um)
			for j := range masks {
				check("correction", nx, terms.SumAt(mcs[j]), diff[j])
			}
		}
		if o == 63 && !wraps {
			t.Fatalf("%s: no table sum reached 2^63, so none would wrap an int64", net.Name)
		}
	}
}

// randomMask returns an m-bit change mask with each bit set with
// probability 1/den.
func randomMask(r *rand.Rand, m, den int) *bitvec.Vec {
	v := bitvec.New(m)
	for i := 0; i < m; i++ {
		if r.Intn(den) == 0 {
			v.Set(i, true)
		}
	}
	return v
}

// wideDAG returns a random DAG whose last outs gates drive its outputs;
// each gate feeds the next, so none dangles.
func wideDAG(t testing.TB, r *rand.Rand, nin, ngates, outs int) *circuit.Network {
	t.Helper()
	n := circuit.New("wide")
	pool := make([]circuit.NodeID, 0, nin+ngates)
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(""))
	}
	kinds := []circuit.Kind{circuit.KindAnd, circuit.KindOr, circuit.KindXor, circuit.KindNand}
	for i := 0; i < ngates; i++ {
		pool = append(pool, n.AddGate(kinds[r.Intn(len(kinds))], pool[len(pool)-1], pool[r.Intn(len(pool))]))
	}
	for _, id := range pool[len(pool)-outs:] {
		n.AddOutput("", id)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
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
			var terms AEMTerms
			var er ERTerms
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
				er.Build(c, nx, st, w0, words)
				er.Net(chg.WordsSlice(), nil, 0)
				if aem {
					terms.Full(c, nx, st)
					terms.Sum(chg.WordsSlice())
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

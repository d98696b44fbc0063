package core

import (
	"fmt"
	"math/rand"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// stateWrongAt returns an error state against golden that gets exactly the
// patterns of sel wrong: at each of them it flips one random output of
// golden and each other output with probability 1/4.
func stateWrongAt(r *rand.Rand, golden *bitvec.Matrix, sel *bitvec.Vec) *emetric.State {
	v := golden.Clone()
	sel.ForEachSet(func(i int) bool {
		first := r.Intn(v.Rows())
		for o := 0; o < v.Rows(); o++ {
			if o == first || r.Intn(4) == 0 {
				v.Row(o).Flip(i)
			}
		}
		return true
	})
	return emetric.NewState(golden, v)
}

// selection returns an m-bit mask with each bit set with probability
// 1/den, plus the last pattern when last is set (its word is the
// tail-masked one unless m is a multiple of 64).
func selection(r *rand.Rand, m, den int, last bool) *bitvec.Vec {
	v := randomMask(r, m, den)
	if last {
		v.Set(m-1, true)
	}
	return v
}

// TestCompactMatchesBitLoop pins bitvec.Compact, which lays out the ER
// form's compacted value tables, against a loop over the selected bits.
func TestCompactMatchesBitLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, m := range []int{1, 63, 64, 65, 1000} {
		for _, den := range []int{1, 2, 50} {
			src, sel := randomMask(r, m, 2), selection(r, m, den, r.Intn(2) == 0)
			got := bitvec.New(sel.Count())
			got.WordsSlice()[0] = ^uint64(0) // Compact clears what it does not set
			bitvec.Compact(got.WordsSlice(), src.WordsSlice(), sel.WordsSlice())
			k := 0
			sel.ForEachSet(func(i int) bool {
				if got.Get(k) != src.Get(i) {
					t.Fatalf("m=%d den=%d: bit %d of the compacted vector != pattern %d", m, den, k, i)
				}
				k++
				return true
			})
			if got.Count() > k {
				t.Fatalf("m=%d den=%d: bits set past the %d selected", m, den, k)
			}
		}
	}
}

// TestERFormMatchesFullBuild holds the ER form to the full CPM on random
// DAGs and on c880, c7552, mul8 and a 3000-gate synthetic circuit, at one
// and two workers: every live node's AnyProp row (BuildER's and
// BuildAnyProp's) equals the OR of BuildParallel's rows, and the
// per-output rows at a state's wrong patterns equal the full rows there,
// for no wrong pattern, for a sparse set that reaches the tail-masked
// last word and, on the small DAGs, for a dense one. DeltaERCorrection
// between the two slices' states equals the difference of the full
// form's DeltaERCounts over the patterns whose output words differ.
func TestERFormMatchesFullBuild(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	type input struct {
		name  string
		n     *circuit.Network
		m     int
		dense bool
	}
	var inputs []input
	for i, m := range []int{64, 200, 1000, 130} {
		inputs = append(inputs, input{fmt.Sprintf("dag%d", i), randomDAG(t, r, 8, 60), m, true})
	}
	for _, name := range []string{"c880", "c7552", "mul8"} {
		n, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, n, 1000, false})
	}
	inputs = append(inputs, input{"synth3k", bench.Tiled("synth3k", 64, 64, 3000, 10), 1000, false})

	for _, in := range inputs {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s workers=%d", in.name, workers)
			pool := par.NewPool(workers)
			vals := sim.SimulateParallel(in.n, sim.RandomPatterns(in.n.NumInputs(), in.m, 7), pool)
			golden := sim.OutputMatrix(in.n, vals)
			full := BuildParallel(in.n, vals, pool)
			anyOnly := BuildAnyProp(in.n, vals, pool)
			sels := []*bitvec.Vec{bitvec.New(in.m), selection(r, in.m, 100, true)}
			if in.dense {
				sels = append(sels, selection(r, in.m, 2, true))
			}
			states := make([]*emetric.State, len(sels))
			for i, sel := range sels {
				states[i] = stateWrongAt(r, golden, sel)
			}
			for i, st := range states {
				prev := states[(i+1)%len(states)]
				er := BuildER(in.n, vals, st, pool)
				er.prev = newWrongSlice(in.n, vals, prev, nil, pool)
				for _, id := range in.n.LiveNodes() {
					want := full.AnyProp(id)
					if !er.AnyProp(id).Equal(want) || !anyOnly.AnyProp(id).Equal(want) {
						t.Fatalf("%s: AnyProp(%d) != the OR of the full rows", label, id)
					}
				}
				for _, s := range []*wrongSlice{er.cur, er.prev} {
					checkSlice(t, label, in.n, full, s)
				}
				checkCorrection(t, r, label, in.n, full, er, st, prev)
			}
			pool.Close()
		}
	}
}

// checkSlice holds a slice's rows to the full rows at its patterns, bit by
// bit; a slice with no pattern must have no rows.
func checkSlice(t *testing.T, label string, n *circuit.Network, full *CPM, s *wrongSlice) {
	t.Helper()
	var pats []int
	s.wa.ForEachSet(func(i int) bool { pats = append(pats, i); return true })
	if len(pats) == 0 {
		if s.rows != nil {
			t.Fatalf("%s: a slice with no wrong pattern has rows", label)
		}
		return
	}
	if s.rows.M() != len(pats) {
		t.Fatalf("%s: slice of %d patterns has M=%d", label, len(pats), s.rows.M())
	}
	for _, id := range n.LiveNodes() {
		for o := 0; o < full.NumOutputs(); o++ {
			got, want := s.rows.Prop(id, o), full.Prop(id, o)
			for k, i := range pats {
				if got.Get(k) != want.Get(i) {
					t.Fatalf("%s: slice row %d/%d at pattern %d (position %d) != the full row", label, id, o, i, k)
				}
			}
		}
	}
}

// checkCorrection compares DeltaERCorrection from prev to st with the
// full form's net counts over D, the patterns whose output words differ,
// for random gates and change masks.
func checkCorrection(t *testing.T, r *rand.Rand, label string, n *circuit.Network, full, er *CPM, st, prev *emetric.State) {
	t.Helper()
	m := full.M()
	diff := bitvec.New(m)
	for o := 0; o < st.V.Rows(); o++ {
		x := bitvec.New(m)
		x.Xor(st.V.Row(o), prev.V.Row(o))
		diff.Or(diff, x)
	}
	gates := gatesOf(n)
	chg := bitvec.New(m)
	var ws []int32
	var mc []uint64
	for k := 0; k < 20; k++ {
		nx := gates[r.Intn(len(gates))]
		chg.And(randomMask(r, m, 3), diff)
		ws, mc = ws[:0], mc[:0]
		for w, x := range chg.WordsSlice() {
			if diff.WordsSlice()[w] != 0 {
				ws, mc = append(ws, int32(w)), append(mc, x)
			}
		}
		incCur, decCur := full.DeltaERCounts(nx, chg, st)
		incPrev, decPrev := full.DeltaERCounts(nx, chg, prev)
		want := (incCur - decCur) - (incPrev - decPrev)
		if got := er.DeltaERCorrection(nx, mc, ws, st, prev); got != want {
			t.Fatalf("%s: DeltaERCorrection(%d) = %d, full form %d", label, nx, got, want)
		}
	}
}

// TestERRefreshMatchesRebuild is TestRefreshMatchesRebuild for the ER
// form, driven through the engine across a chain of plain and inverted
// substitutions at one and four workers: after each accept the refreshed
// CPM equals a fresh build (CheckRebuild), its slices belong to St and
// Prev, and it reports changed exactly the live rows whose AnyProp row
// changed, or is new, or whose per-output rows changed at a pattern Prev
// gets wrong (the carry rule), judged against full builds before and
// after the edit.
func TestERRefreshMatchesRebuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, benchName := range []string{"rca8", "cmp8", "dec4", "c880"} {
			n, err := bench.ByName(benchName)
			if err != nil {
				t.Fatal(err)
			}
			pool := par.NewPool(workers)
			eng := NewEngine(n, nil, sim.RandomPatterns(n.NumInputs(), 500, 5), MetricER, pool)
			cpm := eng.CPM()
			slices := 0
			for edit := 0; edit < 4; edit++ {
				tt, ss, ok := pickSubstitution(n, 3*edit)
				if !ok {
					break
				}
				label := fmt.Sprintf("%s workers=%d edit %d", benchName, workers, edit)
				before := snapshotRows(cpm)
				fullBefore := BuildParallel(n, eng.Vals, pool)
				eng.Apply(surgery(n, tt, ss, edit%2 == 1))
				cpm = eng.CPM()
				stats, full := eng.LastRefresh()
				if full {
					t.Fatalf("%s: expected a dirty-region refresh", label)
				}
				if err := cpm.CheckRebuild(pool); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if cpm.cur.wa != eng.St.WrongAny || cpm.prev.wa != eng.Prev.WrongAny {
					t.Fatalf("%s: the slices do not follow the engine's error states", label)
				}
				if cpm.prev.rows != nil {
					slices++
				}
				fullAfter := BuildParallel(n, eng.Vals, pool)
				reported := map[circuit.NodeID]bool{}
				for _, id := range stats.Changed {
					reported[id] = true
				}
				for _, id := range n.LiveNodes() {
					differs := int(id) >= len(before) || before[id] == nil || !before[id][0].Equal(cpm.AnyProp(id))
					for o := 0; !differs && o < cpm.NumOutputs(); o++ {
						eng.Prev.WrongAny.ForEachSet(func(i int) bool {
							differs = fullBefore.Prop(id, o).Get(i) != fullAfter.Prop(id, o).Get(i)
							return !differs
						})
					}
					if differs != reported[id] {
						t.Fatalf("%s: row %d changed under the carry rule=%v, reported changed=%v", label, id, differs, reported[id])
					}
					delete(reported, id)
				}
				if len(reported) != 0 {
					t.Fatalf("%s: dead rows reported changed: %v", label, reported)
				}
			}
			if slices == 0 {
				t.Fatalf("%s workers=%d: no refresh carried per-output rows at a wrong pattern", benchName, workers)
			}
			pool.Close()
		}
	}
}

// TestERCarryRuleExact pins the carry rule on every gate, not just the
// flow's candidates: across chains of substitutions through the engine,
// for every gate the ER refresh did not report changed and fixed random
// change masks, the net count under the previous state plus
// DeltaERCorrection over the patterns whose output word changed equals
// the net count under the new state, both counted on full builds. The
// chains correct some wrong patterns, where the rule must read the
// per-output rows at patterns wrong under the previous state only: on the
// small four-output DAGs a flip's outputs there change while AnyProp and
// the rows at the patterns wrong under both states stay, which a rule
// reading only the latter would carry wrongly.
func TestERCarryRuleExact(t *testing.T) {
	type input struct {
		name string
		n    *circuit.Network
		m    int
	}
	var inputs []input
	for _, name := range []string{"rca8", "cmp8", "dec4", "c880"} {
		n, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, n, 500})
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		inputs = append(inputs, input{fmt.Sprintf("wide%d", i), wideDAG(t, r, 5, 25, 4), 64})
	}
	net := func(c *CPM, g circuit.NodeID, chg *bitvec.Vec, st *emetric.State) int64 {
		inc, dec := c.DeltaERCounts(g, chg, st)
		return inc - dec
	}
	corrected, carried := 0, 0
	for _, in := range inputs {
		n := in.n
		masks := make([]*bitvec.Vec, 8)
		for i := range masks {
			masks[i] = randomMask(r, in.m, 2)
		}
		pool := par.NewPool(2)
		eng := NewEngine(n, nil, sim.RandomPatterns(n.NumInputs(), in.m, 9), MetricER, pool)
		eng.CPM()
		for edit := 0; edit < 6; edit++ {
			tt, ss, ok := pickSubstitution(n, r.Intn(40))
			if !ok {
				break
			}
			fullBefore := BuildParallel(n, eng.Vals, pool)
			before := map[circuit.NodeID][]int64{}
			for _, g := range gatesOf(n) {
				for _, chg := range masks {
					before[g] = append(before[g], net(fullBefore, g, chg, eng.St))
				}
			}
			eng.Apply(surgery(n, tt, ss, r.Intn(2) == 0))
			cpm := eng.CPM()
			stats, _ := eng.LastRefresh()
			reported := map[circuit.NodeID]bool{}
			for _, id := range stats.Changed {
				reported[id] = true
			}
			fullAfter := BuildParallel(n, eng.Vals, pool)
			var ws []int32
			for w, x := range eng.Diff.WordsSlice() {
				if x != 0 {
					ws = append(ws, int32(w))
				}
			}
			mc := make([]uint64, len(ws))
			for _, g := range gatesOf(n) {
				if reported[g] || before[g] == nil {
					continue
				}
				for i, chg := range masks {
					for k, w := range ws {
						mc[k] = chg.WordsSlice()[w] & eng.Diff.WordsSlice()[w]
					}
					got := before[g][i] + cpm.DeltaERCorrection(g, mc, ws, eng.St, eng.Prev)
					if want := net(fullAfter, g, chg, eng.St); got != want {
						t.Fatalf("%s edit %d: gate %d mask %d: carried %d, recounted %d", in.name, edit, g, i, got, want)
					}
					carried++
				}
			}
			fixed := bitvec.New(in.m)
			if fixed.AndNot(eng.Prev.WrongAny, eng.St.WrongAny).Any() {
				corrected++
			}
		}
		pool.Close()
	}
	if corrected == 0 || carried == 0 {
		t.Fatalf("%d accepts corrected a wrong pattern and %d sums carried; the test exercises nothing", corrected, carried)
	}
}

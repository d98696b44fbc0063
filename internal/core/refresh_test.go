package core

import (
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// pickSubstitution finds a realistic substitution edit on the network:
// a live gate target with at least one admissible substitute (a live
// gate/input outside the target's transitive fanout cone). skip skips that
// many admissible (target, substitute) pairs, so successive calls pick
// different edits.
func pickSubstitution(n *circuit.Network, skip int) (t, s circuit.NodeID, ok bool) {
	for _, tt := range n.LiveNodes() {
		if !n.Kind(tt).IsGate() {
			continue
		}
		tfo := n.TransitiveFanoutCone(tt)
		for _, ss := range n.LiveNodes() {
			k := n.Kind(ss)
			if ss == tt || tfo[ss] || (!k.IsGate() && k != circuit.KindInput) {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			return tt, ss, true
		}
	}
	return 0, 0, false
}

// applyEdit performs the substitution surgery exactly as the sasimi flow
// does and returns the structural Edit record plus the value-changed set
// from in-place cone resimulation.
func applyEdit(n *circuit.Network, vals *sim.Values, t, s circuit.NodeID, inverted bool, pool *par.Pool) (Edit, []circuit.NodeID) {
	var ed Edit
	repl := s
	if inverted {
		repl = n.AddGate(circuit.KindNot, s)
		ed.Added = []circuit.NodeID{repl}
	}
	ed.Repl = repl
	ed.Rewired = append([]circuit.NodeID(nil), n.Fanouts(t)...)
	n.ReplaceNode(t, repl)
	ed.Removed, ed.Boundary = n.SweepFromCollect(t)
	_, changed := sim.ResimulateFrom(n, vals, ed.Seeds(), pool)
	for _, id := range ed.Removed {
		vals.Drop(id)
	}
	return ed, changed
}

func compareCPMs(t *testing.T, label string, n *circuit.Network, got, want *CPM) {
	t.Helper()
	if got.NumOutputs() != want.NumOutputs() || got.M() != want.M() {
		t.Fatalf("%s: shape mismatch", label)
	}
	for _, id := range n.LiveNodes() {
		for o := 0; o < want.NumOutputs(); o++ {
			if !got.Prop(id, o).Equal(want.Prop(id, o)) {
				t.Fatalf("%s: P[%d][%d] diverges after refresh", label, id, o)
			}
		}
		if !got.AnyProp(id).Equal(want.AnyProp(id)) {
			t.Fatalf("%s: AnyProp(%d) diverges after refresh", label, id)
		}
		if got.ExactFor(id) != want.ExactFor(id) {
			t.Fatalf("%s: ExactFor(%d) diverges after refresh", label, id)
		}
	}
}

// snapshotRows copies every row of the CPM, indexed by node slot.
func snapshotRows(c *CPM) [][]*bitvec.Vec {
	rows := make([][]*bitvec.Vec, len(c.p))
	for id, row := range c.p {
		for _, v := range row {
			rows[id] = append(rows[id], v.Clone())
		}
	}
	return rows
}

// TestRefreshMatchesRebuild pins the dirty-region CPM refresh against a
// from-scratch rebuild across a chain of realistic substitution edits
// (plain and inverted) at several worker counts, and its report of the
// rows it changed against a copy of the matrix taken before the refresh.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, benchName := range []string{"rca8", "cmp8", "dec4"} {
			n, err := bench.ByName(benchName)
			if err != nil {
				t.Fatal(err)
			}
			pool := par.NewPool(workers)
			patterns := sim.RandomPatterns(n.NumInputs(), 512, 5)
			vals := sim.SimulateParallel(n, patterns, pool)
			cpm := BuildParallel(n, vals, pool)

			for edit := 0; edit < 3; edit++ {
				tt, ss, ok := pickSubstitution(n, edit)
				if !ok {
					break
				}
				before := snapshotRows(cpm)
				ed, changed := applyEdit(n, vals, tt, ss, edit%2 == 1, pool)
				stats := cpm.Refresh(ed, changed, pool)
				if stats.TotalRows == 0 || stats.DirtyRows == 0 || stats.DirtyRows > stats.TotalRows {
					t.Fatalf("%s workers=%d edit %d: implausible refresh stats %+v", benchName, workers, edit, stats)
				}
				fresh := BuildParallel(n, vals, pool)
				compareCPMs(t, benchName, n, cpm, fresh)

				// The reported rows are exactly the live rows that differ from
				// their copy taken before the refresh, or had no row then.
				reported := map[circuit.NodeID]bool{}
				for _, id := range stats.Changed {
					reported[id] = true
				}
				for _, id := range n.LiveNodes() {
					differs := int(id) >= len(before) || before[id] == nil
					for o := 0; !differs && o < cpm.NumOutputs(); o++ {
						differs = !before[id][o].Equal(cpm.Prop(id, o))
					}
					if differs != reported[id] {
						t.Fatalf("%s workers=%d edit %d: row %d differs=%v, reported changed=%v",
							benchName, workers, edit, id, differs, reported[id])
					}
					delete(reported, id)
				}
				if len(reported) != 0 {
					t.Fatalf("%s workers=%d edit %d: dead rows reported changed: %v", benchName, workers, edit, reported)
				}
			}
			pool.Close()
		}
	}
}

// TestRefreshInvalidatesLazyCaches warms every lazy CPM cache (AnyProp
// rows, the exactness certificate, the AEM column memo), applies an edit
// plus Refresh, and checks the caches against a cold rebuild: a stale
// surviving cache entry would make the derived quantities diverge.
func TestRefreshInvalidatesLazyCaches(t *testing.T) {
	n, err := bench.ByName("rca8")
	if err != nil {
		t.Fatal(err)
	}
	golden := n.Clone()
	pool := par.NewPool(2)
	defer pool.Close()
	patterns := sim.RandomPatterns(n.NumInputs(), 512, 9)
	goldenVals := sim.SimulateParallel(golden, patterns, pool)
	goldenOut := sim.OutputMatrix(golden, goldenVals)
	vals := sim.SimulateParallel(n, patterns, pool)
	cpm := BuildParallel(n, vals, pool)

	// Warm AnyProp for every live node, the certificate, and the AEM memo.
	cpm.EnsureAnyProp(n.LiveNodes(), nil)
	st := emetric.NewState(goldenOut, sim.OutputMatrix(n, vals))
	cpm.EnsureAEMColumns(st)
	for _, id := range n.LiveNodes() {
		cpm.ExactFor(id)
	}

	tt, ss, ok := pickSubstitution(n, 0)
	if !ok {
		t.Fatal("no substitution available on rca8")
	}
	ed, changed := applyEdit(n, vals, tt, ss, false, pool)
	cpm.Refresh(ed, changed, pool)
	st = emetric.NewState(goldenOut, sim.OutputMatrix(n, vals))
	fresh := BuildParallel(n, vals, pool)

	compareCPMs(t, "rca8", n, cpm, fresh)

	// Derived quantities must come out identical too — they read through
	// the lazy caches, so a stale entry shows up here.
	chg := bitvec.New(vals.M)
	for i := 0; i < vals.M; i += 3 {
		chg.Set(i, true)
	}
	for _, id := range n.LiveNodes() {
		if dGot, dWant := cpm.DeltaER(id, chg, st), fresh.DeltaER(id, chg, st); dGot != dWant {
			t.Fatalf("DeltaER(%d) %v after refresh, want %v", id, dGot, dWant)
		}
		if dGot, dWant := cpm.DeltaAEM(id, chg, st), fresh.DeltaAEM(id, chg, st); dGot != dWant {
			t.Fatalf("DeltaAEM(%d) %v after refresh, want %v", id, dGot, dWant)
		}
	}
}

// TestEngineMatchesScratchState pins the Engine protocol: after NewEngine
// and a chain of Apply calls, the engine's value table, error state and CPM
// are bit-identical to recomputing everything from scratch on the edited
// network.
func TestEngineMatchesScratchState(t *testing.T) {
	n, err := bench.ByName("cmp8")
	if err != nil {
		t.Fatal(err)
	}
	golden := n.Clone()
	pool := par.NewPool(2)
	defer pool.Close()
	patterns := sim.RandomPatterns(n.NumInputs(), 768, 3)
	goldenVals := sim.SimulateParallel(golden, patterns, pool)
	goldenOut := sim.OutputMatrix(golden, goldenVals)

	eng := NewEngine(n, goldenOut, patterns, pool)
	if eng.CPM() == nil {
		t.Fatal("engine CPM is nil")
	}

	for edit := 0; edit < 3; edit++ {
		tt, ss, ok := pickSubstitution(n, edit)
		if !ok {
			break
		}
		var ed Edit
		ed.Repl = ss
		ed.Rewired = append([]circuit.NodeID(nil), n.Fanouts(tt)...)
		n.ReplaceNode(tt, ss)
		ed.Removed, ed.Boundary = n.SweepFromCollect(tt)
		resimmed, _ := eng.Apply(ed)
		if len(resimmed) == 0 && len(ed.Rewired) > 0 {
			t.Fatalf("edit %d: Apply resimulated nothing", edit)
		}

		scratchVals := sim.SimulateParallel(n, patterns, pool)
		for _, id := range n.LiveNodes() {
			if !eng.Vals.Node(id).Equal(scratchVals.Node(id)) {
				t.Fatalf("edit %d: engine value of node %d diverges from scratch simulation", edit, id)
			}
		}
		scratchSt := emetric.NewState(goldenOut, sim.OutputMatrix(n, scratchVals))
		if eng.St.ErrorRate() != scratchSt.ErrorRate() {
			t.Fatalf("edit %d: engine ER %v, scratch %v", edit, eng.St.ErrorRate(), scratchSt.ErrorRate())
		}
		if eng.St.AvgErrorMagnitude() != scratchSt.AvgErrorMagnitude() {
			t.Fatalf("edit %d: engine AEM %v, scratch %v", edit, eng.St.AvgErrorMagnitude(), scratchSt.AvgErrorMagnitude())
		}
		compareCPMs(t, "engine", n, eng.CPM(), BuildParallel(n, scratchVals, pool))
		if stats, full := eng.LastRefresh(); full || stats.DirtyRows == 0 {
			t.Fatalf("edit %d: expected a dirty-region refresh, got full=%v stats=%+v", edit, full, stats)
		}
	}
}

package core

import (
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// Engine owns the per-circuit estimation state of an iterative ALS flow —
// the approximate network, its simulated value table, the error-metric
// state against a fixed golden output matrix, and (lazily) the CPM — and
// keeps all of it consistent *incrementally* across accepted edits. It
// replaces the rebuild-from-scratch sequence the flow used to run every
// iteration (full simulate, new emetric.State, full CPM build) with
// cone-scoped resimulation and dirty-region CPM refresh, while remaining
// bit-identical to that sequence at any worker count: resimulation
// recomputes exactly the gate functions a full simulation would, the error
// state is recopied from the (identical) output driver vectors, and
// Refresh reproduces Build's fold on the dirty region (see Refresh for the
// derivation).
//
// Protocol: construct once per flow run, call Apply after every accepted
// network edit, and read CPM() whenever the estimator needs the matrix —
// the engine decides between a full parallel build (first call, or after
// edits too tangled to refresh) and an incremental refresh. The Net, Vals
// and St fields are the live objects; callers may read them freely but
// must route all mutation through Apply.
//
// Apply also keeps the error state it replaced: Prev holds the previous
// V, W and WrongAny (U is shared with St), and Diff marks the patterns
// whose output word the edit changed. A scorer that summed a per-pattern
// quantity against Prev needs to revisit only Diff's patterns to bring
// the sum up to St (see sasimi's carried pattern sums). Both are nil
// before the first Apply.
type Engine struct {
	Net  *circuit.Network
	Vals *sim.Values
	St   *emetric.State
	Prev *emetric.State
	Diff *bitvec.Vec

	pool *par.Pool

	cpm            *CPM
	pendingEdit    Edit
	pendingChanged []circuit.NodeID
	hasPending     bool
	needFull       bool

	lastRefresh RefreshStats
	lastFull    bool
}

// NewEngine fully simulates the network on the pattern set and builds the
// error state against the golden output matrix. A nil golden takes the
// network's own outputs as the golden reference, for an engine over an
// unedited copy of the golden circuit. The CPM is not built until the
// first CPM() call, so estimators that never need it pay nothing.
func NewEngine(n *circuit.Network, golden *bitvec.Matrix, p *sim.Patterns, pool *par.Pool) *Engine {
	vals := sim.SimulateParallel(n, p, pool)
	out := sim.OutputMatrix(n, vals)
	if golden == nil {
		golden = out.Clone()
	}
	return &Engine{Net: n, Vals: vals, St: emetric.NewState(golden, out), pool: pool}
}

// Apply folds one accepted network edit into the engine's state: the
// structural fanout cones of the edit's seeds are resimulated in place,
// removed nodes' value vectors are released, the error state is refreshed
// from the new output driver vectors (the replaced one moves to Prev, and
// Diff records where they differ), and the edit is queued for the next
// CPM() call's dirty-region refresh. It returns the nodes resimulated and
// the subset whose value vectors actually changed (deterministic at any
// worker count).
func (e *Engine) Apply(ed Edit) (resimmed, changed []circuit.NodeID) {
	resimmed, changed = sim.ResimulateFrom(e.Net, e.Vals, ed.Seeds(), e.pool)
	for _, id := range ed.Removed {
		e.Vals.Drop(id)
	}
	// The replaced error state becomes Prev. It shares with St every V and
	// W row the edit left alone; an output whose vector changed gets fresh
	// rows in St (W = U XOR V, as State.Refresh computes it) and keeps its
	// old ones in Prev, so no row is copied or written in place.
	if e.Prev == nil {
		e.Prev = &emetric.State{M: e.St.M, U: e.St.U}
		e.Diff = bitvec.New(e.St.M)
	}
	e.Prev.V, e.Prev.W, e.Prev.WrongAny = e.St.V.ShareRows(), e.St.W.ShareRows(), e.St.WrongAny
	diff := e.Diff.WordsSlice()
	clear(diff)
	outChanged := false
	for o, out := range e.Net.Outputs() {
		v, old := e.Vals.Node(out.Node), e.St.V.Row(o)
		if v.Equal(old) {
			continue
		}
		v = v.Clone()
		w := bitvec.New(e.St.M)
		w.Xor(e.St.U.Row(o), v)
		e.St.V.SetRow(o, v)
		e.St.W.SetRow(o, w)
		for i, x := range old.WordsSlice() {
			diff[i] |= x ^ v.WordsSlice()[i]
		}
		outChanged = true
	}
	if outChanged {
		e.St.WrongAny = e.St.W.OrAll()
	}
	if e.cpm != nil {
		if e.hasPending {
			// Two edits accumulated without a CPM read between them;
			// Refresh handles one edit, so fall back to a full rebuild.
			e.needFull = true
			e.hasPending = false
			e.pendingChanged = nil
		} else {
			e.pendingEdit = ed
			e.pendingChanged = changed
			e.hasPending = true
		}
	}
	return resimmed, changed
}

// CPM returns the change propagation matrix for the engine's current
// state, building it on first use and refreshing only the dirty region
// after Apply calls. The returned matrix is bit-identical to
// BuildParallel(Net, Vals, pool) at any worker count.
func (e *Engine) CPM() *CPM {
	if e.cpm == nil || e.needFull {
		e.cpm = BuildParallel(e.Net, e.Vals, e.pool)
		e.needFull = false
		e.hasPending = false
		e.pendingChanged = nil
		live := 0
		for _, row := range e.cpm.p {
			if row != nil {
				live++
			}
		}
		e.lastRefresh = RefreshStats{DirtyRows: live, TotalRows: live, Duration: e.cpm.buildTime}
		e.lastFull = true
		return e.cpm
	}
	if e.hasPending {
		e.lastRefresh = e.cpm.Refresh(e.pendingEdit, e.pendingChanged, e.pool)
		e.lastFull = false
		e.hasPending = false
		e.pendingChanged = nil
	}
	return e.cpm
}

// LastRefresh reports the work of the most recent CPM() that touched the
// matrix, and whether it was a full build (true) or a dirty-region refresh
// (false). For a full build DirtyRows == TotalRows.
func (e *Engine) LastRefresh() (RefreshStats, bool) { return e.lastRefresh, e.lastFull }

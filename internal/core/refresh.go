package core

import (
	"slices"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

var (
	statCPMRefreshes = obs.Default().Counter("cpm_refreshes_total")
	statCPMRefreshNS = obs.Default().Counter("cpm_refresh_ns_total")
	statCPMDirtyRows = obs.Default().Counter("cpm_refresh_dirty_rows_total")
	statCPMCleanRows = obs.Default().Counter("cpm_refresh_clean_rows_total")
)

// Edit records one netlist surgery (a substitution plus its dead-logic
// sweep) in exactly the terms the incremental engine needs to bound its
// dirty regions. All sets refer to the post-edit network; Removed ids are
// no longer live.
type Edit struct {
	// Repl is the surviving node that took over the replaced node's fanouts
	// and output bindings (the substitute, or the fresh inverter/constant).
	Repl circuit.NodeID
	// Rewired are the live nodes whose fanin lists were redirected — the
	// former fanouts of the replaced node.
	Rewired []circuit.NodeID
	// Added are nodes created by the edit (e.g. the inverter of an
	// inverted substitution), in creation order.
	Added []circuit.NodeID
	// Removed are the nodes deleted by the edit's dead-logic sweep.
	Removed []circuit.NodeID
	// Boundary are the surviving nodes that lost at least one fanout edge
	// into Removed.
	Boundary []circuit.NodeID
}

// Seeds returns the resimulation seed set of the edit: the nodes whose
// value vectors can differ from their pre-edit contents — rewired gates
// (new fanin lists) and added nodes (no vector yet). Everything else that
// can change lies in their structural fanout cones.
func (ed *Edit) Seeds() []circuit.NodeID {
	seeds := make([]circuit.NodeID, 0, len(ed.Rewired)+len(ed.Added))
	seeds = append(seeds, ed.Rewired...)
	seeds = append(seeds, ed.Added...)
	return seeds
}

// RefreshStats reports the work a CPM.Refresh actually did, for the flow's
// dirty-fraction instrumentation, and which rows it changed.
type RefreshStats struct {
	// DirtyRows is the number of propagation rows in the dirty region.
	// The fold recomputes one of them in a shard only where it may differ
	// (see fold), and Changed lists those whose contents did.
	DirtyRows int
	// TotalRows is the number of live rows after the refresh; the dirty
	// fraction is DirtyRows/TotalRows.
	TotalRows int
	// Duration is the wall time of the refresh.
	Duration time.Duration
	// Changed lists the live rows whose contents the refresh changed, rows
	// of added nodes included, in topological order. Every other live row
	// holds the words it held before the refresh.
	Changed []circuit.NodeID
}

// Refresh's per-slot marks for the fold.
const (
	rowHead    uint8 = 1 << iota // base case, fanout list or a Boolean difference may differ
	rowDirty                     // in the backward closure of the head-dirty rows
	rowDrives                    // drives a primary output
	rowChanged                   // the refresh changed the row's contents, or allocated it
)

// Refresh incrementally updates the CPM in place after the network and its
// value table (which the CPM shares by pointer) have been mutated by one
// edit: ed describes the structural surgery and changed lists the nodes
// whose simulated value vectors differ from before (as reported by
// sim.ResimulateFrom). Only the dirty region is recomputed; the result is
// bit-identical to a from-scratch Build at any worker count.
//
// Dirty-set derivation. A row P[n] is a function of (a) n's output-driver
// base case, (b) n's fanout list, (c) the Boolean difference D[n→nf] of
// every fanout edge — itself a function of nf's kind, nf's fanin list and
// the simulated values of nf's *other* fanins — and (d) the rows P[nf].
// The head-dirty set H collects every node for which (a)–(c) may have
// changed:
//
//   - Repl: gained the replaced node's fanouts and output bindings (a, b);
//   - Added: rows do not exist yet (all);
//   - Boundary: lost fanout edges into the swept region (b);
//   - fanins(Rewired ∪ Added): a fanout of theirs has a new fanin list, so
//     the D of the edge into it changed (c) — for the fanins of Added this
//     also covers their grown fanout lists (b);
//   - fanins(fanouts(changed)): the "sibling rule" — when a node v's value
//     vector changed, D[x→g] of every edge into every fanout g of v is
//     evaluated at new cofactor values, for every fanin x of g (c).
//
// Dependency (d) is closed over by one reverse-topological backward pass:
// a row is dirty iff it is in H or any of its fanouts' rows is dirty. Rows
// outside the closure are untouched — by induction over reverse
// topological order, their base case, fanout list, every incident D and
// every fanout row are unchanged, so recomputation would reproduce them
// bit for bit.
//
// The closure bounds what can change; the fold recomputes less. Each
// closure row is recomputed into a scratch row and compared with its
// stored words, and a row that is not head-dirty is skipped in a shard
// when none of its fanout rows changed in that shard's words (see fold).
// Only words that differ are written, so a row's stored words change
// exactly when its contents do, and the refresh reports those rows
// (RefreshStats.Changed). The fold is word-local, so every word receives
// the sequential builder's operation sequence regardless of worker count.
//
// The lazy caches are dropped: the exactness certificate (the structure
// changed) and the AEM column memo (the error state changes every accept
// anyway). BuildTime is reset to the refresh duration.
//
// Refresh brings the rows p of either form up to date. The ER form's
// per-output rows at the wrong patterns depend on the error state as
// well; the Engine, which knows the state, refreshes those (refreshER).
func (c *CPM) Refresh(ed Edit, changed []circuit.NodeID, pool *par.Pool) RefreshStats {
	start := time.Now()
	flags, dirty := refreshClosure(c.net, ed, changed)
	pool.Label("cpm.refresh", obs.PhaseCPMBuild)
	c.refreshRows(ed, flags, dirty, pool)
	return c.refreshed(start, flags, dirty)
}

// refreshClosure returns Refresh's per-slot marks for an edit (see
// Refresh) and the dirty rows, the closure, in topological order.
func refreshClosure(n *circuit.Network, ed Edit, changed []circuit.NodeID) ([]uint8, []circuit.NodeID) {
	// Head-dirty set H.
	flags := make([]uint8, n.NumSlots())
	mark := func(id circuit.NodeID) {
		if n.IsLive(id) {
			flags[id] |= rowHead
		}
	}
	markFanins := func(id circuit.NodeID) {
		for _, f := range n.Fanins(id) {
			mark(f)
		}
	}
	mark(ed.Repl)
	for _, id := range ed.Rewired {
		mark(id)
		markFanins(id)
	}
	for _, id := range ed.Added {
		mark(id)
		markFanins(id)
	}
	for _, id := range ed.Boundary {
		mark(id)
	}
	for _, v := range changed {
		if !n.IsLive(v) {
			continue
		}
		for _, g := range n.Fanouts(v) {
			markFanins(g)
		}
	}

	// Backward closure over rows: P[n] depends on P[nf] for every fanout
	// nf, which sits later in topological order, so one reverse pass with
	// finalised fanout flags closes the set.
	order := n.TopoOrder()
	var dirty []circuit.NodeID // collected in reverse topological order
	for idx := len(order) - 1; idx >= 0; idx-- {
		id := order[idx]
		d := flags[id]&rowHead != 0
		if !d {
			for _, nf := range n.Fanouts(id) {
				if flags[nf]&rowDirty != 0 {
					d = true
					break
				}
			}
		}
		if d {
			flags[id] |= rowDirty
			dirty = append(dirty, id)
		}
	}
	for _, out := range n.Outputs() {
		flags[out.Node] |= rowDrives
	}
	slices.Reverse(dirty)
	return flags, dirty
}

// refreshRows brings c's rows up to date with the edited network: rows of
// removed nodes are dropped, added nodes get a zero row to compare
// against, and the restricted fold recomputes the dirty rows. It marks
// rowChanged in flags for every row it changed or allocated; a mark
// another CPM's refresh set over the same closure stays. The lazy caches
// are dropped.
func (c *CPM) refreshRows(ed Edit, flags []uint8, dirty []circuit.NodeID, pool *par.Pool) {
	n := c.net
	// The edit may have allocated node slots past the table's length.
	for len(c.p) < n.NumSlots() {
		c.p = append(c.p, nil)
	}
	for _, id := range ed.Removed {
		c.p[id] = nil
	}
	for _, id := range dirty {
		if c.p[id] == nil {
			row := make([]*bitvec.Vec, c.planes)
			for o := range row {
				row[o] = bitvec.New(c.m)
			}
			c.p[id] = row
			flags[id] |= rowChanged
		}
	}

	// Restricted fold over the closure in topological order: the fold
	// walks it backwards, so a closure fanout row is final before any
	// closure fanin row reads it; rows outside it are correct as-is. A
	// row changed if some shard changed it; the shards' flags are cleared
	// for the next refresh.
	for _, sc := range c.fold(dirty, flags, pool) {
		for _, id := range dirty {
			if sc[id] {
				flags[id] |= rowChanged
				sc[id] = false
			}
		}
	}
	c.cert.Store(nil)
	c.aemFor = nil
}

// refreshed finishes a refresh that started at start over the dirty rows:
// it records the time and the counters and reports the rows marked
// rowChanged.
func (c *CPM) refreshed(start time.Time, flags []uint8, dirty []circuit.NodeID) RefreshStats {
	var changedRows []circuit.NodeID
	for _, id := range dirty {
		if flags[id]&rowChanged != 0 {
			changedRows = append(changedRows, id)
		}
	}
	live := 0
	for _, row := range c.p {
		if row != nil {
			live++
		}
	}
	c.buildTime = time.Since(start)
	statCPMRefreshes.Inc()
	statCPMRefreshNS.Add(int64(c.buildTime))
	statCPMDirtyRows.Add(int64(len(dirty)))
	statCPMCleanRows.Add(int64(live - len(dirty)))
	return RefreshStats{DirtyRows: len(dirty), TotalRows: live, Duration: c.buildTime, Changed: changedRows}
}

// Values returns the simulation value table the CPM was built against —
// the incremental engine mutates it in place between Refreshes.
func (c *CPM) Values() *sim.Values { return c.vals }

package sasimi

import (
	"context"

	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// gatherCache carries candidate-enumeration state across iterations of the
// incremental engine. Candidate gathering is the flow's single most
// expensive phase, yet an accepted substitution invalidates only a small
// region of it: a target's candidates stay bit-identical unless the
// target's value vector, arrival time or MFFC reads changed, and among a
// clean target's candidates only the pairs whose substitute lies in the
// edit's dirty region need re-evaluation. The cache exploits exactly that:
//
//   - per target it keeps the MFFC gain figures plus the dependency set
//     deps (MFFC cone nodes and their fanins — the records the MFFC walk
//     reads, see targetData);
//   - after an edit it derives targetDirty = value-changed ∪ added ∪
//     arrival-changed ∪ {t : deps(t) ∩ probe ≠ ∅}, where probe is the set
//     of nodes whose structural records the edit touched (Repl, Rewired,
//     Removed, Boundary, fanins of Added);
//   - subDirty is the structural fanout cone of the rewired/added seeds
//     plus every arrival-changed node: any pair whose admissibility
//     (cycle screen, delay screen) or difference probability could have
//     moved has its substitute in this set, because new target→substitute
//     paths run through a rewired edge, lost paths ran through the swept
//     region, and changed values lie in the seeds' fanout cones;
//   - dirty targets re-enumerate in full, clean targets evaluate only the
//     pairs with a dirty substitute.
//
// The candidate list itself is maintained by filter-and-merge: candLess
// is a strict total order, so the sorted permutation of the candidate
// multiset is unique, and the cache keeps the previous iteration's fully
// sorted list. After an edit it filters out the entries owned by dirty or
// removed targets and dropped substitutes (a linear pass over a list that
// is already sorted), the workers enumerate the replacement entries in
// bins and count-sort each bin into a run (see binBuf.sortedRun), and one
// k-way merge joins the sorted runs. The result is the unique sorted
// permutation of the new multiset — bit-identical to a full gather,
// pinned by the differential suite and the Config.verifyIncremental
// cross-check. No per-target candidate lists are kept: the filter reads
// the sorted list directly.
type gatherCache struct {
	data        []targetData // indexed by node slot
	prevArrival []float64
	// sorted is the full sorted candidate list of the previous gather,
	// before the MaxCandidates cap. Callers get a view of it (see capped):
	// scoring writes Delta/Score/Exact in place, fields the cache never
	// reads.
	sorted []Candidate

	// Dispatch scratch: the LPT bin-packer and its inputs (work items as
	// target node ids plus their estimated costs), and one reusable bin
	// buffer per pool worker that each bin appends into before sorting out
	// its exact-size run.
	planner par.Planner
	items   []int
	costs   []float64
	bufs    []binBuf
}

// full performs the initial complete gather, recording every target's
// gain figures and dependency set. A cancelled context aborts the fan-out
// and returns the context's error; the cache is then partially populated
// and must be discarded.
func (gc *gatherCache) full(goCtx context.Context, env *gatherEnv, pool *par.Pool) ([]Candidate, error) {
	gc.data = make([]targetData, env.net.NumSlots())
	sorted, err := gather(goCtx, env, pool, gc.data)
	if err != nil {
		return nil, err
	}
	gc.sorted = sorted
	gc.prevArrival = append([]float64(nil), env.arrival...)
	return capped(gc.sorted, env.cfg), nil
}

// update refreshes the cache after one accepted edit and returns the new
// candidate list. ed is the structural record of the edit and changed the
// nodes whose value vectors differ (from core.Engine.Apply). A cancelled
// context aborts the fan-out and returns the context's error; the cache is
// then partially updated and must be discarded.
func (gc *gatherCache) update(goCtx context.Context, env *gatherEnv, ed *core.Edit, changed []circuit.NodeID, pool *par.Pool) ([]Candidate, error) {
	n := env.net
	slots := n.NumSlots()
	for len(gc.data) < slots {
		gc.data = append(gc.data, targetData{})
	}
	for len(gc.prevArrival) < slots {
		gc.prevArrival = append(gc.prevArrival, 0)
	}
	for _, id := range ed.Removed {
		gc.data[id] = targetData{}
	}

	// probe: nodes whose structural records (fanin list, fanout count,
	// output-driver status) the edit touched. A clean target's MFFC walk
	// read none of them, so its gain figures are unchanged.
	probe := make([]bool, slots)
	probe[ed.Repl] = true
	for _, id := range ed.Rewired {
		probe[id] = true
	}
	for _, id := range ed.Removed {
		probe[id] = true
	}
	for _, id := range ed.Boundary {
		probe[id] = true
	}
	for _, id := range ed.Added {
		probe[id] = true
		for _, f := range n.Fanins(id) {
			probe[f] = true
		}
	}

	changedVal := make([]bool, slots)
	for _, id := range changed {
		changedVal[id] = true
	}

	arrivalChanged := make([]bool, slots)
	for _, id := range n.LiveNodes() {
		if env.arrival[id] != gc.prevArrival[id] {
			arrivalChanged[id] = true
		}
	}

	// subDirty: structural fanout cone of the edit's seeds, plus every
	// arrival-changed node.
	subDirty := make([]bool, slots)
	var stack []circuit.NodeID
	push := func(id circuit.NodeID) {
		if n.IsLive(id) && !subDirty[id] {
			subDirty[id] = true
			stack = append(stack, id)
		}
	}
	for _, id := range ed.Rewired {
		push(id)
	}
	for _, id := range ed.Added {
		push(id)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range n.Fanouts(x) {
			push(fo)
		}
	}
	for _, id := range n.LiveNodes() {
		if arrivalChanged[id] {
			subDirty[id] = true
		}
	}

	// drop marks substitutes whose pairs must leave the sorted list: the
	// dirty ones (re-evaluated below) and the removed ones (gone).
	drop := make([]bool, slots)
	copy(drop, subDirty)
	for _, id := range ed.Removed {
		drop[id] = true
	}

	// The dirty substitutes that are admissible, ascending. Under
	// non-strict arrival times each gets one transitive fanin cone:
	// t ∈ tfi(s) ⟺ s ∈ TFO(t), which is the enumeration's cycle screen
	// evaluated from the substitute's side. Under strict arrival times
	// the arrival guard covers it (see gatherEnv.strict).
	var dirtySubs []circuit.NodeID
	for _, id := range n.LiveNodes() {
		if subDirty[id] {
			if k := n.Kind(id); k.IsGate() || k == circuit.KindInput {
				dirtySubs = append(dirtySubs, id)
			}
		}
	}
	var tfis [][]bool
	if !env.strict {
		tfis = make([][]bool, len(dirtySubs))
		for i, s := range dirtySubs {
			tfis[i] = n.TransitiveFaninCone(s)
		}
	}

	// Classify targets driver-side so the bin-packer can see each one's
	// estimated cost: a dirty target re-enumerates every substitute
	// (≈|subs| pair evaluations plus the MFFC walk), a clean one touches
	// only the dirty substitutes. LPT bins bound the load spread by one
	// item's cost, and Overcommit bins per worker leave queued bins for
	// any worker that finishes early to steal. Items are listed in
	// ascending target order, and planAscending keeps each bin ascending.
	targets := liveGateTargets(n)
	dirtyT := make([]bool, slots)
	gc.items = gc.items[:0]
	gc.costs = gc.costs[:0]
	dirtyCost := float64(len(env.subs)) + 8
	cleanCost := float64(len(dirtySubs)) + 1
	for _, t := range targets {
		td := &gc.data[t]
		if !td.live || changedVal[t] || arrivalChanged[t] || depsTouched(td.deps, probe) {
			dirtyT[t] = true
			gc.items = append(gc.items, int(t))
			gc.costs = append(gc.costs, dirtyCost)
		} else if td.baseGain > 0 && len(dirtySubs) > 0 {
			gc.items = append(gc.items, int(t))
			gc.costs = append(gc.costs, cleanCost)
		}
		// Other clean targets: no work, provably unchanged.
	}
	bins := planAscending(&gc.planner, gc.costs, pool.Workers())
	// The last run is the kept part of the previous list, filled below.
	runs := make([][]Candidate, len(bins)+1)
	if len(gc.bufs) < pool.Workers() {
		gc.bufs = append(gc.bufs, make([]binBuf, pool.Workers()-len(gc.bufs))...)
	}
	pool.Label("sasimi.gather_inc", obs.PhaseEstimate)
	err := pool.DoCtx(goCtx, len(bins), func(w, bi int) {
		b := &gc.bufs[w]
		for _, ii := range bins[bi] {
			t := circuit.NodeID(gc.items[ii])
			if dirtyT[t] {
				gc.data[t] = env.target(t, true)
				env.appendTarget(b, &gc.data[t], t)
				continue
			}
			td := &gc.data[t]
			tv := env.vals.Node(t)
			for i, s := range dirtySubs {
				if s == t || (tfis != nil && tfis[i][t]) {
					continue
				}
				env.appendPair(b, td, t, s, tv)
			}
		}
		runs[bi] = b.sortedRun(env.adm.numRanks)
	})
	if err != nil {
		return nil, err
	}

	// Filter the previous list in place: minus the entries of dirty or
	// removed targets and dropped substitutes it is still sorted, and the
	// workers' runs are exactly the complement of the new multiset. The
	// previous iteration's view of this list is dead by now.
	kept := gc.sorted[:0]
	for i := range gc.sorted {
		c := &gc.sorted[i]
		if !n.IsLive(c.Target) || dirtyT[c.Target] {
			continue
		}
		if !c.Const && drop[c.Sub] {
			continue
		}
		kept = append(kept, *c)
	}
	runs[len(bins)] = kept
	gc.sorted = mergeSorted(runs)

	gc.prevArrival = append(gc.prevArrival[:0], env.arrival...)
	return capped(gc.sorted, env.cfg), nil
}

func depsTouched(deps []circuit.NodeID, probe []bool) bool {
	for _, d := range deps {
		if probe[d] {
			return true
		}
	}
	return false
}

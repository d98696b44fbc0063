package sasimi

import (
	"context"
	"math"

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
//   - per target it keeps the MFFC gain figures, the exceptions its pairs
//     needed so far, and the dependency set deps (MFFC cone nodes and
//     their fanins — the records the MFFC walks read, see targetData);
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
// The candidate store is updated in place, segment by segment (see
// candStore.update). The store is in identity order, a strict total
// order, so the list of a candidate multiset is unique. After an edit the
// store's filter drops the records of dirty or removed targets and of
// dropped substitutes, keeping the order, the workers enumerate the
// replacement records in contiguous bins of the work items, ascending by
// target, so the bins' output laid end to end is in identity order too,
// and the store's merge joins each target's kept and fresh records. The
// result is the unique ordered list of the new multiset — bit-identical to
// a full gather, pinned by the differential suite and the
// Config.verifyIncremental cross-check. The update moves records within
// the store's own pages, cutting them or growing the last one as the list
// shrinks or grows, so no dead page outlives an update.
//
// The store also carries each candidate's pattern sum through the update,
// with its record, so the scorer can reuse it (see
// scoreCandidatesSharded).
type gatherCache struct {
	data        []targetData // indexed by node slot
	prevArrival []float64
	// store is the candidate list of the previous gather. Callers get it,
	// not a copy, and only read it: an iteration's scores live in scored
	// entries outside it.
	store *candStore
	su    storeUpdate

	// Dispatch scratch: the bin planner and its inputs (work items as
	// target node ids, ascending, plus their estimated costs), and one
	// reusable page buffer per bin.
	planner par.Planner
	items   []circuit.NodeID
	costs   []float64
	bufs    []binBuf
}

// full performs the initial complete gather, recording every target's
// gain figures and dependency set. A cancelled context aborts the fan-out
// and returns the context's error; the cache is then partially populated
// and must be discarded.
func (gc *gatherCache) full(goCtx context.Context, env *gatherEnv, pool *par.Pool) (*candStore, error) {
	gc.data = make([]targetData, env.net.NumSlots())
	st, err := gather(goCtx, env, pool, gc.data)
	if err != nil {
		return nil, err
	}
	gc.store = st
	gc.prevArrival = append([]float64(nil), env.arrival...)
	return st, nil
}

// update refreshes the cache after one accepted edit and returns the
// updated candidate store. ed is the structural record of the edit and changed the
// nodes whose value vectors differ (from core.Engine.Apply). A cancelled
// context aborts the fan-out and returns the context's error; the cache is
// then partially updated and must be discarded.
func (gc *gatherCache) update(goCtx context.Context, env *gatherEnv, ed *core.Edit, changed []circuit.NodeID, pool *par.Pool) (*candStore, error) {
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

	// drop marks substitutes whose pairs must leave the store: the
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

	// Classify targets driver-side so the planner can see each one's
	// estimated cost: a dirty target re-enumerates every substitute (its
	// full-enumeration cost, see gatherEnv.enumCost), a clean one touches
	// only the dirty substitutes. The planner keeps each bin within one
	// item's cost of its share, and Overcommit bins per worker leave queued
	// bins for any worker that finishes early to steal.
	targets := liveGateTargets(n)
	dirtyT := make([]bool, slots)
	gc.items = gc.items[:0]
	gc.costs = gc.costs[:0]
	enumCost := env.enumCost()
	cleanCost := float64(len(dirtySubs)) + 1
	for _, t := range targets {
		td := &gc.data[t]
		if !td.live || changedVal[t] || arrivalChanged[t] || depsTouched(td.deps, probe) {
			dirtyT[t] = true
			gc.items = append(gc.items, t)
			gc.costs = append(gc.costs, enumCost(t))
		} else if td.baseGain > 0 && len(dirtySubs) > 0 {
			gc.items = append(gc.items, t)
			gc.costs = append(gc.costs, cleanCost)
		}
		// Other clean targets: no work, provably unchanged.
	}
	bounds := gc.planner.Plan(gc.costs, par.PlanBins(len(gc.costs), pool.Workers()))
	bins := len(bounds) - 1
	gc.bufs = grow(gc.bufs, bins)
	pool.Label("sasimi.gather_inc", obs.PhaseEstimate)
	err := pool.DoCtx(goCtx, bins, func(_, bi int) {
		b := &gc.bufs[bi]
		b.reset()
		for _, t := range gc.items[bounds[bi]:bounds[bi+1]] {
			b.begin()
			if dirtyT[t] {
				gc.data[t] = env.target(b, t, true)
				env.appendTarget(b, &gc.data[t], t)
			} else {
				td := &gc.data[t]
				tv := env.vals.Node(t)
				for i, s := range dirtySubs {
					if s == t || (tfis != nil && tfis[i][t]) {
						continue
					}
					env.appendPair(b, td, t, s, tv)
				}
			}
			b.end(&gc.data[t])
		}
	})
	if err != nil {
		return nil, err
	}

	// The bins' output is exactly the complement, in the new multiset, of
	// what the filter keeps: the records of dirty targets and of dropped
	// substitutes.
	gc.store.update(n, dirtyT, drop, gc.bufs[:bins], &gc.su)
	gc.prevArrival = append(gc.prevArrival[:0], env.arrival...)
	return gc.store, nil
}

func depsTouched(deps []circuit.NodeID, probe []bool) bool {
	for _, d := range deps {
		if probe[d] {
			return true
		}
	}
	return false
}

// patternSum is the type of a candidate's pattern sum: the ER net count,
// or the AEM magnitude sum, an integer held in a float64. The store keeps
// the sums in pages beside its records (sumPages).
type patternSum interface{ int32 | float64 }

// staleSum marks a carried sum that must be recomputed: the entry was
// re-enumerated. No ER net count reaches it (|count| ≤ M < 2^31); an AEM
// sum that happened to equal it would only be recomputed needlessly.
const staleSum = math.MinInt32

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
// The candidate list itself is maintained by filter-and-merge. The list
// is in identity order (see idCompare), a strict total order, so the list
// of a candidate multiset is unique, and the cache keeps the previous
// iteration's list. After an edit it filters out the entries owned by
// dirty or removed targets and dropped substitutes (a linear pass that
// keeps the order), the workers enumerate the replacement entries in
// contiguous bins of the work items, ascending by target, so the bins'
// outputs laid end to end are in identity order too, and one two-way
// merge by identity joins them with the kept entries (see mergeFresh).
// The result is the unique ordered list of the new multiset —
// bit-identical to a full gather, pinned by the differential suite and
// the Config.verifyIncremental cross-check. No per-target candidate lists
// are kept: the filter reads the list directly. The merge fills the
// list's own buffer from the back, the kept entries being its prefix, so
// an iteration allocates a list only when the list outgrows its buffer.
//
// The cache also carries each candidate's pattern sum (sums) through the
// filter and the merge, so the scorer can reuse it (see
// scoreCandidatesSharded).
type gatherCache struct {
	data        []targetData // indexed by node slot
	prevArrival []float64
	// list is the full candidate list of the previous gather, in identity
	// order. Callers get it, not a copy, and only read it: an iteration's
	// scores live in scored entries outside the list.
	list []cand
	sums candSums

	// Dispatch scratch: the bin planner and its inputs (work items as
	// target node ids, ascending, plus their estimated costs), one
	// reusable block buffer per bin, and the bins' filled blocks in order.
	planner par.Planner
	items   []circuit.NodeID
	costs   []float64
	bufs    []binBuf
	segs    [][]cand
}

// full performs the initial complete gather, recording every target's
// gain figures and dependency set. A cancelled context aborts the fan-out
// and returns the context's error; the cache is then partially populated
// and must be discarded.
func (gc *gatherCache) full(goCtx context.Context, env *gatherEnv, pool *par.Pool) ([]cand, error) {
	gc.data = make([]targetData, env.net.NumSlots())
	list, err := gather(goCtx, env, pool, gc.data)
	if err != nil {
		return nil, err
	}
	gc.list = list
	gc.prevArrival = append([]float64(nil), env.arrival...)
	return gc.list, nil
}

// update refreshes the cache after one accepted edit and returns the new
// candidate list. ed is the structural record of the edit and changed the
// nodes whose value vectors differ (from core.Engine.Apply). A cancelled
// context aborts the fan-out and returns the context's error; the cache is
// then partially updated and must be discarded.
func (gc *gatherCache) update(goCtx context.Context, env *gatherEnv, ed *core.Edit, changed []circuit.NodeID, pool *par.Pool) ([]cand, error) {
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

	// drop marks substitutes whose pairs must leave the list: the
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
		b.n = 0
		for _, t := range gc.items[bounds[bi]:bounds[bi+1]] {
			if dirtyT[t] {
				gc.data[t] = env.target(b, t, true)
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
	})
	if err != nil {
		return nil, err
	}

	// Filter the previous list in place, with its sums in lockstep: minus
	// the entries of dirty or removed targets and dropped substitutes it
	// is still in identity order, and the bins' output is exactly the
	// complement of the new multiset. The previous iteration's view of
	// this list is dead by now.
	kept := gc.list[:0]
	for i := range gc.list {
		c := &gc.list[i]
		if !n.IsLive(c.target) || dirtyT[c.target] {
			continue
		}
		if !c.isConst() && drop[c.sub] {
			continue
		}
		gc.sums.er.move(len(kept), i)
		gc.sums.aem.move(len(kept), i)
		kept = append(kept, *c)
	}
	gc.segs = gc.segs[:0]
	for bi := range bins {
		gc.segs = gc.bufs[bi].appendSegments(gc.segs)
	}
	gc.list = mergeFresh(kept, gc.segs)
	// A merge keeps each side's order, so the kept entries reach the new
	// list in their filtered order, and an entry is re-enumerated exactly
	// when the filter would drop it.
	fresh := func(c *cand) bool { return dirtyT[c.target] || (!c.isConst() && drop[c.sub]) }
	gc.sums.er.align(gc.list, len(kept), fresh)
	gc.sums.aem.align(gc.list, len(kept), fresh)

	gc.prevArrival = append(gc.prevArrival[:0], env.arrival...)
	return gc.list, nil
}

// mergeFresh merges the fresh candidates into the kept ones and returns
// the merged list in identity order. kept is in identity order, and so
// are fresh's segments laid end to end; no fresh candidate has a kept
// one's identity. The merge fills kept's own buffer, grown to the total
// if it is shorter, from the back, last first: when it writes slot k, at
// most k+1 entries remain unmerged, so an unread kept entry sits at k or
// below, and at k only if it is the entry being written. Once the fresh
// candidates are placed, the kept entries still unread are already in
// their slots. fresh must not overlap kept's buffer.
func mergeFresh(kept []cand, fresh [][]cand) []cand {
	total := len(kept)
	for _, seg := range fresh {
		total += len(seg)
	}
	out := grow(kept, total)
	j, k := len(kept)-1, total-1
	for si := len(fresh) - 1; si >= 0; si-- {
		seg := fresh[si]
		for fi := len(seg) - 1; fi >= 0; fi-- {
			f := &seg[fi]
			for j >= 0 && idCompare(&out[j], f) > 0 {
				out[k] = out[j]
				j--
				k--
			}
			out[k] = *f
			k--
		}
	}
	return out
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
// or the AEM magnitude sum, an integer held in a float64.
type patternSum interface{ int32 | float64 }

// staleSum marks a carried sum that must be recomputed: the entry was
// re-enumerated. No ER net count reaches it (|count| ≤ M < 2^31); an AEM
// sum that happened to equal it would only be recomputed needlessly.
const staleSum = math.MinInt32

// sumList is one metric's per-candidate pattern sums, aligned with the
// gather cache's list.
type sumList[T patternSum] struct {
	cur []T
	// valid reports that cur holds a sum for every entry of the list it is
	// aligned with, stale-marked where the entry was re-enumerated since.
	valid bool
}

// candSums holds the batch scorer's carried pattern sums; the flow's
// metric decides which list is in use.
type candSums struct {
	er  sumList[int32]
	aem sumList[float64]
}

// move copies the sum of list entry src to entry dst (dst ≤ src) as the
// filter compacts the list.
func (s *sumList[T]) move(dst, src int) {
	if s.valid {
		s.cur[dst] = s.cur[src]
	}
}

// align lays the compacted sums of the kept entries, cur[:kept], out along
// the merged list, in place: the kept entries, in order, take their sums
// and the fresh ones staleSum. Filled from the back, like the merge, so
// the j-th kept sum moves up to its slot k ≥ j before anything writes
// over it.
func (s *sumList[T]) align(merged []cand, kept int, fresh func(*cand) bool) {
	if !s.valid {
		return
	}
	s.cur = grow(s.cur, len(merged))
	j := kept - 1
	for k := len(merged) - 1; k >= 0; k-- {
		if fresh(&merged[k]) {
			s.cur[k] = staleSum
		} else {
			s.cur[k] = s.cur[j]
			j--
		}
	}
}

// forList returns the sums for a list of n candidates and whether they
// carry from the previous pass; if not, cur is resized to n and every
// entry is to be computed.
func (s *sumList[T]) forList(n int) ([]T, bool) {
	if !s.valid || len(s.cur) != n {
		s.valid = false
		s.cur = grow(s.cur, n)
	}
	return s.cur, s.valid
}

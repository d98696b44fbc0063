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
// expensive phase, yet an accepted substitution moves few of its pair
// decisions. A pair's decision reads the target's value, arrival and gain
// figures, the substitute's value and arrival and, unless arrival times
// are strict, the cycle screen. The cache re-examines a pair only when
// one of them can have moved:
//
//   - per target it keeps the MFFC gain figures, the exceptions its pairs
//     needed so far, and the dependency set deps (MFFC cone nodes and
//     their fanins — the records the MFFC walks read, see targetData);
//   - targetDirty is value-changed ∪ added ∪ the targets whose gain
//     figures moved ∪ arrival-changed, the last only when arrival times
//     are not strict at both this gather and the previous one. A target
//     whose deps the edit touched (deps(t) ∩ probe ≠ ∅, where probe is
//     the set of nodes whose structural records the edit touched: Repl,
//     Rewired, Removed, Boundary, fanins of Added) re-walks its MFFC and
//     its cached exception gains (gatherEnv.sameGain). If the MFFC, the
//     base gain and every exception gain are unchanged, so is every pair's
//     gain, and the target stays clean with its new deps. Dirty targets
//     re-enumerate in full;
//   - subDirty, when arrival times are strict at both gathers, is
//     value-changed ∪ added ∪ arrival-changed. The arrival guard then
//     rejects every node of a target's fanout cone at both gathers, so it
//     is the cycle screen, and a pair of a clean target and a substitute
//     outside subDirty reads only inputs that did not move. This relies on
//     changed listing every node whose value vector changed
//     (core.Engine.Apply). Otherwise subDirty is the structural fanout
//     cone of the rewired/added seeds plus every arrival-changed node:
//     new target→substitute paths run through a rewired edge, lost paths
//     ran through the swept region, and changed values lie in the seeds'
//     fanout cones;
//   - the band: under strict arrival times at both gathers, a clean
//     target whose arrival moved between the gathers keeps every record
//     except those whose arrival guard can flip, a substitute arriving at
//     a with a, or a + invDelay, inside (min, max] of the old and new
//     arrival (guardBand). A pair's other inputs did not move, and the
//     cycle screen is the guard at both gathers;
//   - clean targets evaluate only the pairs whose record may have moved:
//     those with a dirty substitute, and those in the target's band.
//
// The candidate store is updated in place, segment by segment (see
// candStore.update). The store is in identity order, a strict total
// order, so the list of a candidate multiset is unique. After an edit the
// store's filter drops the records the update re-enumerates (staleRecs),
// keeping the order, the workers enumerate the replacement records in
// contiguous bins of the work items, ascending by target, so the bins'
// output laid end to end is in identity order too, and the store's merge
// joins each target's kept and fresh records. The result is the unique
// ordered list of the new multiset — bit-identical to a full gather,
// pinned by the differential suite and the Config.verifyIncremental
// cross-check. The update moves records within the store's own pages,
// cutting them or growing the last one as the list shrinks or grows, so no
// dead page outlives an update.
//
// The store also carries each candidate's pattern sum through the update,
// with its record, so the scorer can reuse it (see
// scoreCandidatesSharded).
type gatherCache struct {
	data        []targetData // indexed by node slot
	prevArrival []float64
	// strict is the previous gather's gatherEnv.strict.
	strict bool
	// store is the candidate list of the previous gather. Callers get it,
	// not a copy, and only read it: an iteration's scores live in scored
	// entries outside it.
	store *candStore
	su    storeUpdate

	// Dispatch scratch: the bin planner and its inputs (work items as
	// target node ids, ascending, plus their estimated costs), one
	// reusable page buffer per bin, and the driver's MFFC scratch for the
	// gain re-walks.
	planner par.Planner
	items   []circuit.NodeID
	costs   []float64
	bufs    []binBuf
	walk    binBuf
}

// full performs the initial complete gather, recording every target's
// gain figures and dependency set. pairs is the number of pairs compared
// on the patterns. A cancelled context aborts the fan-out and returns the
// context's error; the cache is then partially populated and must be
// discarded.
func (gc *gatherCache) full(goCtx context.Context, env *gatherEnv, pool *par.Pool) (*candStore, int, error) {
	gc.data = make([]targetData, env.net.NumSlots())
	st, pairs, err := gather(goCtx, env, pool, gc.data)
	if err != nil {
		return nil, 0, err
	}
	gc.store = st
	gc.prevArrival = append([]float64(nil), env.arrival...)
	gc.strict = env.strict
	return st, pairs, nil
}

// staleRecs names the records a cache update re-enumerates, which the
// store's update drops: every record of a dirty target, and a clean
// target's records whose substitute is dropped or whose arrival guard can
// flip in the target's band.
type staleRecs struct {
	dirty []bool // targets, by node slot
	drop  []bool // substitutes, by node slot: dirty or removed
	// The arrival times at the previous gather and at this one, by node
	// slot.
	prevArrival, arrival []float64
	invDelay             float64
}

// band is target t's guard band between the two gathers. It is empty
// unless t's arrival moved, and a target whose arrival moved stays clean
// only under strict arrival times at both gathers.
func (sr *staleRecs) band(t circuit.NodeID) guardBand {
	a0, a1 := sr.prevArrival[t], sr.arrival[t]
	return guardBand{min(a0, a1), max(a0, a1)}
}

// dropped reports whether a clean target whose band is bd re-enumerates
// its pair with substitute s.
func (sr *staleRecs) dropped(bd guardBand, s circuit.NodeID) bool {
	return sr.drop[s] || bd.flips(sr.arrival[s], sr.invDelay)
}

// guardBand is the range (lo, hi] between a target's arrival times at two
// gathers. A substitute's arrival guard (arrivalGuard) reads the same
// against both unless the substitute arrives at a with a, or a +
// invDelay, inside the range: a value at lo or below passes both, one
// above hi fails both. lo == hi is the empty band.
type guardBand struct{ lo, hi float64 }

func (g guardBand) flips(a, invDelay float64) bool {
	ai := a + invDelay
	return g.lo < a && a <= g.hi || g.lo < ai && ai <= g.hi
}

// update refreshes the cache after one accepted edit and returns the
// updated candidate store and the number of pairs compared on the
// patterns. ed is the structural record of the edit and changed every
// node whose value vector differs (from core.Engine.Apply). A cancelled
// context aborts the fan-out and returns the context's error; the cache
// is then partially updated and must be discarded.
func (gc *gatherCache) update(goCtx context.Context, env *gatherEnv, ed *core.Edit, changed []circuit.NodeID, pool *par.Pool) (*candStore, int, error) {
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
	// Under strict arrival times at both gathers the arrival guard is the
	// cycle screen at both (see gatherEnv.strict).
	strict := env.strict && gc.strict

	// probe: nodes whose structural records (fanin list, fanout count,
	// output-driver status) the edit touched. A target's MFFC walk that
	// read none of them finds the same gain figures.
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

	// subDirty: the value-changed and added nodes under strict arrival
	// times, else the structural fanout cone of the edit's seeds; plus
	// every arrival-changed node.
	subDirty := make([]bool, slots)
	var stack []circuit.NodeID
	push := func(id circuit.NodeID) {
		if n.IsLive(id) && !subDirty[id] {
			subDirty[id] = true
			stack = append(stack, id)
		}
	}
	if strict {
		for _, id := range changed {
			subDirty[id] = true
		}
		for _, id := range ed.Added {
			subDirty[id] = true
		}
	} else {
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
	}
	for _, id := range n.LiveNodes() {
		if arrivalChanged[id] {
			subDirty[id] = true
		}
	}

	// The substitutes whose pairs leave the store: the dirty ones
	// (re-evaluated below) and the removed ones (gone).
	sr := staleRecs{
		dirty:       make([]bool, slots),
		drop:        make([]bool, slots),
		prevArrival: gc.prevArrival,
		arrival:     env.arrival,
		invDelay:    env.invDelay,
	}
	copy(sr.drop, subDirty)
	for _, id := range ed.Removed {
		sr.drop[id] = true
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
	// full-enumeration cost, see enumCosts), a banded one scans every
	// substitute and compares those in its band and the dirty ones, a
	// clean one touches only the dirty substitutes. The planner keeps each
	// bin within one item's cost of its share, and Overcommit bins per
	// worker leave queued bins for any worker that finishes early to
	// steal.
	targets := liveGateTargets(n)
	gc.items = gc.items[:0]
	gc.costs = gc.costs[:0]
	cost := env.costs()
	cleanCost := float64(len(dirtySubs)) + 1
	for _, t := range targets {
		td := &gc.data[t]
		moved := arrivalChanged[t]
		switch {
		case !td.live || changedVal[t] || moved && !strict ||
			depsTouched(td.deps, probe) && !env.sameGain(&gc.walk, td, t):
			sr.dirty[t] = true
			gc.items = append(gc.items, t)
			gc.costs = append(gc.costs, cost.full(env.arrival[t]))
		case td.baseGain <= 0:
			// A target without gain has no candidates.
		case moved:
			bd := sr.band(t)
			gc.items = append(gc.items, t)
			gc.costs = append(gc.costs, cost.scan+cost.upTo(bd.hi)-cost.upTo(bd.lo-env.invDelay)+cleanCost)
		case len(dirtySubs) > 0:
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
			td := &gc.data[t]
			tv := env.vals.Node(t)
			pairs := 0
			switch bd := sr.band(t); {
			case sr.dirty[t]:
				*td = env.target(b, t, true)
				env.appendTarget(b, td, t)
			case bd.lo < bd.hi:
				for _, s := range env.subs {
					if s != t && sr.dropped(bd, s) {
						pairs += env.appendPair(b, td, t, s, tv)
					}
				}
			default:
				for i, s := range dirtySubs {
					if s != t && (tfis == nil || !tfis[i][t]) {
						pairs += env.appendPair(b, td, t, s, tv)
					}
				}
			}
			b.pairs += pairs
			b.end(td)
		}
	})
	if err != nil {
		return nil, 0, err
	}

	// The bins' output is exactly the complement, in the new multiset, of
	// what the filter keeps: the records sr names.
	gc.store.update(n, &sr, gc.bufs[:bins], &gc.su)
	gc.prevArrival = append(gc.prevArrival[:0], env.arrival...)
	gc.strict = env.strict
	return gc.store, binPairs(gc.bufs[:bins]), nil
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

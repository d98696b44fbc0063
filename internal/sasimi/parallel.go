package sasimi

import (
	"context"
	"math/bits"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// scoreCandidatesMaybeSharded dispatches candidate scoring on the
// estimator: the batch estimator takes the pattern-sharded path at every
// worker count (one shard on a single-worker pool), carrying each
// candidate's pattern sum in sums from one iteration to the next; the
// full estimator (which mutates the value table during cone
// resimulation) and the local estimator (a trivial popcount) run the
// sequential loop. Both append the feasible entries to buf[:0].
func scoreCandidatesMaybeSharded(ctx *iterContext, est estimator, cands []cand, sums *candSums, buf []scored,
	curErr, threshold float64, scratch, change *bitvec.Vec, ss *scoreScratch, pool *par.Pool,
	o *runObs, iter int) (int, []scored) {

	if _, ok := est.(*batchEstimator); ok && len(cands) > 0 {
		return scoreCandidatesSharded(ctx, cands, sums, buf, curErr, threshold, ss, pool, o, iter)
	}
	o.scoringPass(len(cands), 0)
	return scoreCandidates(est, cands, buf, ctx.vals, curErr, threshold, scratch, change, o, iter)
}

// scoreScratch is the flow-owned scratch of the sharded scorer. It
// persists across iterations, so a pass allocates nothing that grows with
// the candidate list once the buffers have grown to it.
type scoreScratch struct {
	lastM, lastWorkers int
	shards             []par.Shard
	seen               []bool // node-slot marks (targets, then changed rows), cleared after each use
	targets            []circuit.NodeID
	erNet              [][]int32   // per shard: each rescored candidate's net ER count
	aemMag             [][]float64 // per shard: each rescored candidate's magnitude sum
	chg                [][]uint64  // per shard: change-mask words

	// Carry scratch: the nonzero words of the accept's output-change mask
	// D (indices dws, words dm), the previous state's packed output words
	// at D's patterns (AEM), the bit set of candidates left to the full
	// kernel, and per task of the carry pass its masked change words and
	// how many candidates it left.
	dws     []int32
	dm      []uint64
	prevV   []uint64
	rescore []uint64
	mc      [][]uint64
	left    []int
}

// sumKernel is one metric's scoring kernels over pattern sums of type T.
type sumKernel[T patternSum] struct {
	// partial is a candidate's sum over the words [w0, w1) of its change
	// mask chg.
	partial func(target circuit.NodeID, chg []uint64, w0, w1 int) T
	// correction is how much a carried sum moves from the previous error
	// state to the current one; mc holds the change mask restricted to D
	// at D's nonzero words.
	correction func(target circuit.NodeID, mc []uint64, ws []int32) T
	// maxD is the most nonzero words D may have for corrections to pay:
	// past it, every carried sum that may move is recomputed in full.
	maxD int
	// cheaper, when non-nil, reports for one candidate that the correction
	// costs less than the full kernel; nil means it always does.
	cheaper func(c *cand, mc []uint64) bool
}

// scoreCandidatesSharded evaluates every candidate's batch estimate, then
// runs the selection loop sequentially in candidate order so feasibility
// and tie-breaking match scoreCandidates decision for decision.
//
// A candidate's estimate is its pattern sum over M — for ER the net count
// inc − dec of Algorithm 1, kept as one int32 (both counts are at most M),
// for AEM the unnormalised magnitude sum — and sums carries every
// candidate's sum from one iteration to the next, aligned with the gather
// cache's list. A pass scores a candidate by one of three rules:
//
//   - a fresh candidate (its sum is staleSum: the cache re-enumerated it),
//     one whose target's CPM row the refresh changed, and every candidate
//     when nothing carries (the first iteration, a full CPM build), runs
//     the full kernel;
//   - any other adds correction(chg ∧ D) to its sum, where D is the set of
//     patterns whose output word the accept changed (core.Engine.Diff):
//     nothing when chg ∧ D is empty;
//   - unless the correction would cost more than the full kernel (see
//     sumKernel.maxD and cheaper), in which case it runs the full kernel.
//
// The carried sum is exact: a kept candidate's change mask is unchanged,
// because the cache re-enumerates any candidate whose target or
// substitute value changed; with the target's row unchanged, a pattern's
// term changes only where its output word did, which is D; and the sums
// are integers, so adding the difference gives what a full re-sum would.
//
// The full kernel shards the pattern space across the pool's workers:
// each worker owns one shard and, for every candidate to rescore,
// materialises the change mask for its word range only (target XOR
// substitute, with the constant and inverted cases tail-masked exactly as
// substituteValue's Fill/Not produce them) and computes the shard's
// partial into a per-shard slot; the partials are combined in fixed shard
// order. Every value is an integer below 2^53, so the result equals the
// sequential DeltaER/DeltaAEM bit for bit (see core.DeltaERPartial /
// core.DeltaAEMPartial for the word-locality argument). Each shard counts
// its queries once, after its loop. Shard 0 writes its partials straight
// into sums, so an iteration that rescores every candidate builds no list
// of them and no array beyond the other shards' partials.
func scoreCandidatesSharded(ctx *iterContext, cands []cand, sums *candSums, buf []scored,
	curErr, threshold float64, ss *scoreScratch, pool *par.Pool, o *runObs, iter int) (int, []scored) {

	cpm, st := ctx.cpm, ctx.st
	m := ctx.vals.M
	if ss.lastM != m || ss.lastWorkers != pool.Workers() {
		ss.shards = par.Shards(m, pool.Workers())
		ss.lastM, ss.lastWorkers = m, pool.Workers()
	}
	pool.Label("sasimi.score", obs.PhaseEstimate)

	// Warm the CPM's shared lazy caches before the scoring fan-out. The AEM
	// column memo is plain and must be filled from this goroutine; AnyProp
	// fills are atomic and pure, so the distinct targets' rows are filled
	// on the pool, each once.
	if ctx.metric == core.MetricAEM {
		cpm.EnsureAEMColumns(st)
		return scoreSharded(ctx, cands, &sums.aem, &ss.aemMag, sumKernel[float64]{
			partial: func(t circuit.NodeID, chg []uint64, w0, w1 int) float64 {
				return cpm.DeltaAEMPartial(t, chg, st, w0, w1)
			},
			correction: func(t circuit.NodeID, mc []uint64, ws []int32) float64 {
				return cpm.DeltaAEMCorrection(t, mc, ws, ss.prevV)
			},
			// The full kernel visits the change mask's set bits, d of them
			// (the rank's difference count); the correction visits the set
			// bits of chg ∧ D, twice.
			maxD: bitvec.Words(m),
			cheaper: func(c *cand, mc []uint64) bool {
				n := 0
				for _, w := range mc {
					n += bits.OnesCount64(w)
				}
				return 2*n <= int(c.rank>>1)
			},
		}, buf, curErr, threshold, ss, pool, o, iter)
	}

	ss.seen = grow(ss.seen, ctx.net.NumSlots())
	ss.targets = ss.targets[:0]
	for i := range cands {
		if t := cands[i].target; !ss.seen[t] {
			ss.seen[t] = true
			ss.targets = append(ss.targets, t)
		}
	}
	for _, t := range ss.targets {
		ss.seen[t] = false
	}
	cpm.EnsureAnyProp(ss.targets, pool)
	var prev *emetric.State
	if ctx.engine != nil {
		prev = ctx.engine.Prev
	}
	return scoreSharded(ctx, cands, &sums.er, &ss.erNet, sumKernel[int32]{
		partial: func(t circuit.NodeID, chg []uint64, w0, w1 int) int32 {
			inc, dec := cpm.DeltaERPartial(t, chg, st, w0, w1)
			return int32(inc - dec)
		},
		correction: func(t circuit.NodeID, mc []uint64, ws []int32) int32 {
			return int32(cpm.DeltaERCorrection(t, mc, ws, st, prev))
		},
		// The full kernel visits every word; the correction visits D's
		// words to find where chg ∧ D is set, and those twice.
		maxD: bitvec.Words(m) / 2,
	}, buf, curErr, threshold, ss, pool, o, iter)
}

// scoreSharded is scoreCandidatesSharded for one metric's sums.
func scoreSharded[T patternSum](ctx *iterContext, cands []cand, sl *sumList[T], parts *[][]T, k sumKernel[T],
	buf []scored, curErr, threshold float64, ss *scoreScratch, pool *par.Pool, o *runObs, iter int) (int, []scored) {

	cpm, vals := ctx.cpm, ctx.vals
	m := vals.M
	words := bitvec.Words(m)
	shards := ss.shards
	sums, carried := sl.forList(len(cands))
	carried = carried && ss.carry(ctx)

	goCtx := ctx.goCtx
	if goCtx == nil {
		goCtx = context.Background()
	}
	sl.valid = false // until the pass completes
	// Without a carry every candidate is rescored; with one, the carry
	// pass marks those it leaves to the full kernel in a bit set.
	var rescore []uint64
	n := len(cands)
	if carried {
		var err error
		if n, err = carryPass(goCtx, ss, ctx, cands, sums, k, pool); err != nil {
			return -1, nil
		}
		rescore = ss.rescore
	}

	// Shard s > 0 keeps the partial of the j-th rescored candidate at j.
	*parts = grow(*parts, len(shards))
	ss.chg = grow(ss.chg, len(shards))
	for si := range shards {
		if si > 0 {
			(*parts)[si] = grow((*parts)[si], n)
		}
		ss.chg[si] = grow(ss.chg[si], words)
	}
	out := *parts
	last := words - 1
	tail := bitvec.TailMask(m)
	if n > 0 {
		err := pool.DoCtx(goCtx, len(shards), func(_, si int) {
			sh := shards[si]
			chg := ss.chg[si]
			it := rescoreIter{set: rescore}
			for j := 0; j < n; j++ {
				i := it.next(j)
				c := &cands[i]
				tw, sw := candWords(vals, c)
				for w := sh.W0; w < sh.W1; w++ {
					chg[w] = changeWord(c.kind, tw, sw, w, last, tail)
				}
				p := k.partial(c.target, chg, sh.W0, sh.W1)
				if si == 0 {
					sums[i] = p
				} else {
					out[si][j] = p
				}
			}
			core.CountPartialQueries(ctx.metric, n)
		})
		if err != nil {
			// Cancelled mid-scoring: the partial results are abandoned and the
			// flow returns at its next iteration-boundary check.
			return -1, nil
		}
		if len(shards) > 1 {
			it := rescoreIter{set: rescore}
			for j := 0; j < n; j++ {
				i := it.next(j)
				for si := 1; si < len(shards); si++ {
					sums[i] += out[si][j]
				}
			}
		}
	}
	sl.valid = true
	o.scoringPass(n, len(cands)-n)

	best := -1
	feasible := buf[:0]
	for i := range cands {
		c := &cands[i]
		delta := float64(sums[i]) / float64(m)
		e := scored{idx: int32(i), delta: delta, score: score(c.gain, delta, m), exact: cpm.ExactFor(c.target)}
		o.candidateScored(iter, c, e)
		if curErr+delta > threshold+1e-12 {
			continue
		}
		feasible = append(feasible, e)
		if best == -1 || e.score > feasible[best].score {
			best = len(feasible) - 1
		}
	}
	return best, feasible
}

// rescoreIter walks the candidates to rescore: every candidate when set
// is nil, else those whose bit is set, in order.
type rescoreIter struct {
	set  []uint64
	wi   int    // the set's word holding the next bit
	word uint64 // its bits not yet walked
}

// next returns the list index of the j-th candidate to rescore; calls
// must come with j = 0, 1, 2, ….
func (it *rescoreIter) next(j int) int {
	if it.set == nil {
		return j
	}
	for it.word == 0 {
		it.word = it.set[it.wi]
		it.wi++
	}
	b := it.word & -it.word
	it.word ^= b
	return (it.wi-1)*64 + bits.TrailingZeros64(b)
}

// carry readies the carry pass: it reports whether the previous pass's
// sums carry into this one — the engine refreshed its CPM rather than
// rebuilding it, after one accept — and if so marks the targets of the
// changed CPM rows in ss.seen, lists the nonzero words of D and, for AEM,
// packs the previous state's output word at each of D's patterns.
func (ss *scoreScratch) carry(ctx *iterContext) bool {
	eng := ctx.engine
	if eng == nil || eng.Prev == nil {
		return false
	}
	stats, full := eng.LastRefresh()
	if full {
		return false
	}
	ss.seen = grow(ss.seen, ctx.net.NumSlots())
	for _, id := range stats.Changed {
		ss.seen[id] = true
	}
	ss.dws, ss.dm = ss.dws[:0], ss.dm[:0]
	for w, x := range eng.Diff.WordsSlice() {
		if x != 0 {
			ss.dws = append(ss.dws, int32(w))
			ss.dm = append(ss.dm, x)
		}
	}
	if ctx.metric == core.MetricAEM {
		ss.prevV = grow(ss.prevV, eng.Diff.Len())
		for k, w := range ss.dws {
			for x := ss.dm[k]; x != 0; x &= x - 1 {
				i := int(w)*bitvec.WordBits + bits.TrailingZeros64(x)
				ss.prevV[i] = eng.Prev.V.Column(i)
			}
		}
	}
	return true
}

// carryPass applies the carry rules to every candidate, split over the
// pool in chunks of whole words of the rescore bit set: it corrects the
// carried sums in place, marks the candidates left to the full kernel in
// ss.rescore and returns how many it marked. The sums are integers, so
// the result does not depend on the split. It clears the changed-row
// marks carry set.
func carryPass[T patternSum](goCtx context.Context, ss *scoreScratch, ctx *iterContext, cands []cand, sums []T,
	k sumKernel[T], pool *par.Pool) (int, error) {

	vals := ctx.vals
	words := bitvec.Words(vals.M)
	last, tail := words-1, bitvec.TailMask(vals.M)
	ws, dm := ss.dws, ss.dm
	dense := len(ws) > k.maxD
	setWords := bitvec.Words(len(cands))
	ss.rescore = grow(ss.rescore, setWords)
	clear(ss.rescore)
	// Unless there are corrections to compute, the pass only classifies:
	// no fan-out for that.
	tasks := min(pool.Workers(), setWords)
	if len(ws) == 0 || dense {
		tasks = 1
	}
	ss.mc = grow(ss.mc, tasks)
	ss.left = grow(ss.left, tasks)
	err := pool.DoCtx(goCtx, tasks, func(_, task int) {
		mc := grow(ss.mc[task], len(ws))
		left := 0
		lo, hi := task*setWords/tasks*64, min((task+1)*setWords/tasks*64, len(cands))
		for i := lo; i < hi; i++ {
			c := &cands[i]
			full := sums[i] == staleSum || ss.seen[c.target] || dense
			if !full && len(ws) > 0 {
				tw, sw := candWords(vals, c)
				var hit uint64
				for j, w := range ws {
					x := changeWord(c.kind, tw, sw, int(w), last, tail) & dm[j]
					mc[j] = x
					hit |= x
				}
				switch {
				case hit == 0:
				case k.cheaper == nil || k.cheaper(c, mc):
					sums[i] += k.correction(c.target, mc, ws)
				default:
					full = true
				}
			}
			if full {
				ss.rescore[i>>6] |= 1 << (i & 63)
				left++
			}
		}
		ss.mc[task], ss.left[task] = mc, left
	})
	stats, _ := ctx.engine.LastRefresh()
	for _, id := range stats.Changed {
		ss.seen[id] = false
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, l := range ss.left[:tasks] {
		n += l
	}
	return n, nil
}

// candWords returns the value words of a candidate's target and
// substitute (nil for a constant).
func candWords(vals *sim.Values, c *cand) (tw, sw []uint64) {
	tw = vals.Node(c.target).WordsSlice()
	if !c.isConst() {
		sw = vals.Node(c.sub).WordsSlice()
	}
	return tw, sw
}

// changeWord is word w of a candidate's change mask: the target's word
// XOR the substitute's, with the inverted and constant-1 forms masked to
// the pattern count in the last word (last, tail).
func changeWord(kind candKind, tw, sw []uint64, w, last int, tail uint64) uint64 {
	var sub uint64 // constant 0 keeps the zero word
	switch kind {
	case kindPlain:
		sub = sw[w]
	case kindInverted:
		sub = ^sw[w]
		if w == last {
			sub &= tail
		}
	case kindConst1:
		sub = ^uint64(0)
		if w == last {
			sub = tail
		}
	}
	return tw[w] ^ sub
}

// grow returns s resized to n elements, reusing its capacity. Elements
// kept from earlier use keep their values; callers overwrite what they
// read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

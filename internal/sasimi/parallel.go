package sasimi

import (
	"context"
	"math/bits"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// scoreCandidatesMaybeSharded dispatches candidate scoring on the
// estimator: the batch estimator takes the pooled path at every worker
// count (inline on a single-worker pool), carrying each candidate's
// pattern sum in sums from one iteration to the next; the
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
	seen               []bool         // changed-row marks by node slot, cleared after each use
	erNet              [][]int32      // per shard: each rescored candidate's net ER count
	er                 []core.ERTerms // per shard: the current target's masks

	// Carry scratch: the nonzero words of the accept's output-change mask
	// D (indices dws, words dm), the previous state's packed output words
	// at D's patterns (AEM), the bit set of candidates left to the full
	// kernel (ER), per task of the ER carry pass its masked change words,
	// and per task of either pass how many candidates it left to the full
	// kernel (ER) or summed in full (AEM).
	dws     []int32
	dm      []uint64
	prevV   []uint64
	rescore []uint64
	mc      [][]uint64
	left    []int

	// AEM target pass: where each target's run of the list starts (target
	// g's candidates are cands[bounds[g]:bounds[g+1]]), the runs' lengths
	// as the planner's costs, the planner, and per pool worker its
	// scratch.
	bounds  []int
	costs   []float64
	planner par.Planner
	aem     []aemWorker
}

// scoreCandidatesSharded evaluates every candidate's batch estimate, then
// runs the selection loop sequentially in candidate order so feasibility
// and tie-breaking match scoreCandidates decision for decision.
//
// A candidate's estimate is its pattern sum over M — for ER the net count
// inc − dec of Algorithm 1, kept as one int32 (both counts are at most M),
// for AEM the unnormalised magnitude sum — and sums carries every
// candidate's sum from one iteration to the next, aligned with the gather
// cache's list. A pass sums a candidate in full when it is fresh (its sum
// is staleSum: the cache re-enumerated it), when its target's CPM row
// changed in the refresh, and when nothing carries (the first iteration,
// a full CPM build). Any other candidate keeps its sum plus the
// correction at chg ∧ D, where D is the set of patterns whose output word
// the accept changed (core.Engine.Diff): nothing when chg ∧ D is empty.
//
// The carried sum is exact: a kept candidate's change mask is unchanged,
// because the cache re-enumerates any candidate whose target or
// substitute value changed; with the target's row unchanged, a pattern's
// term changes only where its output word did, which is D; and the sums
// are integers, so adding the difference gives what a full re-sum would.
// The ER and AEM passes differ in how they split the work (scoreER,
// scoreAEM); both leave every sum, and so every score, the same at any
// worker count.
func scoreCandidatesSharded(ctx *iterContext, cands []cand, sums *candSums, buf []scored,
	curErr, threshold float64, ss *scoreScratch, pool *par.Pool, o *runObs, iter int) (int, []scored) {

	pool.Label("sasimi.score", obs.PhaseEstimate)
	goCtx := ctx.goCtx
	if goCtx == nil {
		goCtx = context.Background()
	}
	if ctx.metric == core.MetricAEM {
		if err := scoreAEM(goCtx, ctx, cands, &sums.aem, ss, pool, o); err != nil {
			// Cancelled mid-scoring: the partial results are abandoned and
			// the flow returns at its next iteration-boundary check.
			return -1, nil
		}
		return selectFeasible(ctx, cands, sums.aem.cur, buf, curErr, threshold, o, iter)
	}
	if err := scoreER(goCtx, ctx, cands, &sums.er, ss, pool, o); err != nil {
		return -1, nil
	}
	return selectFeasible(ctx, cands, sums.er.cur, buf, curErr, threshold, o, iter)
}

// scoreER brings every candidate's ER net count up to date. It shards the
// pattern space across the pool's workers for the candidates it sums in
// full: each worker owns one shard and walks those candidates in list
// order, which groups them by target. When the target changes it builds
// the target's two Algorithm 1 masks for its word range (core.ERTerms),
// and each candidate's partial is then two popcounts per word of its
// change word, target XOR substitute, computed on the fly. The partials
// go into per-shard slots and are combined in fixed shard order. The
// counts are integers, so the result equals the sequential DeltaER bit
// for bit (see core.ERTerms for the word-locality argument). Each shard
// counts its queries once, after its loop. Shard 0 writes its partials
// straight into sums, so an iteration that rescores every candidate
// builds no list of them and no array beyond the other shards' partials.
// The carried sums are corrected by carryPass first.
func scoreER(goCtx context.Context, ctx *iterContext, cands []cand, sl *sumList[int32], ss *scoreScratch,
	pool *par.Pool, o *runObs) error {

	cpm, vals, st := ctx.cpm, ctx.vals, ctx.st
	m := vals.M
	if ss.lastM != m || ss.lastWorkers != pool.Workers() {
		ss.shards = par.Shards(m, pool.Workers())
		ss.lastM, ss.lastWorkers = m, pool.Workers()
	}
	shards := ss.shards

	sums, carried := sl.forList(len(cands))
	carried = carried && ss.carry(ctx)
	sl.valid = false // until the pass completes
	// Without a carry every candidate is rescored; with one, the carry
	// pass marks those it leaves to the full kernel in a bit set.
	var rescore []uint64
	n := len(cands)
	if carried {
		var err error
		if n, err = carryPass(goCtx, ss, ctx, cands, sums, pool); err != nil {
			return err
		}
		rescore = ss.rescore
	}

	// Shard s > 0 keeps the partial of the j-th rescored candidate at j.
	ss.erNet = grow(ss.erNet, len(shards))
	ss.er = grow(ss.er, len(shards))
	for si := 1; si < len(shards); si++ {
		ss.erNet[si] = grow(ss.erNet[si], n)
	}
	out := ss.erNet
	if n > 0 {
		err := pool.DoCtx(goCtx, len(shards), func(_, si int) {
			sh := shards[si]
			terms := &ss.er[si]
			built := circuit.InvalidNode
			it := rescoreIter{set: rescore}
			for j := 0; j < n; j++ {
				i := it.next(j)
				c := &cands[i]
				if c.target != built {
					terms.Build(cpm, c.target, st, sh.W0, sh.W1)
					built = c.target
				}
				net := int32(terms.Net(vals.Node(c.target).WordsSlice(), subWords(vals, c.sub, c.kind), flipWord(c.kind)))
				if si == 0 {
					sums[i] = net
				} else {
					out[si][j] = net
				}
			}
			core.CountPartialQueries(ctx.metric, n)
		})
		if err != nil {
			return err
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
	return nil
}

// selectFeasible turns the pattern sums into scored entries, in list
// order, and picks the best feasible one, the candCompare-first of equal
// best scores, as scoreCandidates does.
func selectFeasible[T patternSum](ctx *iterContext, cands []cand, sums []T, buf []scored,
	curErr, threshold float64, o *runObs, iter int) (int, []scored) {

	m := ctx.vals.M
	best := -1
	feasible := buf[:0]
	for i := range cands {
		c := &cands[i]
		delta := float64(sums[i]) / float64(m)
		e := scored{idx: int32(i), delta: delta, score: score(c.gain, delta, m), exact: ctx.cpm.ExactFor(c.target)}
		o.candidateScored(iter, c, e)
		if curErr+delta > threshold+1e-12 {
			continue
		}
		feasible = append(feasible, e)
		if best == -1 || better(cands, e, feasible[best]) {
			best = len(feasible) - 1
		}
	}
	return best, feasible
}

// better reports whether entry e beats entry b, the best so far: a higher
// score, or an equal one on a candidate that candCompare puts first. It
// makes the pick a function of the entries, not of their order.
func better(cands []cand, e, b scored) bool {
	return e.score > b.score || e.score == b.score && candCompare(&cands[e.idx], &cands[b.idx]) < 0
}

// scoreAEM brings every candidate's AEM magnitude sum up to date in one
// pass over the list, which is grouped by target: the pool takes the
// targets in contiguous chunks of balanced candidate count, each worker
// scoring a target's candidates with its own core.AEMTerms (see
// aemWorker.score). A candidate's sum is computed by one worker, in
// ascending pattern order, so it is the same at any worker count and
// chunking. It counts one query per candidate summed in full.
func scoreAEM(goCtx context.Context, ctx *iterContext, cands []cand, sl *sumList[float64], ss *scoreScratch,
	pool *par.Pool, o *runObs) error {

	// The AEM column memo is plain and must be filled from this goroutine.
	ctx.cpm.EnsureAEMColumns(ctx.st)
	sums, carried := sl.forList(len(cands))
	carried = carried && ss.carry(ctx)
	sl.valid = false // until the pass completes
	ss.bounds = ss.bounds[:0]
	for i := range cands {
		if i == 0 || cands[i].target != cands[i-1].target {
			ss.bounds = append(ss.bounds, i)
		}
	}
	ss.bounds = append(ss.bounds, len(cands))
	ss.costs = ss.costs[:0]
	for g := 1; g < len(ss.bounds); g++ {
		ss.costs = append(ss.costs, float64(ss.bounds[g]-ss.bounds[g-1]))
	}
	chunks := ss.planner.Plan(ss.costs, par.PlanBins(len(ss.costs), pool.Workers()))
	tasks := len(chunks) - 1
	ss.aem = grow(ss.aem, pool.Workers())
	ss.left = grow(ss.left, tasks)
	err := pool.DoCtx(goCtx, tasks, func(w, task int) {
		aw := &ss.aem[w]
		full := 0
		for g := chunks[task]; g < chunks[task+1]; g++ {
			lo, hi := ss.bounds[g], ss.bounds[g+1]
			full += aw.score(ctx, sums, cands, lo, hi, carried && !ss.seen[cands[lo].target], ss)
		}
		ss.left[task] = full
	})
	if carried {
		ss.clearChanged(ctx)
	}
	if err != nil {
		return err
	}
	full := 0
	for _, l := range ss.left[:tasks] {
		full += l
	}
	core.CountPartialQueries(ctx.metric, full)
	sl.valid = true
	o.scoringPass(full, len(cands)-full)
	return nil
}

// aemWorker is one pool worker's scratch for the AEM target pass.
type aemWorker struct {
	terms core.AEMTerms
	chg   []uint64 // a candidate's change mask
	um    []uint64 // the union of the carried candidates' chg ∧ D, at D's words
	mc    []uint64 // each corrected candidate's chg ∧ D, end to end
	fix   []int32  // the corrected candidates' list indices
	full  []int32  // the candidates to sum in full, by list index
}

// score brings the sums of one target's candidates, cands[lo:hi], up to
// date and returns how many it summed in full. With carry (the sums carry
// and the target's CPM row did not change), a candidate that is not
// fresh keeps its sum plus its correction: the worker builds the term
// difference once, at the union of those candidates' chg ∧ D, and adds
// each candidate's sum over its own chg ∧ D. Every other candidate is
// summed over its change mask in the target's term table, built once
// (core.AEMTerms).
func (aw *aemWorker) score(ctx *iterContext, sums []float64, cands []cand, lo, hi int,
	carry bool, ss *scoreScratch) int {

	cpm, st, vals := ctx.cpm, ctx.st, ctx.vals
	words := bitvec.Words(vals.M)
	last, tail := words-1, bitvec.TailMask(vals.M)
	ws, dm := ss.dws, ss.dm
	t := cands[lo].target
	tw := vals.Node(t).WordsSlice()
	aw.full, aw.fix, aw.mc = aw.full[:0], aw.fix[:0], aw.mc[:0]
	aw.um = grow(aw.um, len(ws))
	clear(aw.um)
	for i := lo; i < hi; i++ {
		c := &cands[i]
		if !carry || sums[i] == staleSum {
			aw.full = append(aw.full, int32(i))
			continue
		}
		sw := subWords(vals, c.sub, c.kind)
		var hit uint64
		for k, w := range ws {
			x := changeWord(c.kind, tw, sw, int(w), last, tail) & dm[k]
			aw.mc = append(aw.mc, x)
			aw.um[k] |= x
			hit |= x
		}
		if hit == 0 {
			aw.mc = aw.mc[:len(aw.mc)-len(ws)]
			continue
		}
		aw.fix = append(aw.fix, int32(i))
	}
	if len(aw.fix) > 0 {
		aw.terms.Correction(cpm, t, st, ss.prevV, ws, aw.um)
		for j, i := range aw.fix {
			sums[i] += aw.terms.SumAt(aw.mc[j*len(ws) : (j+1)*len(ws)])
		}
	}
	if len(aw.full) > 0 {
		aw.terms.Full(cpm, t, st)
		aw.chg = grow(aw.chg, words)
		for _, i := range aw.full {
			c := &cands[i]
			sw := subWords(vals, c.sub, c.kind)
			for w := range aw.chg {
				aw.chg[w] = changeWord(c.kind, tw, sw, w, last, tail)
			}
			sums[i] = aw.terms.Sum(aw.chg)
		}
	}
	return len(aw.full)
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

// carryPass applies the ER carry rules to every candidate, split over the
// pool in chunks of whole words of the rescore bit set: it corrects the
// carried sums in place, marks the candidates left to the full kernel in
// ss.rescore and returns how many it marked. Past M/128 nonzero words of
// D the corrections would cost more than the full kernel, which visits
// every word once where a correction visits D's words to find chg ∧ D
// and those twice; then it marks every candidate that may move. The sums
// are integers, so the result does not depend on the split. It clears
// the changed-row marks carry set.
func carryPass(goCtx context.Context, ss *scoreScratch, ctx *iterContext, cands []cand, sums []int32,
	pool *par.Pool) (int, error) {

	cpm, vals, st := ctx.cpm, ctx.vals, ctx.st
	prev := ctx.engine.Prev
	words := bitvec.Words(vals.M)
	last, tail := words-1, bitvec.TailMask(vals.M)
	ws, dm := ss.dws, ss.dm
	dense := len(ws) > words/2
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
				if hit != 0 {
					sums[i] += int32(cpm.DeltaERCorrection(c.target, mc, ws, st, prev))
				}
			}
			if full {
				ss.rescore[i>>6] |= 1 << (i & 63)
				left++
			}
		}
		ss.mc[task], ss.left[task] = mc, left
	})
	ss.clearChanged(ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, l := range ss.left[:tasks] {
		n += l
	}
	return n, nil
}

// clearChanged clears the changed-row marks carry set.
func (ss *scoreScratch) clearChanged(ctx *iterContext) {
	stats, _ := ctx.engine.LastRefresh()
	for _, id := range stats.Changed {
		ss.seen[id] = false
	}
}

// candWords returns the value words of a candidate's target and
// substitute (nil for a constant).
func candWords(vals *sim.Values, c *cand) (tw, sw []uint64) {
	return vals.Node(c.target).WordsSlice(), subWords(vals, c.sub, c.kind)
}

// subWords returns the value words of a substitute, nil for a constant.
func subWords(vals *sim.Values, sub circuit.NodeID, kind candKind) []uint64 {
	if kind >= kindConst1 {
		return nil
	}
	return vals.Node(sub).WordsSlice()
}

// flipWord is what a candidate's substitute word is XORed with besides
// the substitute's own value: all ones for the inverted and constant-1
// forms, zero for the plain and constant-0 forms.
func flipWord(kind candKind) uint64 {
	if kind == kindInverted || kind == kindConst1 {
		return ^uint64(0)
	}
	return 0
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

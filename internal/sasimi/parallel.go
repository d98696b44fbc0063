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
	seen               []bool // node-slot marks (targets, then changed rows), cleared after each use
	targets            []circuit.NodeID
	erNet              [][]int32  // per shard: each rescored candidate's net ER count
	chg                [][]uint64 // per shard: change-mask words

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

	// AEM target pass: the candidates counting-sorted by target (order;
	// target g's are order[bounds[g]:bounds[g+1]]), each node slot's group
	// number plus one (0 for none, as the sort leaves it), the first group
	// of every pool task, and per pool worker its scratch.
	order  []member
	bounds []int32
	group  []int32
	chunks []int
	aem    []aemWorker
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
// full: each worker owns one shard and, for every such candidate,
// materialises the change mask for its word range only (target XOR
// substitute, with the constant and inverted cases tail-masked exactly as
// substituteValue's Fill/Not produce them) and computes the shard's
// partial into a per-shard slot; the partials are combined in fixed shard
// order. The counts are integers, so the result equals the sequential
// DeltaER bit for bit (see core.DeltaERPartial for the word-locality
// argument). Each shard counts its queries once, after its loop. Shard 0
// writes its partials straight into sums, so an iteration that rescores
// every candidate builds no list of them and no array beyond the other
// shards' partials. The carried sums are corrected by carryPass first.
func scoreER(goCtx context.Context, ctx *iterContext, cands []cand, sl *sumList[int32], ss *scoreScratch,
	pool *par.Pool, o *runObs) error {

	cpm, vals, st := ctx.cpm, ctx.vals, ctx.st
	m := vals.M
	words := bitvec.Words(m)
	if ss.lastM != m || ss.lastWorkers != pool.Workers() {
		ss.shards = par.Shards(m, pool.Workers())
		ss.lastM, ss.lastWorkers = m, pool.Workers()
	}
	shards := ss.shards

	// Warm the CPM's AnyProp cache before the scoring fan-out: its fills
	// are atomic and pure, so the distinct targets' rows are filled on the
	// pool, each once.
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
	ss.chg = grow(ss.chg, len(shards))
	for si := range shards {
		if si > 0 {
			ss.erNet[si] = grow(ss.erNet[si], n)
		}
		ss.chg[si] = grow(ss.chg[si], words)
	}
	out := ss.erNet
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
				inc, dec := cpm.DeltaERPartial(c.target, chg, st, sh.W0, sh.W1)
				if si == 0 {
					sums[i] = int32(inc - dec)
				} else {
					out[si][j] = int32(inc - dec)
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

// selectFeasible turns the pattern sums into scored entries and picks the
// best feasible one, in candidate order, as scoreCandidates does.
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
		if best == -1 || e.score > feasible[best].score {
			best = len(feasible) - 1
		}
	}
	return best, feasible
}

// scoreAEM brings every candidate's AEM magnitude sum up to date in one
// pass over the list grouped by target: the candidates are
// counting-sorted by target, and the pool takes the targets in chunks,
// each worker scoring a target's candidates with its own core.AEMTerms
// (see aemWorker.score). A candidate's sum is computed by one worker, in
// ascending pattern order, so it is the same at any worker count and
// chunking. It counts one query per candidate summed in full.
func scoreAEM(goCtx context.Context, ctx *iterContext, cands []cand, sl *sumList[float64], ss *scoreScratch,
	pool *par.Pool, o *runObs) error {

	// The AEM column memo is plain and must be filled from this goroutine.
	ctx.cpm.EnsureAEMColumns(ctx.st)
	sums, carried := sl.forList(len(cands))
	carried = carried && ss.carry(ctx)
	sl.valid = false // until the pass completes
	ss.groupByTarget(ctx.net, cands)
	targets := len(ss.bounds) - 1
	tasks := par.PlanBins(targets, pool.Workers())
	ss.chunks = grow(ss.chunks, tasks+1)
	for k, g := 0, 0; k <= tasks; k++ {
		for g < targets && int(ss.bounds[g]) < k*len(cands)/tasks {
			g++
		}
		ss.chunks[k] = g
	}
	ss.aem = grow(ss.aem, pool.Workers())
	ss.left = grow(ss.left, tasks)
	err := pool.DoCtx(goCtx, tasks, func(w, task int) {
		aw := &ss.aem[w]
		full := 0
		for g := ss.chunks[task]; g < ss.chunks[task+1]; g++ {
			t := ss.targets[g]
			full += aw.score(ctx, sums, ss.order[ss.bounds[g]:ss.bounds[g+1]], t,
				carried && !ss.seen[t], ss)
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

// member is a candidate as the AEM target pass reads it: its list index
// and what its change mask takes besides the target. Sorting these, not
// list indices, lets a worker read a target's candidates in sequence
// rather than gather them from across the list.
type member struct {
	idx  int32
	sub  circuit.NodeID
	kind candKind
}

// groupByTarget counting-sorts the candidates by target, each target's in
// list order: target ss.targets[g]'s are ss.order[ss.bounds[g]:
// ss.bounds[g+1]], the targets in order of first appearance.
func (ss *scoreScratch) groupByTarget(net *circuit.Network, cands []cand) {
	ss.group = grow(ss.group, net.NumSlots())
	ss.targets = ss.targets[:0]
	ss.bounds = append(ss.bounds[:0], 0)
	for i := range cands {
		t := cands[i].target
		if ss.group[t] == 0 {
			ss.targets = append(ss.targets, t)
			ss.bounds = append(ss.bounds, 0)
			ss.group[t] = int32(len(ss.targets))
		}
		ss.bounds[ss.group[t]]++
	}
	// bounds[g+1] counts target g; the prefix sums make it the end of g's
	// run, and placing each index at its target's start moves the start
	// up, so afterwards bounds[g] holds g's end and one shift restores it.
	for g := 1; g < len(ss.bounds); g++ {
		ss.bounds[g] += ss.bounds[g-1]
	}
	ss.order = grow(ss.order, len(cands))
	for i := range cands {
		c := &cands[i]
		g := ss.group[c.target] - 1
		ss.order[ss.bounds[g]] = member{idx: int32(i), sub: c.sub, kind: c.kind}
		ss.bounds[g]++
	}
	copy(ss.bounds[1:], ss.bounds[:len(ss.bounds)-1])
	ss.bounds[0] = 0
	for _, t := range ss.targets {
		ss.group[t] = 0
	}
}

// aemWorker is one pool worker's scratch for the AEM target pass.
type aemWorker struct {
	terms core.AEMTerms
	chg   []uint64 // a candidate's change mask
	um    []uint64 // the union of the carried candidates' chg ∧ D, at D's words
	mc    []uint64 // each corrected candidate's chg ∧ D, end to end
	fix   []int32  // the corrected candidates' list indices
	full  []int32  // the members to sum in full, by position
}

// score brings the sums of target t's candidates mbs up to date and
// returns how many it summed in full. With carry (the sums carry and t's
// CPM row did not change), a candidate that is not fresh keeps its sum
// plus its correction: the worker builds the term difference once, at
// the union of those candidates' chg ∧ D, and adds each candidate's sum
// over its own chg ∧ D. Every other candidate is summed over its change
// mask in t's term table, built once (core.AEMTerms).
func (aw *aemWorker) score(ctx *iterContext, sums []float64, mbs []member, t circuit.NodeID,
	carry bool, ss *scoreScratch) int {

	cpm, st, vals := ctx.cpm, ctx.st, ctx.vals
	words := bitvec.Words(vals.M)
	last, tail := words-1, bitvec.TailMask(vals.M)
	ws, dm := ss.dws, ss.dm
	tw := vals.Node(t).WordsSlice()
	aw.full, aw.fix, aw.mc = aw.full[:0], aw.fix[:0], aw.mc[:0]
	aw.um = grow(aw.um, len(ws))
	clear(aw.um)
	for j := range mbs {
		mb := &mbs[j]
		if !carry || sums[mb.idx] == staleSum {
			aw.full = append(aw.full, int32(j))
			continue
		}
		sw := subWords(vals, mb.sub, mb.kind)
		var hit uint64
		for k, w := range ws {
			x := changeWord(mb.kind, tw, sw, int(w), last, tail) & dm[k]
			aw.mc = append(aw.mc, x)
			aw.um[k] |= x
			hit |= x
		}
		if hit == 0 {
			aw.mc = aw.mc[:len(aw.mc)-len(ws)]
			continue
		}
		aw.fix = append(aw.fix, mb.idx)
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
		for _, j := range aw.full {
			mb := &mbs[j]
			sw := subWords(vals, mb.sub, mb.kind)
			for w := range aw.chg {
				aw.chg[w] = changeWord(mb.kind, tw, sw, w, last, tail)
			}
			sums[mb.idx] = aw.terms.Sum(aw.chg)
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

package sasimi

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// This file implements the exact top-K verification step. core.ExactDelta
// verifies one candidate at a time by mutating the shared value table,
// resimulating the target's fanout cone in place and restoring it; that
// mutation forbids concurrency. The verifier instead gives every
// candidate a private overlay — one word-row per cone node — and
// evaluates (candidate, pattern-shard) pairs as independent pool tasks:
// cone evaluation is word-local (pattern word w of a node depends only on
// word w of its fanins), so a task that touches only its shard's word
// range [W0,W1) never races another shard of the same candidate, and
// candidates never share overlay rows at all. A single-worker pool runs
// the same grid with one shard per candidate.
//
// Bit-identity with core.ExactDelta rests on exact partials: ER partials
// are exact integer pattern counts, and AEM per-pattern contributions are
// integer-valued magnitudes whose float sums are exact below 2^53 in any
// grouping (the convention core.AEMTerms documents for the batch scorer's
// sums, covering all bundled benchmarks), and the final "after" value is
// produced by the same single division the sequential metric performs. The reduction walks candidates in sorted
// order, so the scored entries' overwrites, drift records and the final
// argmax selection are identical at every worker count.

// verifyCandScratch is one candidate's reusable overlay: its fanout cone
// in topological order, a word-row per cone node (plus row 0 for the
// target's substitute value), and the node→row index map. mark and rowOf
// are cleared lazily at the start of the next prepare using the recorded
// cone, so the scratch never needs an O(slots) wipe.
type verifyCandScratch struct {
	target circuit.NodeID
	mark   []bool
	stack  []circuit.NodeID
	cone   []circuit.NodeID // topo order, excluding target
	rowOf  []int32          // node -> 1-based index into rows; 0 = not overlaid
	rowBuf []uint64
	rows   [][]uint64 // rows[0] = target substitute, rows[1+i] = cone[i]
	outSrc []int32    // per output: 0-based row index, -1 = unchanged (read vals)
}

// prepare computes the candidate overlay for target: BFS the fanout cone
// over pooled mark/stack scratch (circuit.TransitiveFanoutCone allocates a
// fresh slice per call), order it topologically by filtering the memoized
// order, and carve the overlay rows out of one backing buffer. Rows are
// not zeroed: every eval task writes its full word range for every row,
// and the shard set covers every word.
func (cs *verifyCandScratch) prepare(net *circuit.Network, order []circuit.NodeID,
	outputs []circuit.Output, target circuit.NodeID, slots, words int) {

	if len(cs.mark) < slots {
		cs.mark = make([]bool, slots)   //als:alloc-ok network grew; fresh zeroed scratch
		cs.rowOf = make([]int32, slots) //als:alloc-ok network grew; fresh zeroed scratch
	} else {
		cs.mark[cs.target] = false
		cs.rowOf[cs.target] = 0
		for _, id := range cs.cone {
			cs.mark[id] = false
			cs.rowOf[id] = 0
		}
	}
	cs.target = target

	cs.stack = append(cs.stack[:0], target) //als:alloc-ok amortised scratch grow
	cs.mark[target] = true
	for len(cs.stack) > 0 {
		id := cs.stack[len(cs.stack)-1]
		cs.stack = cs.stack[:len(cs.stack)-1]
		for _, f := range net.Fanouts(id) {
			if !cs.mark[f] {
				cs.mark[f] = true
				cs.stack = append(cs.stack, f) //als:alloc-ok amortised scratch grow
			}
		}
	}
	cs.cone = cs.cone[:0]
	for _, id := range order {
		if cs.mark[id] && id != target {
			cs.cone = append(cs.cone, id) //als:alloc-ok amortised scratch grow
		}
	}

	need := (len(cs.cone) + 1) * words
	if cap(cs.rowBuf) < need {
		cs.rowBuf = make([]uint64, need) //als:alloc-ok amortised scratch grow
	}
	cs.rowBuf = cs.rowBuf[:need]
	cs.rows = cs.rows[:0]
	for i := 0; i <= len(cs.cone); i++ {
		cs.rows = append(cs.rows, cs.rowBuf[i*words:(i+1)*words:(i+1)*words]) //als:alloc-ok amortised scratch grow
	}
	cs.rowOf[target] = 1
	for i, id := range cs.cone {
		cs.rowOf[id] = int32(i + 2)
	}

	cs.outSrc = cs.outSrc[:0]
	for _, out := range outputs {
		cs.outSrc = append(cs.outSrc, cs.rowOf[out.Node]-1) //als:alloc-ok amortised scratch grow
	}
}

// verifyWorkerScratch is per-worker evaluation scratch: fanin source
// resolution and the word buffer EvalWord consumes. Each pool worker runs
// one task at a time, so slot w is race-free.
type verifyWorkerScratch struct {
	srcs [][]uint64
	buf  []uint64
}

// verifyScratch is the flow-owned scratch of the parallel verifier. It
// persists across iterations so the steady state allocates nothing (pinned
// by TestParallelVerifySteadyStateAllocs).
type verifyScratch struct {
	lastM       int
	lastWorkers int
	shards      []par.Shard
	cands       []verifyCandScratch
	workers     []verifyWorkerScratch
	erWrong     []int64   // (candidate, shard) wrong-pattern counts
	aemSum      []float64 // (candidate, shard) error-magnitude sums
	uRows       [][]uint64
	valRows     [][]uint64
	keys        []verifyKey // the feasible entries' candCompare keys
	top         []choice    // the verified candidates, decoded
}

// verifyKey is a feasible entry's candidate as candCompare reads it,
// with the entry's index in the feasible list.
type verifyKey struct {
	c  choice
	fi int32
}

// verifyTopK re-evaluates the K best-scoring feasible candidates with
// exact cone resimulation and returns the index in feasible of the best
// exactly-scored feasible candidate, or -1 if none survives. The verified
// entries' delta and score are overwritten with exact values; each
// batch-vs-exact pair is recorded as verification drift, split by the
// batch estimate's exactness certificate. The (candidate, pattern-shard)
// grid fans out over the pool (see the file comment).
func verifyTopK(goCtx context.Context, net *circuit.Network, vals *sim.Values,
	st *emetric.State, cfg *Config, store *candStore, feasible []scored,
	curErr float64, vs *verifyScratch, pool *par.Pool, o *runObs) (int, error) {

	k := cfg.VerifyTopK
	if k > len(feasible) {
		k = len(feasible)
	}
	// A full sort.Slice of the feasible entries by descending score. It is
	// not stable: which of several equal-score candidates lands in the top
	// k, and in which order they are verified, is whatever pdqsort makes
	// of this comparator over the entries in the order it gets them — part
	// of the bit-identity contract. So they are first put in candCompare
	// order, a total order over the candidates, which makes the result a
	// function of the entries whatever order the store keeps: each entry's
	// candidate is decoded once, the keys sorted, and the entries placed in
	// their order, cycle by cycle.
	vs.keys = grow(vs.keys, len(feasible))
	cur := segCursor{segs: store.segs}
	for i, e := range feasible {
		sg := cur.seek(int(e.idx))
		vs.keys[i] = verifyKey{c: sg.choice(int(e.idx)-int(sg.pos), store.invArea), fi: int32(i)}
	}
	slices.SortFunc(vs.keys, func(a, b verifyKey) int { return candCompare(&a.c, &b.c) })
	for i := range vs.keys {
		if vs.keys[i].fi < 0 {
			continue
		}
		first, j := feasible[i], i
		for {
			src := int(vs.keys[j].fi)
			vs.keys[j].fi = -1
			if src == i {
				feasible[j] = first
				break
			}
			feasible[j] = feasible[src]
			j = src
		}
	}
	sort.Slice(feasible, func(a, b int) bool {
		return feasible[a].score > feasible[b].score
	})
	vs.top = grow(vs.top, k)
	for i, e := range feasible[:k] {
		sg := cur.seek(int(e.idx))
		vs.top[i] = sg.choice(int(e.idx)-int(sg.pos), store.invArea)
	}
	return verifyTopKParallel(goCtx, net, vals, st, cfg, vs.top, feasible[:k], curErr, vs, pool, o)
}

// verifyTopKParallel fans the (candidate, pattern-shard) grid of top out
// over the pool: a setup dispatch builds every candidate's cone overlay,
// an eval dispatch resimulates each overlay shard and computes the metric
// partial, and a driver-side reduction in candidate order makes the
// decisions, overwriting the entries of top and returning the index in
// top of the best. cands[i] is top[i]'s candidate.
func verifyTopKParallel(goCtx context.Context, net *circuit.Network, vals *sim.Values,
	st *emetric.State, cfg *Config, cands []choice, top []scored, curErr float64,
	vs *verifyScratch, pool *par.Pool, o *runObs) (int, error) {

	k := len(top)
	if k == 0 {
		return -1, goCtx.Err()
	}
	m := vals.M
	words := bitvec.Words(m)
	lastWord := words - 1
	tail := bitvec.TailMask(m)
	// Resolve shared read-only structures driver-side so tasks never touch
	// the network's memoized caches concurrently.
	order := net.TopoOrder()
	outputs := net.Outputs()
	slots := net.NumSlots()
	numOut := len(outputs)

	if vs.lastM != m || vs.lastWorkers != pool.Workers() {
		// Shards is a pure function of (m, workers); cache the plan so the
		// steady state is allocation-free.
		vs.shards = par.Shards(m, pool.Workers())
		vs.lastM, vs.lastWorkers = m, pool.Workers()
	}
	s := len(vs.shards)

	for len(vs.cands) < k {
		vs.cands = append(vs.cands, verifyCandScratch{}) //als:alloc-ok amortised scratch grow
	}
	for len(vs.workers) < pool.Workers() {
		vs.workers = append(vs.workers, verifyWorkerScratch{}) //als:alloc-ok amortised scratch grow
	}
	vs.erWrong = grow(vs.erWrong, k*s)
	vs.aemSum = grow(vs.aemSum, k*s)
	vs.uRows = grow(vs.uRows, numOut)
	vs.valRows = grow(vs.valRows, numOut)
	for oi, out := range outputs {
		vs.uRows[oi] = st.U.Row(oi).WordsSlice()
		vs.valRows[oi] = vals.Node(out.Node).WordsSlice()
	}

	pool.Label("sasimi.verify_topk", obs.PhaseVerifyApply)
	if err := pool.DoCtx(goCtx, k, func(_, ci int) {
		vs.cands[ci].prepare(net, order, outputs, cands[ci].target, slots, words)
	}); err != nil {
		return -1, err
	}
	pool.Label("sasimi.verify_topk", obs.PhaseVerifyApply)
	if err := pool.DoCtx(goCtx, k*s, func(w, ti int) {
		ci, si := ti/s, ti%s
		vs.evalShard(net, vals, &cands[ci], &vs.cands[ci], vs.shards[si],
			&vs.workers[w], cfg.Metric, lastWord, tail, ci*s+si)
	}); err != nil {
		return -1, err
	}

	// Reduction in candidate order. before is the same for every candidate
	// (core.ExactDelta restores the value table between candidates), so it
	// is computed once.
	before := cfg.Metric.Value(st)
	best := -1
	for ci := range top {
		e := &top[ci]
		batchDelta, wasExact := e.delta, e.exact
		var after float64
		if cfg.Metric == core.MetricAEM {
			total := 0.0
			for si := 0; si < s; si++ {
				total += vs.aemSum[ci*s+si]
			}
			after = total / float64(m)
		} else {
			var total int64
			for si := 0; si < s; si++ {
				total += vs.erWrong[ci*s+si]
			}
			after = float64(total) / float64(m)
		}
		e.delta = after - before
		e.exact = true
		e.score = score(cands[ci].gain, e.delta, m)
		o.verified(batchDelta, e.delta, wasExact)
		if curErr+e.delta > cfg.Threshold+1e-12 {
			continue
		}
		if best == -1 || e.score > top[best].score {
			best = ci
		}
	}
	return best, nil
}

// evalShard is the hot kernel of the parallel verifier: materialise the
// candidate's substitute words for the shard, evaluate the cone overlay in
// topological order over the shard's word range, and fold the shard's
// metric partial into slot. Tail bits of the final word are masked exactly
// where core.ExactDelta's resimulation masks them, so no garbage bit can
// inflate a wrong-pattern count.
//
//als:allocfree
func (vs *verifyScratch) evalShard(net *circuit.Network, vals *sim.Values,
	c *choice, cs *verifyCandScratch, sh par.Shard, ws *verifyWorkerScratch,
	metric core.Metric, lastWord int, tail uint64, slot int) {

	hasTail := sh.W1-1 == lastWord

	// Target substitute words — the same bits substituteValue produces.
	dst := cs.rows[0]
	switch c.kind() {
	case kindConst1, kindConst0:
		fill := uint64(0)
		if c.kind() == kindConst1 {
			fill = ^uint64(0)
		}
		for w := sh.W0; w < sh.W1; w++ {
			dst[w] = fill
		}
	case kindInverted:
		sw := vals.Node(c.sub()).WordsSlice()
		for w := sh.W0; w < sh.W1; w++ {
			dst[w] = ^sw[w]
		}
	default:
		copy(dst[sh.W0:sh.W1], vals.Node(c.sub()).WordsSlice()[sh.W0:sh.W1])
	}
	if hasTail {
		dst[lastWord] &= tail
	}

	// Cone evaluation, word-local per shard: word w of a node depends only
	// on word w of its fanins, resolved through the overlay first.
	for i, id := range cs.cone {
		fanins := net.Fanins(id)
		if cap(ws.srcs) < len(fanins) {
			ws.srcs = make([][]uint64, len(fanins)) //als:alloc-ok amortised fanin-width grow
			ws.buf = make([]uint64, len(fanins))    //als:alloc-ok amortised fanin-width grow
		}
		srcs, buf := ws.srcs[:len(fanins)], ws.buf[:len(fanins)]
		for j, f := range fanins {
			if r := cs.rowOf[f]; r > 0 {
				srcs[j] = cs.rows[r-1]
			} else {
				srcs[j] = vals.Node(f).WordsSlice()
			}
		}
		row := cs.rows[i+1]
		kind := net.Kind(id)
		for w := sh.W0; w < sh.W1; w++ {
			for j := range srcs {
				buf[j] = srcs[j][w]
			}
			row[w] = kind.EvalWord(buf)
		}
		if hasTail {
			row[lastWord] &= tail
		}
	}

	// Metric partial. ER: popcount of the per-word OR over outputs of
	// U xor V — an exact integer. AEM: per wrong pattern (ascending, as
	// emetric's AvgErrorMagnitude iterates), assemble golden/approx
	// output words with row 0 as LSB and sum |a-g| — integer-valued
	// contributions, exact under float addition below 2^53.
	var wrongCount int64
	aem := 0.0
	for w := sh.W0; w < sh.W1; w++ {
		var wrong uint64
		for oi, src := range cs.outSrc {
			var av uint64
			if src >= 0 {
				av = cs.rows[src][w]
			} else {
				av = vs.valRows[oi][w]
			}
			wrong |= vs.uRows[oi][w] ^ av
		}
		if metric != core.MetricAEM {
			wrongCount += int64(bits.OnesCount64(wrong))
			continue
		}
		for wb := wrong; wb != 0; wb &= wb - 1 {
			b := bits.TrailingZeros64(wb)
			var g, a uint64
			for oi, src := range cs.outSrc {
				g |= (vs.uRows[oi][w] >> b & 1) << oi
				if src >= 0 {
					a |= (cs.rows[src][w] >> b & 1) << oi
				} else {
					a |= (vs.valRows[oi][w] >> b & 1) << oi
				}
			}
			if a >= g {
				aem += float64(a - g)
			} else {
				aem += float64(g - a)
			}
		}
	}
	vs.erWrong[slot] = wrongCount
	vs.aemSum[slot] = aem
}

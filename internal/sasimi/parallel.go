package sasimi

import (
	"context"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// scoreCandidatesMaybeSharded dispatches candidate scoring on the
// estimator: the batch estimator takes the pattern-sharded path at every
// worker count (one shard on a single-worker pool), the full estimator
// (which mutates the value table during cone resimulation) and the local
// estimator (a trivial popcount) run the sequential loop. Both append the
// feasible entries to buf[:0].
func scoreCandidatesMaybeSharded(ctx *iterContext, est estimator, cands []cand, buf []scored,
	curErr, threshold float64, scratch, change *bitvec.Vec, ss *scoreScratch, pool *par.Pool,
	o *runObs, iter int) (int, []scored) {

	if _, ok := est.(*batchEstimator); ok && len(cands) > 0 {
		return scoreCandidatesSharded(ctx, cands, buf, curErr, threshold, ss, pool, o, iter)
	}
	return scoreCandidates(est, cands, buf, ctx.vals, curErr, threshold, scratch, change, o, iter)
}

// scoreScratch is the flow-owned scratch of the sharded scorer. It
// persists across iterations, so a pass allocates nothing that grows with
// the candidate list once the buffers have grown to it.
type scoreScratch struct {
	lastM, lastWorkers int
	shards             []par.Shard
	seen               []bool // target marks by node slot, cleared after each use
	targets            []circuit.NodeID
	erNet              [][]int32   // per shard: each candidate's net ER count
	aemMag             [][]float64 // per shard: each candidate's magnitude sum
	chg                [][]uint64  // per shard: change-mask words
}

// scoreCandidatesSharded evaluates every candidate's batch estimate with
// the pattern space sharded across the pool's workers, then runs the
// selection loop sequentially in candidate order so feasibility and
// tie-breaking match scoreCandidates decision for decision.
//
// Each worker owns one shard: for every candidate it materialises the
// change mask for its word range only (target XOR substitute, with the
// constant and inverted cases tail-masked exactly as substituteValue's
// Fill/Not produce them) and computes the shard's partial — for ER the
// net count inc − dec of the shard's exact integer counts, kept as one
// int32 (both counts are at most M), for AEM the unnormalised magnitude
// sum. Partials land in per-shard slots owned by the task index and are
// combined in fixed shard order, which reproduces the sequential
// DeltaER/DeltaAEM values bit for bit: float64(inc) − float64(dec) is
// exact below 2^53 and so equals float64(inc − dec) (see
// core.DeltaERPartial / core.DeltaAEMPartial for the word-locality
// argument). Each shard counts its queries once, after its loop.
func scoreCandidatesSharded(ctx *iterContext, cands []cand, buf []scored,
	curErr, threshold float64, ss *scoreScratch, pool *par.Pool, o *runObs, iter int) (int, []scored) {

	cpm, st, vals := ctx.cpm, ctx.st, ctx.vals
	m := vals.M
	words := bitvec.Words(m)
	if ss.lastM != m || ss.lastWorkers != pool.Workers() {
		ss.shards = par.Shards(m, pool.Workers())
		ss.lastM, ss.lastWorkers = m, pool.Workers()
	}
	shards := ss.shards
	aem := ctx.metric == core.MetricAEM

	// Warm the CPM's shared lazy caches before the scoring fan-out. The AEM
	// column memo is plain and must be filled from this goroutine; AnyProp
	// fills are atomic and pure, so the distinct targets' rows are filled
	// on the pool, each once.
	pool.Label("sasimi.score", obs.PhaseEstimate)
	if aem {
		cpm.EnsureAEMColumns(st)
	} else {
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
	}

	ss.erNet = grow(ss.erNet, len(shards))
	ss.aemMag = grow(ss.aemMag, len(shards))
	ss.chg = grow(ss.chg, len(shards))
	for si := range shards {
		if aem {
			ss.aemMag[si] = grow(ss.aemMag[si], len(cands))
		} else {
			ss.erNet[si] = grow(ss.erNet[si], len(cands))
		}
		ss.chg[si] = grow(ss.chg[si], words)
	}
	erNet, aemMag := ss.erNet, ss.aemMag

	goCtx := ctx.goCtx
	if goCtx == nil {
		goCtx = context.Background()
	}
	last := words - 1
	tail := bitvec.TailMask(m)
	err := pool.DoCtx(goCtx, len(shards), func(_, si int) {
		sh := shards[si]
		chg := ss.chg[si]
		for ci := range cands {
			c := &cands[ci]
			tw := vals.Node(c.target).WordsSlice()
			var sw []uint64
			if !c.isConst() {
				sw = vals.Node(c.sub).WordsSlice()
			}
			for w := sh.W0; w < sh.W1; w++ {
				var sub uint64 // constant 0 keeps the zero word
				switch c.kind {
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
				chg[w] = tw[w] ^ sub
			}
			if aem {
				aemMag[si][ci] = cpm.DeltaAEMPartial(c.target, chg, st, sh.W0, sh.W1)
			} else {
				inc, dec := cpm.DeltaERPartial(c.target, chg, st, sh.W0, sh.W1)
				erNet[si][ci] = int32(inc - dec)
			}
		}
		core.CountPartialQueries(ctx.metric, len(cands))
	})
	if err != nil {
		// Cancelled mid-scoring: the partial results are abandoned and the
		// flow returns at its next iteration-boundary check.
		return -1, nil
	}

	best := -1
	feasible := buf[:0]
	for i := range cands {
		c := &cands[i]
		var delta float64
		if aem {
			var total float64
			for si := range shards {
				total += aemMag[si][i]
			}
			delta = total / float64(m)
		} else {
			var net int64
			for si := range shards {
				net += int64(erNet[si][i])
			}
			delta = float64(net) / float64(m)
		}
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

// grow returns s resized to n elements, reusing its capacity. Elements
// kept from earlier use keep their values; callers overwrite what they
// read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

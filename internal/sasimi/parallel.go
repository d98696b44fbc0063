package sasimi

import (
	"context"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// scoreCandidatesMaybeSharded dispatches candidate scoring: the batch
// estimator on a multi-worker pool takes the pattern-sharded path, every
// other combination (full estimator mutates the value table during cone
// resimulation; local estimator is a trivial popcount; single worker is
// the legacy path whose allocation profile is pinned by
// TestNilTracerScoringAllocs) runs the sequential loop.
func scoreCandidatesMaybeSharded(ctx *iterContext, est estimator, cands []Candidate,
	curErr, threshold float64, scratch, change *bitvec.Vec, pool *par.Pool,
	o *runObs, iter int) (int, []int) {

	if _, ok := est.(*batchEstimator); ok && pool.Workers() > 1 && len(cands) > 0 {
		return scoreCandidatesSharded(ctx, cands, curErr, threshold, pool, o, iter)
	}
	return scoreCandidates(est, cands, ctx.vals, curErr, threshold, scratch, change, o, iter)
}

// scoreCandidatesSharded evaluates every candidate's batch estimate with
// the pattern space sharded across the pool's workers, then runs the
// selection loop sequentially in candidate order so feasibility and
// tie-breaking match scoreCandidates decision for decision.
//
// Each worker owns one shard: for every candidate it materialises the
// change mask for its word range only (target XOR substitute, with the
// constant and inverted cases tail-masked exactly as substituteValue's
// Fill/Not produce them) and computes the shard's partial — exact integer
// inc/dec counts for ER, the unnormalised magnitude sum for AEM. Partials
// land in per-shard slots owned by the task index and are combined in
// fixed shard order, which reproduces the sequential DeltaER/DeltaAEM
// values bit for bit (see core.DeltaERPartial / core.DeltaAEMPartial for
// the word-locality argument). Each shard counts its queries once, after
// its loop.
func scoreCandidatesSharded(ctx *iterContext, cands []Candidate,
	curErr, threshold float64, pool *par.Pool, o *runObs, iter int) (int, []int) {

	cpm, st, vals := ctx.cpm, ctx.st, ctx.vals
	m := vals.M
	words := bitvec.Words(m)
	shards := par.Shards(m, pool.Workers())
	aem := ctx.metric == core.MetricAEM

	// Warm the CPM's shared lazy caches before the scoring fan-out. The AEM
	// column memo is plain and must be filled from this goroutine; AnyProp
	// fills are atomic and pure, so the distinct targets' rows are filled
	// on the pool, each once. seen is indexed by node slot.
	pool.Label("sasimi.score", obs.PhaseEstimate)
	if aem {
		cpm.EnsureAEMColumns(st)
	} else {
		var targets []circuit.NodeID
		seen := make([]bool, ctx.net.NumSlots())
		for i := range cands {
			if t := cands[i].Target; !seen[t] {
				seen[t] = true
				targets = append(targets, t)
			}
		}
		cpm.EnsureAnyProp(targets, pool)
	}

	erInc := make([][]int64, len(shards))
	erDec := make([][]int64, len(shards))
	aemMag := make([][]float64, len(shards))
	for si := range shards {
		if aem {
			aemMag[si] = make([]float64, len(cands))
		} else {
			erInc[si] = make([]int64, len(cands))
			erDec[si] = make([]int64, len(cands))
		}
	}

	goCtx := ctx.goCtx
	if goCtx == nil {
		goCtx = context.Background()
	}
	last := words - 1
	tail := bitvec.TailMask(m)
	err := pool.DoCtx(goCtx, len(shards), func(_, si int) {
		sh := shards[si]
		chg := make([]uint64, words)
		for ci := range cands {
			c := &cands[ci]
			tw := vals.Node(c.Target).WordsSlice()
			var sw []uint64
			if !c.Const {
				sw = vals.Node(c.Sub).WordsSlice()
			}
			for w := sh.W0; w < sh.W1; w++ {
				var sub uint64
				switch {
				case c.Const:
					if c.ConstVal {
						sub = ^uint64(0)
						if w == last {
							sub = tail
						}
					}
				case c.Inverted:
					sub = ^sw[w]
					if w == last {
						sub &= tail
					}
				default:
					sub = sw[w]
				}
				chg[w] = tw[w] ^ sub
			}
			if aem {
				aemMag[si][ci] = cpm.DeltaAEMPartial(c.Target, chg, st, sh.W0, sh.W1)
			} else {
				inc, dec := cpm.DeltaERPartial(c.Target, chg, st, sh.W0, sh.W1)
				erInc[si][ci] = inc
				erDec[si][ci] = dec
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
	var feasible []int
	for i := range cands {
		c := &cands[i]
		if aem {
			var total float64
			for si := range shards {
				total += aemMag[si][i]
			}
			c.Delta = total / float64(m)
		} else {
			var inc, dec int64
			for si := range shards {
				inc += erInc[si][i]
				dec += erDec[si][i]
			}
			c.Delta = (float64(inc) - float64(dec)) / float64(m)
		}
		c.Exact = cpm.ExactFor(c.Target)
		c.Score = score(c.AreaGain, c.Delta, m)
		o.candidateScored(iter, c)
		if curErr+c.Delta > threshold+1e-12 {
			continue
		}
		feasible = append(feasible, i)
		if best == -1 || c.Score > cands[best].Score {
			best = i
		}
	}
	return best, feasible
}

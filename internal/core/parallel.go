package core

import (
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

var (
	statPartialER  = obs.Default().Counter("cpm_partial_er_queries_total")
	statPartialAEM = obs.Default().Counter("cpm_partial_aem_queries_total")
)

// CountPartialQueries adds n queries of the concurrent kernels to their
// counter: ERTerms.Net calls over one shard's words (metric ER), counted
// once per shard of a scoring pass, or candidates summed in full in an
// AEMTerms table (metric AEM), counted once per pass, so concurrent
// workers do not contend on the counter.
func CountPartialQueries(metric Metric, n int) {
	if metric == MetricAEM {
		statPartialAEM.Add(int64(n))
	} else {
		statPartialER.Add(int64(n))
	}
}

// BuildParallel constructs a CPM bit-identical to Build's, with the pattern
// axis sharded across the pool's workers.
//
// The reverse topological recursion of Eq. (2) is word-local: the value of
// word w of P[n][o] depends only on word w of the fanout rows (finalised
// earlier in the same shard's reverse-topological pass) and word w of the
// Boolean difference, which is a pure function of the simulated values.
// Each worker therefore runs the full recursion restricted to its shard's
// word range, writing disjoint uint64 words of the shared rows, and every
// word ends up the result of exactly the operation sequence the sequential
// builder would apply to it — independent of worker count and schedule.
// Shard-local Any early-exits skip only folds that are no-ops for the
// shard's words. A nil or single-worker pool runs the same fold as one
// shard.
func BuildParallel(n *circuit.Network, vals *sim.Values, pool *par.Pool) *CPM {
	start := time.Now()
	pool.Label("cpm.build", obs.PhaseCPMBuild)
	c := build(n, vals, n.NumOutputs(), nil, pool)
	c.built(start)
	return c
}

// build allocates a CPM with planes rows per live node (the output count
// for the full form, 1 for the ER form's AnyProp), fills their base cases
// and folds Eq. (2) into them over the pool, under the pool's current
// label. A non-nil spare is a CPM of the same network that nothing reads
// any more; its row storage is reused.
func build(n *circuit.Network, vals *sim.Values, planes int, spare *CPM, pool *par.Pool) *CPM {
	c := &CPM{
		net:    n,
		vals:   vals,
		m:      vals.M,
		o:      n.NumOutputs(),
		planes: planes,
	}
	if spare != nil {
		c.slab, c.flat = spare.slab, spare.flat
	}
	if slots := n.NumSlots(); spare != nil && cap(spare.p) >= slots {
		c.p = spare.p[:slots]
		clear(c.p)
	} else {
		c.p = make([][]*bitvec.Vec, slots)
	}
	order := n.TopoOrder()
	allocRows(c, order)
	for o, out := range n.Outputs() {
		c.p[out.Node][c.plane(o)].Fill()
	}
	c.fold(order, nil, pool)
	return c
}

// fold applies Eq. (2) to rows, which are in topological order, walking
// them in reverse: each row ORs in, for every distinct fanout, the
// fanout's row masked by the edge's Boolean difference, plane by plane
// (one plane per output in the full form, AnyProp's one in the ER form). A fanout row not
// in rows is read as it stands. The pattern axis is sharded over the pool
// as BuildParallel describes.
//
// A build passes flags == nil: every row already holds its base case and
// is folded in place. Refresh passes its per-slot marks (see
// rowHead and friends); each row is then recomputed into a scratch row
// holding its base case and compared with its stored words, which are
// overwritten only where they differ. A row that is not head-dirty is
// skipped in a shard when none of its fanout rows changed in that shard's
// words: its base case, fanout list and Boolean differences are
// unchanged, and the fold is word-local, so its words there would come
// out as they are. The result is, per shard, whether each row's words
// changed there, by node slot; nil for a build.
func (c *CPM) fold(rows []circuit.NodeID, flags []uint8, pool *par.Pool) [][]bool {
	n, vals := c.net, c.vals
	// Fanout lists are shared read-only by every worker; resolve them once
	// so workers do not race the network's internal caches.
	fanouts := make([][]circuit.NodeID, len(rows))
	for i, id := range rows {
		fanouts[i] = uniqueFanouts(n, id)
	}
	words := bitvec.Words(c.m)
	lastWord := words - 1
	tail := bitvec.TailMask(c.m)
	shards := par.Shards(c.m, pool.Workers())
	refresh := flags != nil
	var scratchRows [][]uint64
	var changed [][]bool
	if refresh {
		scratchRows, changed = c.refreshScratch(len(shards))
	}
	outputs := n.Outputs()
	pool.Do(len(shards), func(_, si int) {
		sh := shards[si]
		// Each shard writes its own buffers: shards of a short pattern
		// axis share cache lines.
		d := make([]uint64, words)
		var scratch []uint64
		var chg []bool
		if refresh {
			scratch, chg = scratchRows[si], changed[si]
		}
		var one, zero []uint64
		for i := len(rows) - 1; i >= 0; i-- {
			id := rows[i]
			prow := c.p[id]
			if refresh {
				if flags[id]&rowHead == 0 && !anyChanged(fanouts[i], chg) {
					continue
				}
				for o := 0; o < c.planes; o++ {
					clear(scratch[o*words+sh.W0 : o*words+sh.W1])
				}
				if flags[id]&rowDrives != 0 {
					for o, out := range outputs {
						if out.Node != id {
							continue
						}
						pl := c.plane(o)
						so := scratch[pl*words : (pl+1)*words]
						for w := sh.W0; w < sh.W1; w++ {
							so[w] = ^uint64(0)
						}
						if sh.W1 == words {
							so[lastWord] = tail
						}
					}
				}
			}
			for _, nf := range fanouts[i] {
				kind := n.Kind(nf)
				fanins := n.Fanins(nf)
				if cap(one) < len(fanins) {
					one = make([]uint64, len(fanins))
					zero = make([]uint64, len(fanins))
				}
				ob, zb := one[:len(fanins)], zero[:len(fanins)]
				dAny := false
				for w := sh.W0; w < sh.W1; w++ {
					for j, f := range fanins {
						if f == id {
							ob[j], zb[j] = ^uint64(0), 0
						} else {
							fv := vals.Node(f).WordsSlice()[w]
							ob[j], zb[j] = fv, fv
						}
					}
					dw := kind.EvalWord(ob) ^ kind.EvalWord(zb)
					if w == lastWord {
						dw &= tail
					}
					d[w] = dw
					dAny = dAny || dw != 0
				}
				if !dAny {
					continue
				}
				frow := c.p[nf]
				for o := 0; o < c.planes; o++ {
					if !frow[o].AnyWords(sh.W0, sh.W1) {
						continue
					}
					fo := frow[o].WordsSlice()
					po := prow[o].WordsSlice()
					if refresh {
						po = scratch[o*words : (o+1)*words]
					}
					for w := sh.W0; w < sh.W1; w++ {
						po[w] |= fo[w] & d[w]
					}
				}
			}
			if refresh {
				for o := 0; o < c.planes; o++ {
					po := prow[o].WordsSlice()
					so := scratch[o*words : (o+1)*words]
					for w := sh.W0; w < sh.W1; w++ {
						if po[w] != so[w] {
							po[w] = so[w]
							chg[id] = true
						}
					}
				}
			}
		}
	})
	return changed
}

// anyChanged reports whether any of ids is marked in changed.
func anyChanged(ids []circuit.NodeID, changed []bool) bool {
	for _, id := range ids {
		if changed[id] {
			return true
		}
	}
	return false
}

// refreshScratch returns the fold's refresh scratch, kept on the CPM from
// one refresh to the next: per shard, one row of words (c.planes vectors
// of M bits, laid end to end) and a changed flag per node slot, all clear.
func (c *CPM) refreshScratch(shards int) ([][]uint64, [][]bool) {
	slots := c.net.NumSlots()
	for len(c.foldRows) < shards {
		c.foldRows = append(c.foldRows, make([]uint64, c.planes*bitvec.Words(c.m)))
		c.foldMarks = append(c.foldMarks, nil)
	}
	for si := range c.foldMarks[:shards] {
		if len(c.foldMarks[si]) < slots {
			c.foldMarks[si] = append(c.foldMarks[si], make([]bool, slots-len(c.foldMarks[si]))...)
		}
	}
	return c.foldRows[:shards], c.foldMarks[:shards]
}

// EnsureAEMColumns extracts the per-pattern golden/approximate output words
// for st into the CPM's column cache. The cache is a plain (non-atomic)
// memo keyed by state pointer, so concurrent AEM queries require this to
// be called — from a single goroutine, before the worker fan-out —
// whenever the error state changes; AEMTerms then only reads it.
func (c *CPM) EnsureAEMColumns(st *emetric.State) {
	if c.planes != c.o {
		panic("core: AEM needs the full CPM; this one is the ER form")
	}
	if c.o > 63 {
		panic("core: EnsureAEMColumns requires <= 63 outputs")
	}
	c.aemColumns(st)
}

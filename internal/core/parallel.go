package core

import (
	"math/bits"
	"sync/atomic"
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
	c := &CPM{
		net:     n,
		vals:    vals,
		m:       vals.M,
		o:       n.NumOutputs(),
		p:       make([][]*bitvec.Vec, n.NumSlots()),
		anyProp: make([]atomic.Pointer[bitvec.Vec], n.NumSlots()),
	}
	order := n.TopoOrder()
	allocRows(c, order)
	for o, out := range n.Outputs() {
		c.p[out.Node][o].Fill()
	}
	pool.Label("cpm.build", obs.PhaseCPMBuild)
	c.fold(order, nil, pool)
	c.buildTime = time.Since(start)
	statCPMBuilds.Inc()
	statCPMBuildNS.Add(int64(c.buildTime))
	return c
}

// fold applies Eq. (2) to rows, which are in topological order, walking
// them in reverse: each row ORs in, for every distinct fanout, the
// fanout's row masked by the edge's Boolean difference. A fanout row not
// in rows is read as it stands. The pattern axis is sharded over the pool
// as BuildParallel describes.
//
// BuildParallel passes flags == nil: every row already holds its base
// case and is folded in place. Refresh passes its per-slot marks (see
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
				for o := 0; o < c.o; o++ {
					clear(scratch[o*words+sh.W0 : o*words+sh.W1])
				}
				if flags[id]&rowDrives != 0 {
					for o, out := range outputs {
						if out.Node != id {
							continue
						}
						so := scratch[o*words : (o+1)*words]
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
				for o := 0; o < c.o; o++ {
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
				for o := 0; o < c.o; o++ {
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
// one refresh to the next: per shard, one row of words (c.o vectors of M
// bits, laid end to end) and a changed flag per node slot, all clear.
func (c *CPM) refreshScratch(shards int) ([][]uint64, [][]bool) {
	slots := c.net.NumSlots()
	for len(c.foldRows) < shards {
		c.foldRows = append(c.foldRows, make([]uint64, c.o*bitvec.Words(c.m)))
		c.foldMarks = append(c.foldMarks, nil)
	}
	for si := range c.foldMarks[:shards] {
		if len(c.foldMarks[si]) < slots {
			c.foldMarks[si] = append(c.foldMarks[si], make([]bool, slots-len(c.foldMarks[si]))...)
		}
	}
	return c.foldRows[:shards], c.foldMarks[:shards]
}

// EnsureAnyProp warms the AnyProp cache for the given nodes, spread over
// the pool's workers (a nil or single-worker pool fills them inline).
// AnyProp is already safe to fault in from concurrent workers, and its
// fills are pure; pre-warming each node once simply avoids the duplicated
// compute of racing fills on hot candidate targets.
func (c *CPM) EnsureAnyProp(ids []circuit.NodeID, pool *par.Pool) {
	n := pool.Workers()
	pool.Do(n, func(_, task int) {
		for i := task; i < len(ids); i += n {
			c.AnyProp(ids[i])
		}
	})
}

// EnsureAEMColumns extracts the per-pattern golden/approximate output words
// for st into the CPM's column cache. The cache is a plain (non-atomic)
// memo keyed by state pointer, so concurrent AEM queries require this to
// be called — from a single goroutine, before the worker fan-out —
// whenever the error state changes; AEMTerms then only reads it.
func (c *CPM) EnsureAEMColumns(st *emetric.State) {
	if c.o > 63 {
		panic("core: EnsureAEMColumns requires <= 63 outputs")
	}
	c.aemColumns(st)
}

// DeltaERCorrection returns how much the net count inc − dec of a flip at
// nx (ERTerms.Net over every word) moves when the error state moves from prev to cur,
// provided nx's propagation row (and so its AnyProp) is the same under
// both. mc[k] holds word ws[k] of the change mask restricted to D, the
// patterns whose output word differs between the two states. A pattern
// outside D has the same W column and WrongAny bit under both states, so
// its term is the same under both, and the count over D's words is the
// whole difference, exactly. The query is not counted.
//
//als:allocfree
func (c *CPM) DeltaERCorrection(nx circuit.NodeID, mc []uint64, ws []int32, cur, prev *emetric.State) int64 {
	ap := c.AnyProp(nx).WordsSlice()
	row := c.p[nx]
	var net int64
	for k, w := range ws {
		if cw := mc[k]; cw != 0 {
			net += c.erWord(cw, int(w), ap, row, cur) - c.erWord(cw, int(w), ap, row, prev)
		}
	}
	return net
}

// erWord is Algorithm 1 on word w of a change mask cw under st: the
// patterns that become wrong (all outputs right before, the flip reaches
// one) minus those that become right (the flip reaches exactly the wrong
// outputs), as ERTerms counts them.
func (c *CPM) erWord(cw uint64, w int, ap []uint64, row []*bitvec.Vec, st *emetric.State) int64 {
	wa := st.WrongAny.WordsSlice()[w]
	inc := bits.OnesCount64(cw &^ wa & ap[w])
	dw := cw & wa
	for o := 0; o < c.o && dw != 0; o++ {
		dw &^= row[o].WordsSlice()[w] ^ st.W.Row(o).WordsSlice()[w]
	}
	return int64(inc - bits.OnesCount64(dw))
}

package core

import (
	"fmt"
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

// CountPartialQueries adds n DeltaERPartial (metric ER) or DeltaAEMPartial
// (metric AEM) calls to their query counter. Callers count once per shard
// of a scoring pass, so concurrent workers do not contend on the counter.
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
// shard's words. A nil or single-worker pool falls through to Build.
func BuildParallel(n *circuit.Network, vals *sim.Values, pool *par.Pool) *CPM {
	if pool.Workers() <= 1 {
		return Build(n, vals)
	}
	start := time.Now()
	m := vals.M
	numOut := n.NumOutputs()
	c := &CPM{
		net:     n,
		vals:    vals,
		m:       m,
		o:       numOut,
		p:       make([][]*bitvec.Vec, n.NumSlots()),
		anyProp: make([]atomic.Pointer[bitvec.Vec], n.NumSlots()),
	}
	order := n.TopoOrder()
	allocRows(c, order)
	for o, out := range n.Outputs() {
		c.p[out.Node][o].Fill()
	}
	// Fanout lists are shared read-only by every worker; resolve them once
	// so workers do not race the network's internal caches.
	fanouts := make([][]circuit.NodeID, n.NumSlots())
	for _, id := range order {
		fanouts[id] = uniqueFanouts(n, id)
	}
	lastWord := bitvec.Words(m) - 1
	tail := bitvec.TailMask(m)
	shards := par.Shards(m, pool.Workers())
	pool.Label("cpm.build", obs.PhaseCPMBuild)
	pool.Do(len(shards), func(_, si int) {
		sh := shards[si]
		d := make([]uint64, bitvec.Words(m))
		var one, zero []uint64
		for idx := len(order) - 1; idx >= 0; idx-- {
			id := order[idx]
			prow := c.p[id]
			for _, nf := range fanouts[id] {
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
				for o := 0; o < numOut; o++ {
					if !frow[o].AnyWords(sh.W0, sh.W1) {
						continue
					}
					fo := frow[o].WordsSlice()
					po := prow[o].WordsSlice()
					for w := sh.W0; w < sh.W1; w++ {
						po[w] |= fo[w] & d[w]
					}
				}
			}
		}
	})
	c.buildTime = time.Since(start)
	statCPMBuilds.Inc()
	statCPMBuildNS.Add(int64(c.buildTime))
	return c
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
// memo keyed by state pointer, so sharded AEM queries require this to be
// called — from a single goroutine, before the worker fan-out — whenever
// the error state changes; DeltaAEMPartial then only reads it.
func (c *CPM) EnsureAEMColumns(st *emetric.State) {
	if c.o > 63 {
		panic("core: EnsureAEMColumns requires <= 63 outputs")
	}
	c.aemColumns(st)
}

// DeltaERPartial computes the word range [w0, w1) of a DeltaER query as
// exact integer counts: inc is the number of newly-wrong patterns in the
// range, dec the number of fully-corrected ones. chg holds the change-mask
// words of the candidate (only [w0, w1) is read; tail bits beyond M must be
// zero). Summing the counts over any word-aligned partition of the pattern
// space and evaluating (inc−dec)/M reproduces DeltaER's result bit for bit:
// both cases of Algorithm 1 are word-local, and the sequential early-exits
// only skip words whose partial is already zero.
//
// Safe to call from concurrent workers (AnyProp faults in atomically). The
// query is not counted; see CountPartialQueries.
//
//als:allocfree
func (c *CPM) DeltaERPartial(nx circuit.NodeID, chg []uint64, st *emetric.State, w0, w1 int) (inc, dec int64) {
	if c.restricted {
		panic("core: DeltaERPartial on an output-restricted CPM")
	}
	ap := c.AnyProp(nx).WordsSlice()
	wa := st.WrongAny.WordsSlice()
	row := c.p[nx]
	for w := w0; w < w1; w++ {
		cw := chg[w]
		if cw == 0 {
			continue
		}
		inc += int64(bits.OnesCount64(cw &^ wa[w] & ap[w]))
		dw := cw & wa[w]
		for o := 0; o < c.o && dw != 0; o++ {
			dw &^= row[o].WordsSlice()[w] ^ st.W.Row(o).WordsSlice()[w]
		}
		dec += int64(bits.OnesCount64(dw))
	}
	return inc, dec
}

// DeltaAEMPartial computes the word range [w0, w1) of a DeltaAEM query,
// returning the *unnormalised* magnitude sum over the range's patterns
// (DeltaAEM's result is the total over all words divided by M). The
// per-pattern contributions are integer-valued, so partial sums over a
// word-aligned partition combine exactly — in the fixed shard order — to
// the sequential accumulation for any magnitude below 2^53, which covers
// every bundled benchmark. The reached-output set is gathered shard-
// locally; an output unreachable within the range contributes no flip bit
// for its patterns, so the restriction is result-identical.
//
// EnsureAEMColumns(st) must have been called (from one goroutine) first.
// The query is not counted; see CountPartialQueries.
//
//als:allocfree
func (c *CPM) DeltaAEMPartial(nx circuit.NodeID, chg []uint64, st *emetric.State, w0, w1 int) float64 {
	if c.restricted {
		panic("core: DeltaAEMPartial on an output-restricted CPM")
	}
	if c.o > 63 {
		panic("core: DeltaAEMPartial requires <= 63 outputs")
	}
	if c.aemFor != st {
		panic(fmt.Sprintf("core: DeltaAEMPartial for state %p without EnsureAEMColumns", st))
	}
	row := c.p[nx]
	// The reached-output gather lives in a fixed-size stack array (c.o is
	// capped at 63 above): the kernel runs per candidate per shard, so a
	// heap slice here would dominate the scoring loop's allocation profile,
	// and per-worker scratch cannot live on the shared CPM.
	var reached [63]aemReach
	nr := 0
	for o := 0; o < c.o; o++ {
		pw := row[o].WordsSlice()
		for w := w0; w < w1; w++ {
			if chg[w]&pw[w] != 0 {
				reached[nr] = aemReach{bit: 1 << uint(o), words: pw}
				nr++
				break
			}
		}
	}
	if nr == 0 {
		return 0
	}
	var total float64
	for w := w0; w < w1; w++ {
		word := chg[w]
		for word != 0 {
			b := word & (-word)
			i := w*bitvec.WordBits + bits.TrailingZeros64(b)
			word ^= b
			var flip uint64
			for _, r := range reached[:nr] {
				if r.words[w]&b != 0 {
					flip |= r.bit
				}
			}
			if flip == 0 {
				continue
			}
			org := c.aemU[i]
			pre := c.aemV[i]
			total += absDiff(pre^flip, org) - absDiff(pre, org)
		}
	}
	return total
}

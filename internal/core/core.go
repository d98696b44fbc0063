// Package core implements the paper's primary contribution: batch
// statistical error estimation for approximate logic synthesis via a single
// Monte Carlo run plus a change propagation matrix (CPM).
//
// The CPM entry P[i,n,o] is 1 iff a value flip at node n under input
// pattern i propagates to primary output o. It is built from per-edge
// Boolean differences D[i,n,nf] = (∂nf/∂n)(pattern i) by the reverse
// topological recursion of the paper's Eq. (2):
//
//	P[i,n,o] = OR over fanouts nf of n of ( P[i,nf,o] AND D[i,n,nf] )
//
// with P[i,d,o] = 1 whenever node d drives primary output o. Everything is
// stored as M-bit vectors, so the recursion and the downstream ΔER / ΔAEM
// queries run 64 patterns per machine word.
//
// A CPM comes in two forms. The full form (Build, BuildParallel) keeps
// every P[·,n,o]: Θ(M·O·(N+E)) time and memory for N nodes, E edges and
// O outputs. AEM needs it, and so do DeltaER and DeltaAEM, the reference
// queries. The ER form (BuildER) keeps what Algorithm 1 reads: one
// AnyProp row per node, the OR of Eq. (2) over the outputs,
//
//	AnyProp[i,n] = [n drives an output] OR over fanouts nf of n of ( AnyProp[i,nf] AND D[i,n,nf] )
//
// over all M patterns, plus the per-output rows only at the M_w patterns
// the error state gets wrong, folded over a value table compacted to
// them: Θ(M·(N+E) + M_w·O·(N+E)). Both forms are the same fold, with one
// plane or O, over the full or the compacted table.
//
// Like the paper, the construction evaluates each Boolean difference at the
// *unperturbed* simulated values, so reconvergent fanout can make an entry
// wrong; on fanout-free (tree) regions it is exact. See the package tests
// for both properties.
package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"batchals/internal/analyze"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/sim"
)

// Always-on substrate counters on the default metrics registry; see the
// matching block in internal/sim. Pre-resolved so the per-event cost is a
// single atomic add. The ΔER/ΔAEM query kernels do not tick their counters
// themselves: a per-query atomic add on a counter every worker and every
// concurrently running flow shares costs more than a cheap query, so the
// caller adds a pass's query count once (CountDeltaQueries,
// CountPartialQueries).
var (
	statCPMBuilds  = obs.Default().Counter("cpm_builds_total")
	statCPMBuildNS = obs.Default().Counter("cpm_build_ns_total")
	statDeltaER    = obs.Default().Counter("cpm_delta_er_queries_total")
	statDeltaAEM   = obs.Default().Counter("cpm_delta_aem_queries_total")
	statExactDelta = obs.Default().Counter("exact_delta_queries_total")
)

// CountDeltaQueries adds n DeltaER/DeltaERCounts (metric ER) or DeltaAEM
// (metric AEM) calls to their query counter. Callers count once per
// scoring pass.
func CountDeltaQueries(metric Metric, n int) {
	if metric == MetricAEM {
		statDeltaAEM.Add(int64(n))
	} else {
		statDeltaER.Add(int64(n))
	}
}

// CPM is the change propagation matrix for one network, one pattern set and
// one simulation of that network, in the full form or the ER form (see the
// package doc).
type CPM struct {
	net  *circuit.Network
	vals *sim.Values
	m    int // number of patterns
	o    int // number of outputs

	// p[node] holds the node's M-bit propagation rows, planes of them;
	// nil rows correspond to dead node slots. In the full form planes is
	// the output count and p[node][o] is the propagation of node ->
	// output o. In the ER form planes is 1 and p[node][0] is AnyProp.
	p      [][]*bitvec.Vec
	planes int
	// slab and flat back the rows a build allocated (see allocRows); a
	// rebuild of a discarded slice reuses them.
	slab *bitvec.Arena
	flat []*bitvec.Vec

	// cur and prev are the ER form's per-output rows at the patterns the
	// error state it was last built or refreshed for gets wrong (cur), and
	// at those the state before that got wrong (prev; nil after a build).
	// Both are nil in the full form.
	cur, prev *wrongSlice

	// Per-pattern golden/approximate output words, cached for the error
	// state currently being estimated against (see aemColumns).
	aemFor *emetric.State
	aemU   []uint64
	aemV   []uint64

	// DeltaAEM's gather buffer, reused across calls to keep the scoring
	// loop allocation-free. Like aemColumns it makes DeltaAEM
	// single-goroutine only; the concurrent path uses AEMTerms, whose
	// state is per worker.
	aemReached []aemReach

	// Refresh's fold scratch, reused from one refresh to the next: per
	// shard, one scratch row and a changed flag per node slot (see fold).
	foldRows  [][]uint64
	foldMarks [][]bool

	// cert caches the lazily-built exactness certificate (see
	// Certificate). It is atomic so concurrent queries may fault it in:
	// the certificate depends only on the immutable network structure, so
	// racing fills store interchangeable values.
	cert atomic.Pointer[analyze.Certificate]

	buildTime time.Duration
}

// Build constructs the full-form CPM from an already-simulated value table
// (the single MC run), sequentially. Cost Θ(M·(N+E)·O / 64) word
// operations, as analysed in Section 4.4 of the paper. BuildParallel
// builds the same matrix over a pool.
func Build(n *circuit.Network, vals *sim.Values) *CPM {
	start := time.Now()
	m := vals.M
	numOut := n.NumOutputs()
	c := &CPM{
		net:    n,
		vals:   vals,
		m:      m,
		o:      numOut,
		p:      make([][]*bitvec.Vec, n.NumSlots()),
		planes: numOut,
	}
	order := n.TopoOrder()

	// Allocate propagation rows for live nodes out of two slabs — one
	// arena slab for the vectors, one flat slice for the per-node pointer
	// rows — instead of a make per node and a make per (node, output).
	allocRows(c, order)

	// Base case: a node observed directly at an output propagates there.
	for o, out := range n.Outputs() {
		c.p[out.Node][o].Fill()
	}

	// Reverse topological pass applying Eq. (2). For each node n and each
	// fanout nf we need D[n->nf] once; compute it word-parallel and fold it
	// into every output plane.
	d := bitvec.New(m)
	tmp := bitvec.New(m)
	for idx := len(order) - 1; idx >= 0; idx-- {
		id := order[idx]
		for _, nf := range uniqueFanouts(n, id) {
			boolDiff(n, vals, id, nf, d)
			if !d.Any() {
				continue
			}
			prow := c.p[id]
			frow := c.p[nf]
			for o := 0; o < numOut; o++ {
				if !frow[o].Any() {
					continue
				}
				tmp.And(frow[o], d)
				prow[o].Or(prow[o], tmp)
			}
		}
	}
	c.built(start)
	return c
}

// built records a finished build's time and counts it.
func (c *CPM) built(start time.Time) {
	c.buildTime = time.Since(start)
	statCPMBuilds.Inc()
	statCPMBuildNS.Add(int64(c.buildTime))
}

// plane returns the row of a node that output o's base case fills.
func (c *CPM) plane(o int) int {
	if c.planes == 1 {
		return 0
	}
	return o
}

// allocRows slab-allocates the propagation rows for every node in order:
// one bitvec.Arena slab for the vectors and one flat pointer slice carved
// per node, so a build performs O(1) heap allocations where it used to
// perform one per node plus one per (node, output). A CPM that carries
// the slab and flat slice of a discarded one re-carves them instead.
func allocRows(c *CPM, order []circuit.NodeID) {
	k := c.planes
	total := len(order) * k
	if total == 0 {
		return
	}
	if c.slab == nil {
		c.slab = bitvec.NewArena(c.m, total)
	} else {
		c.slab.Reset(c.m)
	}
	if cap(c.flat) < total {
		c.flat = make([]*bitvec.Vec, total)
	}
	flat := c.flat[:total]
	for i := range flat {
		flat[i] = c.slab.New()
	}
	for i, id := range order {
		c.p[id] = flat[i*k : (i+1)*k : (i+1)*k] //als:invalidate-ok constructor helper: the caller's CPM is freshly built, caches empty
	}
}

// uniqueFanouts returns the distinct fanout nodes of id (a node may appear
// several times if it feeds multiple pins of the same gate; the Boolean
// difference already accounts for the multiplicity).
func uniqueFanouts(n *circuit.Network, id circuit.NodeID) []circuit.NodeID {
	fos := n.Fanouts(id)
	if len(fos) <= 1 {
		return fos
	}
	out := make([]circuit.NodeID, 0, len(fos))
	for _, f := range fos {
		dup := false
		for _, g := range out {
			if g == f {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, f)
		}
	}
	return out
}

// boolDiff computes the Boolean difference ∂nf/∂x as an M-bit vector into
// dst: bit i is 1 iff flipping x changes nf under pattern i, evaluating all
// other fanins at their simulated values. Implemented as the generic
// cofactor XOR of Definition 4.1, word-parallel, which also handles a node
// feeding several pins of nf.
func boolDiff(n *circuit.Network, vals *sim.Values, x, nf circuit.NodeID, dst *bitvec.Vec) {
	kind := n.Kind(nf)
	fanins := n.Fanins(nf)
	words := bitvec.Words(vals.M)
	one := make([]uint64, len(fanins))
	zero := make([]uint64, len(fanins))
	dw := dst.WordsSlice()
	for w := 0; w < words; w++ {
		for j, f := range fanins {
			if f == x {
				one[j] = ^uint64(0)
				zero[j] = 0
			} else {
				fv := vals.Node(f).WordsSlice()[w]
				one[j] = fv
				zero[j] = fv
			}
		}
		dw[w] = kind.EvalWord(one) ^ kind.EvalWord(zero)
	}
	dst.MaskTail()
}

// M returns the number of patterns the CPM was built for.
func (c *CPM) M() int { return c.m }

// NumOutputs returns the number of primary outputs covered.
func (c *CPM) NumOutputs() int { return c.o }

// BuildTime returns how long the CPM construction, or the last Refresh,
// took.
func (c *CPM) BuildTime() time.Duration { return c.buildTime }

// Prop returns the M-bit vector of patterns under which a flip at node id
// reaches output o. Shared, not copied. It needs the full form.
func (c *CPM) Prop(id circuit.NodeID, o int) *bitvec.Vec {
	return c.rows(id, "Prop")[o]
}

// rows returns node id's per-output rows, panicking when the node has
// none: a dead slot, or an ER-form CPM of a network with several outputs.
// op names the caller for the message.
func (c *CPM) rows(id circuit.NodeID, op string) []*bitvec.Vec {
	row := c.p[id]
	if row == nil {
		panic(fmt.Sprintf("core: node %d has no CPM row (dead?)", id))
	}
	if c.planes != c.o {
		panic(fmt.Sprintf("core: %s needs the full CPM; this one is the ER form", op))
	}
	return row
}

// AnyProp returns the M-bit vector of patterns under which a flip at id
// is observable at some primary output: the OR over outputs of
// Prop(id, ·). The ER form stores it as the node's row and returns that,
// shared (callers must not modify it); the full form ORs its rows into a
// new vector. Safe from concurrent queries.
func (c *CPM) AnyProp(id circuit.NodeID) *bitvec.Vec {
	row := c.p[id]
	if row == nil {
		panic(fmt.Sprintf("core: node %d has no CPM row (dead?)", id))
	}
	if len(row) == 1 {
		return row[0]
	}
	v := bitvec.New(c.m)
	for _, pv := range row {
		v.Or(v, pv)
	}
	return v
}

// Observability returns the fraction of patterns under which a flip at id
// reaches at least one output — a per-node testability measure that falls
// out of the CPM for free. The ER form's rows (BuildAnyProp) are all it
// needs.
func (c *CPM) Observability(id circuit.NodeID) float64 {
	return float64(c.AnyProp(id).Count()) / float64(c.m)
}

// DeltaER implements Algorithm 1 of the paper for one approximate
// transformation, bit-parallel over patterns. nx is the output of the local
// circuit affected by the AT, change is the M-bit mask of patterns under
// which the value of nx flips, and st carries the W matrix of the current
// approximate circuit versus the golden circuit. It needs the full form
// and is the reference the ER form's queries (ERTerms,
// DeltaERCorrection) are held to.
//
// Returns the increased error rate, which may be negative (the AT fixes
// previously wrong patterns).
func (c *CPM) DeltaER(nx circuit.NodeID, change *bitvec.Vec, st *emetric.State) float64 {
	inc, dec := c.DeltaERCounts(nx, change, st)
	return (float64(inc) - float64(dec)) / float64(c.m)
}

// DeltaERCounts returns the raw pattern counts behind DeltaER: inc
// patterns predicted to become newly wrong and dec patterns predicted to
// become fully corrected, out of the M-pattern sample. These Binomial
// counts are what the statistical confidence layer (obs.Wilson /
// obs.Hoeffding) consumes — DeltaER's normalised float erases the sample
// size the interval math needs. It needs the full form and is safe from
// concurrent queries. The query is not counted; see CountDeltaQueries.
//
//als:allocfree
func (c *CPM) DeltaERCounts(nx circuit.NodeID, change *bitvec.Vec, st *emetric.State) (incCount, decCount int64) {
	row := c.rows(nx, "DeltaERCounts")
	wa := st.WrongAny.WordsSlice()
	for w, x := range change.WordsSlice() {
		if x == 0 {
			continue
		}
		// Case 2 (Lines 10-11): previously fully correct pattern, flip
		// reaches some output -> newly wrong.
		if nw := x &^ wa[w]; nw != 0 {
			var reach uint64
			for _, pv := range row {
				if reach |= pv.WordsSlice()[w]; reach&nw == nw {
					break
				}
			}
			incCount += int64(bits.OnesCount64(nw & reach))
		}
		// Case 1 (Lines 7-9): previously wrong pattern where the flip
		// reaches exactly the wrong outputs and no correct one -> fully
		// corrected. Keep the patterns where P and W agree on every output.
		d := x & wa[w]
		for o := 0; o < c.o && d != 0; o++ {
			d &^= row[o].WordsSlice()[w] ^ st.W.Row(o).WordsSlice()[w]
		}
		decCount += int64(bits.OnesCount64(d))
	}
	return incCount, decCount
}

// aemColumns builds (or reuses) the per-pattern output words of the golden
// (U) and approximate (V) matrices for st. Extracting them once per
// iteration turns the per-candidate inner loop from matrix-column gathers
// into two array reads.
func (c *CPM) aemColumns(st *emetric.State) {
	if c.aemFor == st {
		return
	}
	if c.aemU == nil {
		c.aemU = make([]uint64, c.m)
		c.aemV = make([]uint64, c.m)
	} else {
		for i := range c.aemU {
			c.aemU[i] = 0
			c.aemV[i] = 0
		}
	}
	for o := 0; o < c.o; o++ {
		uw := st.U.Row(o).WordsSlice()
		vw := st.V.Row(o).WordsSlice()
		bit := uint64(1) << uint(o)
		for i := 0; i < c.m; i++ {
			if uw[i/64]>>(uint(i)%64)&1 == 1 {
				c.aemU[i] |= bit
			}
			if vw[i/64]>>(uint(i)%64)&1 == 1 {
				c.aemV[i] |= bit
			}
		}
	}
	c.aemFor = st
}

// aemReach is one output the candidate's flip can reach: its bit in the
// packed output word plus the propagation row's word slice. The gather
// buffer lives on the CPM (aemReached) so the scoring loop reuses it.
type aemReach struct {
	bit   uint64
	words []uint64
}

// DeltaAEM estimates the increased average error magnitude of an AT, per
// Section 4.3: for each pattern where nx flips, the predicted new output
// word Y_chg is the previous approximate word with the CPM-propagated bits
// flipped, and the contribution is |Y_chg−Y_org| − |Y_pre−Y_org|. The
// result is normalised by M (it is an average), and may be negative.
// Requires at most 63 outputs. The query is not counted; see
// CountDeltaQueries.
//
//als:allocfree
func (c *CPM) DeltaAEM(nx circuit.NodeID, change *bitvec.Vec, st *emetric.State) float64 {
	if c.o > 63 {
		panic("core: DeltaAEM requires <= 63 outputs")
	}
	if !change.Any() {
		return 0
	}
	row := c.rows(nx, "DeltaAEM")
	c.aemColumns(st)

	// Only outputs the flip can reach under some changed pattern matter;
	// gather their word slices once into the reusable buffer (the append
	// grows it to at most c.o entries on the first calls, then reuses).
	reached := c.aemReached[:0]
	cw := change.WordsSlice()
	for o := 0; o < c.o; o++ {
		pw := row[o].WordsSlice()
		for w := range cw {
			if cw[w]&pw[w] != 0 {
				reached = append(reached, aemReach{bit: 1 << uint(o), words: pw}) //als:alloc-ok amortised grow, capped at c.o
				break
			}
		}
	}
	c.aemReached = reached
	if len(reached) == 0 {
		return 0
	}

	var total float64
	for w, word := range cw {
		for word != 0 {
			b := word & (-word)
			i := w*bitvec.WordBits + bits.TrailingZeros64(b)
			word ^= b
			var flip uint64
			for _, r := range reached {
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
	return total / float64(c.m)
}

func absDiff(a, b uint64) float64 {
	if a >= b {
		return float64(a - b)
	}
	return float64(b - a)
}

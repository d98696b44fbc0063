package core

import (
	"fmt"
	"math/bits"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// The ER form of the CPM. Algorithm 1 reads a target nx's CPM rows in two
// ways only: AnyProp[nx], whether a flip reaches some output, on the
// patterns every output gets right; and whether the flip reaches exactly
// the wrong outputs (P[nx][o] = W[o] for every o), on the patterns some
// output gets wrong. So the ER form keeps one AnyProp row per node over
// all M patterns, folded by Eq. (2) OR-ed over the outputs with one
// plane, and the per-output rows only at the wrong patterns: a full-form
// CPM over the value table compacted to them (wrongSlice). Eq. (2) is
// pattern-local, so a compacted row holds exactly the full row's bits at
// those patterns.
//
// The engine keeps two slices: cur, at the patterns the current error
// state gets wrong, which ERTerms reads, and prev, at those the state
// before the last accept got wrong, which the carried sums' corrections
// read (DeltaERCorrection). A refresh moves cur to prev, brings it up to
// date over the dirty closure as it does the AnyProp rows, and builds a
// fresh cur.

// wrongSlice holds the per-output propagation rows at the patterns one
// error state gets wrong, in pattern order: slice position k is the k-th
// pattern set in wa.
type wrongSlice struct {
	wa   *bitvec.Vec // the state's WrongAny: the patterns in the slice
	base []int32     // per word of wa and one past the last: the slice position of its first pattern
	w    [][]uint64  // per output: the state's W row at the slice's patterns
	// rows is a full-form CPM over the value table compacted to the
	// slice's patterns; nil when the state gets every pattern right.
	rows *CPM
}

// BuildAnyProp builds the ER form's AnyProp rows alone, one per live node
// over all M patterns: Θ(M·(N+E)) where the full form costs
// Θ(M·O·(N+E)). AnyProp and Observability read them.
func BuildAnyProp(n *circuit.Network, vals *sim.Values, pool *par.Pool) *CPM {
	start := time.Now()
	pool.Label("cpm.build", obs.PhaseCPMBuild)
	c := build(n, vals, 1, nil, pool)
	c.built(start)
	return c
}

// BuildER builds the ER form of the CPM (see the package doc) for the
// network's values under error state st: the AnyProp rows plus the
// per-output rows at the patterns st gets wrong, which ERTerms reads.
// The Engine refreshes it across accepts, keeping the previous state's
// rows too for DeltaERCorrection.
func BuildER(n *circuit.Network, vals *sim.Values, st *emetric.State, pool *par.Pool) *CPM {
	start := time.Now()
	pool.Label("cpm.build", obs.PhaseCPMBuild)
	c := build(n, vals, 1, nil, pool)
	c.cur = newWrongSlice(n, vals, st, nil, pool)
	c.built(start)
	return c
}

// newWrongSlice builds the per-output rows at the patterns st gets wrong,
// folding them over the pool under its current label, in the row storage
// of spare, a slice nothing reads any more, when it is not nil.
func newWrongSlice(n *circuit.Network, vals *sim.Values, st *emetric.State, spare *wrongSlice, pool *par.Pool) *wrongSlice {
	sel := st.WrongAny.WordsSlice()
	s := &wrongSlice{wa: st.WrongAny, base: make([]int32, len(sel)+1)}
	k := 0
	for w, x := range sel {
		s.base[w] = int32(k)
		k += bits.OnesCount64(x)
	}
	s.base[len(sel)] = int32(k)
	if k == 0 {
		return s
	}
	words := bitvec.Words(k)
	flat := make([]uint64, st.W.Rows()*words)
	s.w = make([][]uint64, st.W.Rows())
	for o := range s.w {
		s.w[o] = flat[o*words : (o+1)*words : (o+1)*words]
		bitvec.Compact(s.w[o], st.W.Row(o).WordsSlice(), sel)
	}
	var rows *CPM
	if spare != nil {
		rows = spare.rows
	}
	s.rows = build(n, vals.Compact(st.WrongAny), n.NumOutputs(), rows, pool)
	return s
}

// refreshER is Refresh for the ER form, after the engine moved to error
// state st: the AnyProp rows are refreshed over the edit's dirty closure,
// the slice built for the previous state (cur until now) becomes prev and
// is brought up to date over the same closure, on its compacted value
// table recompacted where values changed, and cur is built afresh for st.
// When the edit changed no output, st has the previous state's WrongAny
// and W, and the refreshed slice serves as cur too.
//
// The rows it reports changed are those whose AnyProp row changed or
// whose per-output rows changed at a pattern the previous state gets
// wrong. For every other row both hold, which is what a carried ER sum
// needs (see DeltaERCorrection): at the patterns right under both states
// only AnyProp counts; at those wrong under both, the per-output rows;
// and at those wrong under the previous state only, the correction reads
// the previous state's term with the refreshed rows, so they must match
// the rows the sum was taken with there too.
func (c *CPM) refreshER(ed Edit, changed []circuit.NodeID, st *emetric.State, pool *par.Pool) RefreshStats {
	start := time.Now()
	flags, dirty := refreshClosure(c.net, ed, changed)
	pool.Label("cpm.refresh", obs.PhaseCPMBuild)
	c.refreshRows(ed, flags, dirty, pool)
	s, spare := c.cur, c.prev
	if spare == s {
		spare = nil
	}
	if s.rows != nil {
		ids := make([]circuit.NodeID, 0, len(changed)+len(ed.Added)+len(ed.Removed))
		ids = append(append(append(ids, changed...), ed.Added...), ed.Removed...)
		s.rows.vals.Recompact(c.vals, s.wa, ids)
		s.rows.refreshRows(ed, flags, dirty, pool)
	}
	c.prev, c.cur = s, s
	if st.WrongAny != s.wa {
		c.cur = newWrongSlice(c.net, c.vals, st, spare, pool)
	}
	return c.refreshed(start, flags, dirty)
}

// slice returns the ER form's slice for st, which must be the error state
// the CPM was last built or refreshed for, or the one before it.
func (c *CPM) slice(st *emetric.State) *wrongSlice {
	for _, s := range [2]*wrongSlice{c.cur, c.prev} {
		if s != nil && s.wa == st.WrongAny {
			return s
		}
	}
	panic("core: no ER-form CPM rows for this error state")
}

// exactWords sets buf to the words of the slice covering positions
// [k0, k1), from word k0/64 on, of the mask "a flip at nx reaches exactly
// the outputs the state gets wrong", and returns it.
func (s *wrongSlice) exactWords(nx circuit.NodeID, k0, k1 int, buf []uint64) []uint64 {
	if k0 >= k1 {
		return buf[:0]
	}
	q0, q1 := k0/bitvec.WordBits, bitvec.Words(k1)
	if cap(buf) < q1-q0 {
		buf = make([]uint64, q1-q0) //als:alloc-ok amortised grow, capped at the slice's words
	}
	buf = buf[:q1-q0]
	for j := range buf {
		buf[j] = ^uint64(0)
	}
	for o, pv := range s.rows.p[nx] {
		pw, ww := pv.WordsSlice()[q0:q1], s.w[o][q0:q1]
		var left uint64
		for j := range buf {
			buf[j] &^= pw[j] ^ ww[j]
			left |= buf[j]
		}
		if left == 0 {
			break
		}
	}
	return buf
}

// at places the bits of ex, exactWords' words from word q0 on, at the
// wrong patterns of word w: bit i of the result is the bit of pattern
// 64·w+i's slice position, for every pattern the state gets wrong there.
func (s *wrongSlice) at(ex []uint64, q0, w int) uint64 {
	k := int(s.base[w]) - q0*bitvec.WordBits
	var out uint64
	for x := s.wa.WordsSlice()[w]; x != 0; x &= x - 1 {
		if ex[k/bitvec.WordBits]>>(uint(k)%bitvec.WordBits)&1 != 0 {
			out |= x & -x
		}
		k++
	}
	return out
}

// DeltaERCorrection returns how much the net count inc − dec of a flip at
// nx (ERTerms.Net over every word) moves when the error state moves from
// prev to cur, for an ER-form CPM the Engine refreshed from prev to cur,
// provided the refresh did not report nx's row changed. mc[k] holds word
// ws[k] of the change mask restricted to D, the patterns whose output
// word differs between the two states. A pattern outside D has the same W
// column and WrongAny bit under both states, so its term is the same
// under both, and the count over D's words is the whole difference,
// exactly. D lies within the two states' wrong patterns, so the slices
// cover every per-output bit the difference reads. The query is not
// counted.
//
//als:allocfree
func (c *CPM) DeltaERCorrection(nx circuit.NodeID, mc []uint64, ws []int32, cur, prev *emetric.State) int64 {
	ap := c.p[nx][0].WordsSlice()
	sc, sp := c.slice(cur), c.slice(prev)
	var net int64
	for k, w := range ws {
		if cw := mc[k]; cw != 0 {
			net += sc.erWord(nx, cw, int(w), ap) - sp.erWord(nx, cw, int(w), ap)
		}
	}
	return net
}

// erWord is Algorithm 1 on word w of a change mask cw under the slice's
// state: the patterns that become wrong (all outputs right before, the
// flip reaches one: ap) minus those that become right (the flip reaches
// exactly the wrong outputs), as ERTerms counts them.
func (s *wrongSlice) erWord(nx circuit.NodeID, cw uint64, w int, ap []uint64) int64 {
	wa := s.wa.WordsSlice()[w]
	net := int64(bits.OnesCount64(cw &^ wa & ap[w]))
	d := cw & wa
	if d == 0 {
		return net
	}
	row := s.rows.p[nx]
	for ; d != 0; d &= d - 1 {
		b := d & -d
		k := int(s.base[w]) + bits.OnesCount64(wa&(b-1))
		q, bit := k/bitvec.WordBits, uint64(1)<<(uint(k)%bitvec.WordBits)
		exact := true
		for o, pv := range row {
			if (pv.WordsSlice()[q]^s.w[o][q])&bit != 0 {
				exact = false
				break
			}
		}
		if exact {
			net--
		}
	}
	return net
}

// CheckRebuild holds the CPM to a build from scratch of the network and
// values it now reflects: every live node's rows must equal a fresh
// build's in the same form. The ER form is also held to a full build: its
// AnyProp rows to the OR of the per-output rows, and each slice's
// compacted values and rows to the full values and rows at the slice's
// patterns. It returns the first divergence. A cross-check for tests: it
// costs a full build.
func (c *CPM) CheckRebuild(pool *par.Pool) error {
	n := c.net
	full := BuildParallel(n, c.vals, pool)
	fresh := full
	if c.planes != c.o {
		fresh = BuildAnyProp(n, c.vals, pool)
	}
	for _, id := range n.LiveNodes() {
		row, want := c.p[id], fresh.p[id]
		if len(row) != len(want) {
			return fmt.Errorf("core: node %d has %d CPM rows, a fresh build %d", id, len(row), len(want))
		}
		for o, pv := range row {
			if !pv.Equal(want[o]) {
				return fmt.Errorf("core: CPM row %d of node %d diverges from a fresh build", o, id)
			}
		}
		if !c.AnyProp(id).Equal(full.AnyProp(id)) {
			return fmt.Errorf("core: AnyProp(%d) diverges from the OR of a full build's rows", id)
		}
	}
	for _, s := range [2]*wrongSlice{c.cur, c.prev} {
		if s == nil || s.rows == nil {
			continue
		}
		sel := s.wa.WordsSlice()
		vals := c.vals.Compact(s.wa)
		rows := build(n, vals, c.o, nil, pool)
		want := bitvec.New(vals.M)
		for _, id := range n.LiveNodes() {
			if !s.rows.vals.Node(id).Equal(vals.Node(id)) {
				return fmt.Errorf("core: compacted value of node %d diverges at the wrong patterns", id)
			}
			for o := 0; o < c.o; o++ {
				got := s.rows.p[id][o]
				bitvec.Compact(want.WordsSlice(), full.p[id][o].WordsSlice(), sel)
				if !got.Equal(rows.p[id][o]) || !got.Equal(want) {
					return fmt.Errorf("core: CPM row %d of node %d at the wrong patterns diverges from a fresh build", o, id)
				}
			}
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math/bits"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
)

// AEMTerms is one worker's term table for scoring ΔAEM candidates target
// by target (Section 4.3). A flip at target nx under pattern i turns the
// approximate output word V_i into V_i ⊕ F_i, where F_i, nx's packed CPM
// column, holds the outputs the flip reaches. F_i depends on nx and i
// only: a candidate's substitute decides whether pattern i flips, not
// what the flip does. So every candidate of one target shares the terms
//
//	t[i] = |V_i ⊕ F_i − U_i| − |V_i − U_i|
//
// and its unnormalised ΔAEM is Σ t[i] over its change mask. Full builds
// the table once per target and Sum adds it up per candidate, where
// DeltaAEM reconstructs the output word per candidate and pattern.
//
// The terms are DeltaAEM's, integers held in float64 and summed in
// ascending pattern order, so Sum / M is DeltaAEM's result bit for bit,
// and a float sum cannot wrap: with 63 outputs a term reaches 2^62, and
// an int64 sum of M of them could. Sums below 2^53 are exact integers,
// whatever order they are combined in.
//
// The zero value is ready to use. The CPM and the error state are read
// only, so workers may share them, each with its own AEMTerms; every
// call requires EnsureAEMColumns(st) first, from one goroutine.
type AEMTerms struct {
	col  []uint64  // F_i at the patterns last built
	term []float64 // t[i], or Correction's difference, at those patterns
	// reach is the patterns under which Full's target's flip reaches some
	// output (F_i ≠ 0), per word: t[i] = 0 outside them. It is computed
	// here rather than read from CPM.AnyProp, whose cache would allocate a
	// vector per target and refresh.
	reach []uint64
	ws    []int32  // Correction's words
	mask  []uint64 // Correction's patterns in each of its words
}

// ready checks st against the CPM's column cache and sizes the tables.
func (a *AEMTerms) ready(c *CPM, st *emetric.State) {
	if c.aemFor != st {
		panic(fmt.Sprintf("core: AEMTerms for state %p without EnsureAEMColumns", st))
	}
	words := bitvec.Words(c.m)
	if len(a.col) < words*bitvec.WordBits {
		a.col = make([]uint64, words*bitvec.WordBits)
		a.term = make([]float64, words*bitvec.WordBits)
		a.reach = make([]uint64, words)
	}
	a.reach = a.reach[:words]
}

// column sets col[i] to F_i for every pattern i of mask[k] in word ws[k]
// (every word when ws is nil), scanning each output row's set bits there.
func (a *AEMTerms) column(c *CPM, nx circuit.NodeID, ws []int32, mask []uint64) {
	col := a.col
	for k, x := range mask {
		w := k
		if ws != nil {
			w = int(ws[k])
		}
		for ; x != 0; x &= x - 1 {
			col[w*bitvec.WordBits+bits.TrailingZeros64(x)] = 0
		}
	}
	for o, pv := range c.p[nx] {
		bit := uint64(1) << uint(o)
		pw := pv.WordsSlice()
		for k, x := range mask {
			w := k
			if ws != nil {
				w = int(ws[k])
			}
			base := w * bitvec.WordBits
			for x &= pw[w]; x != 0; x &= x - 1 {
				col[base+bits.TrailingZeros64(x)] |= bit
			}
		}
	}
}

// Full builds nx's term table under st over every pattern: F by scanning
// the output rows' set bits, then t wherever the flip reaches an output
// (elsewhere t is 0 and Sum skips it).
//
//als:allocfree
func (a *AEMTerms) Full(c *CPM, nx circuit.NodeID, st *emetric.State) {
	a.ready(c, st)
	reach := a.reach
	clear(reach)
	for _, pv := range c.p[nx] {
		for w, x := range pv.WordsSlice() {
			reach[w] |= x
		}
	}
	a.column(c, nx, nil, reach)
	col, term := a.col, a.term
	for w, x := range reach {
		for ; x != 0; x &= x - 1 {
			i := w*bitvec.WordBits + bits.TrailingZeros64(x)
			term[i] = aemTerm(c.aemV[i], col[i], c.aemU[i])
		}
	}
}

// Sum returns Σ t[i] over the set bits of the change mask chg (all its
// words; bits beyond M must be zero) for the table Full built last: the
// candidate's unnormalised ΔAEM. The query is not counted; see
// CountPartialQueries.
//
//als:allocfree
func (a *AEMTerms) Sum(chg []uint64) float64 {
	term, reach := a.term, a.reach
	chg = chg[:len(reach)]
	var s float64
	for w, x := range reach {
		tw := (*[bitvec.WordBits]float64)(term[w*bitvec.WordBits:])
		for x &= chg[w]; x != 0; x &= x - 1 {
			s += tw[bits.TrailingZeros64(x)&(bitvec.WordBits-1)]
		}
	}
	return s
}

// Correction builds, at the patterns of um (um[k] holds word ws[k]), how
// much nx's terms move when the error state moves from the previous one
// to st: t under st minus t under the previous state, whose packed output
// word at each of those patterns prevV holds (U is shared). The
// difference is what a sum Full built under the previous state gains
// under st, provided nx's CPM row is the same under both; at a pattern
// whose output word is the same under both it is zero, so um need only
// cover the patterns whose word changed. The table Full built is
// overwritten there.
//
//als:allocfree
func (a *AEMTerms) Correction(c *CPM, nx circuit.NodeID, st *emetric.State, prevV []uint64, ws []int32, um []uint64) {
	a.ready(c, st)
	if cap(a.mask) < len(ws) {
		a.mask = make([]uint64, len(ws)) //als:alloc-ok amortised grow, capped at the word count
	}
	a.ws, a.mask = ws, a.mask[:len(ws)]
	row := c.p[nx]
	for k, w := range ws {
		var reach uint64
		for _, pv := range row {
			reach |= pv.WordsSlice()[w]
		}
		a.mask[k] = um[k] & reach
	}
	a.column(c, nx, ws, a.mask)
	col, term := a.col, a.term
	for k, w := range ws {
		for x := a.mask[k]; x != 0; x &= x - 1 {
			i := int(w)*bitvec.WordBits + bits.TrailingZeros64(x)
			f, u := col[i], c.aemU[i]
			term[i] = aemTerm(c.aemV[i], f, u) - aemTerm(prevV[i], f, u)
		}
	}
}

// SumAt returns the correction of one candidate of the target Correction
// last built: Σ of the difference over mc, its change mask restricted to
// Correction's patterns (mc[k] holds word ws[k]). The query is not
// counted.
//
//als:allocfree
func (a *AEMTerms) SumAt(mc []uint64) float64 {
	term, ws, mask := a.term, a.ws, a.mask
	mc = mc[:len(ws)]
	var s float64
	for k, w := range ws {
		tw := (*[bitvec.WordBits]float64)(term[int(w)*bitvec.WordBits:])
		for x := mc[k] & mask[k]; x != 0; x &= x - 1 {
			s += tw[bits.TrailingZeros64(x)&(bitvec.WordBits-1)]
		}
	}
	return s
}

// aemTerm is one pattern's ΔAEM term for the output word v, the flip f
// and the golden word u, as DeltaAEM computes it.
func aemTerm(v, f, u uint64) float64 {
	return float64(absSub(v^f, u)) - float64(absSub(v, u))
}

// absSub is |a − b| for words below 2^63, without a branch: which operand
// is larger is as good as random, so absDiff's branch mispredicts half the
// time in a table build.
func absSub(a, b uint64) int64 {
	d := int64(a - b)
	s := d >> 63
	return (d ^ s) - s
}

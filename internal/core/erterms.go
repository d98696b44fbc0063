package core

import (
	"math/bits"

	"batchals/internal/circuit"
	"batchals/internal/emetric"
)

// ERTerms is one worker's pair of Algorithm 1 masks for scoring ΔER
// candidates target by target, over one word range of the pattern space.
// A flip at target nx under pattern i makes the pattern newly wrong when
// every output is right there (WrongAny_i = 0) and the flip reaches some
// output (AnyProp_i = 1), and corrects it when some output is wrong and
// the flip reaches exactly the wrong ones (P[nx][o]_i = W[o]_i for every
// o). Both conditions depend on nx and the error state only: a
// candidate's substitute decides whether pattern i flips, not what the
// flip does. So every candidate of one target shares the masks
//
//	newly wrong = AnyProp ∧ ¬WrongAny
//	corrected   = WrongAny ∧ ∀o P[nx][o] = W[o]
//
// and its net count is popcount(chg ∧ newly wrong) − popcount(chg ∧
// corrected). Build makes the masks once per target and Net counts them
// per candidate, where DeltaER walks the output rows per candidate.
//
// The counts are exact integers and both cases are word-local, so the
// nets of any word-aligned partition of the pattern space add up to
// DeltaER·M bit for bit. Neither mask has a bit beyond M (AnyProp and
// WrongAny have none), so a change word needs no tail mask.
//
// The zero value is ready to use. The CPM and the error state are read
// only, so workers may share them, each with its own ERTerms.
type ERTerms struct {
	w0, w1    int
	nw, fixed []uint64 // the masks at words w0..w1−1, from index 0
}

// Build makes nx's masks under st over the words [w0, w1). Safe to call
// from concurrent workers (AnyProp faults in atomically).
//
//als:allocfree
func (e *ERTerms) Build(c *CPM, nx circuit.NodeID, st *emetric.State, w0, w1 int) {
	if n := w1 - w0; cap(e.nw) < n {
		e.nw = make([]uint64, n)    //als:alloc-ok amortised grow, capped at the word count
		e.fixed = make([]uint64, n) //als:alloc-ok amortised grow, capped at the word count
	}
	e.w0, e.w1 = w0, w1
	e.nw, e.fixed = e.nw[:w1-w0], e.fixed[:w1-w0]
	ap := c.AnyProp(nx).WordsSlice()
	wa := st.WrongAny.WordsSlice()
	row := c.p[nx]
	for w := w0; w < w1; w++ {
		e.nw[w-w0] = ap[w] &^ wa[w]
		d := wa[w]
		for o := 0; o < c.o && d != 0; o++ {
			d &^= row[o].WordsSlice()[w] ^ st.W.Row(o).WordsSlice()[w]
		}
		e.fixed[w-w0] = d
	}
}

// Net returns the net count, newly wrong minus corrected, of one
// candidate of the target Build made the masks for, over Build's words.
// The candidate's change word w is tw[w] ⊕ sw[w] ⊕ flip: tw the target's
// value words, sw the substitute's (nil for a constant) and flip all ones
// for an inverted substitute or constant 1, else zero. Pass the change
// mask itself as tw, with sw nil and flip zero, to count a given mask.
// The query is not counted; see CountPartialQueries.
//
//als:allocfree
func (e *ERTerms) Net(tw, sw []uint64, flip uint64) int {
	nw, fixed := e.nw, e.fixed
	tw = tw[e.w0:e.w1]
	fixed = fixed[:len(nw)]
	tw = tw[:len(nw)]
	net := 0
	if sw == nil {
		for w, t := range tw {
			x := t ^ flip
			net += bits.OnesCount64(x&nw[w]) - bits.OnesCount64(x&fixed[w])
		}
		return net
	}
	sw = sw[e.w0:e.w1]
	sw = sw[:len(nw)]
	for w, t := range tw {
		x := t ^ sw[w] ^ flip
		net += bits.OnesCount64(x&nw[w]) - bits.OnesCount64(x&fixed[w])
	}
	return net
}

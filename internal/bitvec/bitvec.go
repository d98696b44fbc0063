// Package bitvec provides packed bit vectors and bit matrices used by the
// bit-parallel logic simulator and the change propagation matrix (CPM).
//
// A Vec stores M bits in ceil(M/64) uint64 words. All bulk operations work
// whole words at a time, which is what gives the simulator and the batch
// error estimator their 64x pattern parallelism. Bits beyond the logical
// length are kept zero by every operation that could otherwise set them, so
// Count and iteration never see garbage tail bits.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordBits is the number of bits stored per machine word.
const WordBits = 64

// Vec is a packed vector of n bits. The zero value is an empty vector.
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits.
func New(n int) *Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vec{n: n, words: make([]uint64, Words(n))}
}

// Words returns the number of uint64 words needed to hold n bits.
func Words(n int) int {
	return (n + WordBits - 1) / WordBits
}

// TailMask returns the mask of valid bits in the final word of an n-bit
// vector: all ones when n is a multiple of WordBits, otherwise the low
// n%WordBits bits. Shard-parallel code uses it to keep tail bits zero when
// writing the last word through a raw WordsSlice.
func TailMask(n int) uint64 {
	if r := n % WordBits; r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	return ^uint64(0)
}

// AnyWords reports whether any bit is set in words [w0, w1) of the vector.
// It is the shard-local variant of Any used by the parallel CPM builder,
// whose workers must never read words owned by other shards.
func (v *Vec) AnyWords(w0, w1 int) bool {
	for _, w := range v.words[w0:w1] {
		if w != 0 {
			return true
		}
	}
	return false
}

// FromWords builds a vector of n bits backed by a copy of the given words.
// Tail bits beyond n are cleared.
func FromWords(n int, words []uint64) *Vec {
	if len(words) < Words(n) {
		panic("bitvec: too few words")
	}
	v := &Vec{n: n, words: append([]uint64(nil), words[:Words(n)]...)}
	v.maskTail()
	return v
}

// Len returns the number of bits in the vector.
func (v *Vec) Len() int { return v.n }

// WordsSlice exposes the backing words. The caller must not set bits beyond
// Len; use MaskTail after raw word writes.
func (v *Vec) WordsSlice() []uint64 { return v.words }

// maskTail clears bits at positions >= n in the last word.
func (v *Vec) maskTail() {
	if v.n%WordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << uint(v.n%WordBits)) - 1
	}
}

// MaskTail clears any bits beyond Len in the final word. It must be called
// after external code writes whole words via WordsSlice.
func (v *Vec) MaskTail() { v.maskTail() }

// Get reports whether bit i is set.
func (v *Vec) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, v.n))
	}
	return v.words[i/WordBits]>>(uint(i)%WordBits)&1 == 1
}

// Set sets bit i to b.
func (v *Vec) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i/WordBits] |= 1 << (uint(i) % WordBits)
	} else {
		v.words[i/WordBits] &^= 1 << (uint(i) % WordBits)
	}
}

// Flip inverts bit i.
func (v *Vec) Flip(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Flip(%d) out of range [0,%d)", i, v.n))
	}
	v.words[i/WordBits] ^= 1 << (uint(i) % WordBits)
}

// Clone returns a deep copy of v.
func (v *Vec) Clone() *Vec {
	return &Vec{n: v.n, words: append([]uint64(nil), v.words...)}
}

// CopyFrom copies the contents of o into v. Lengths must match.
func (v *Vec) CopyFrom(o *Vec) {
	v.checkSameLen(o)
	copy(v.words, o.words)
}

// Zero clears every bit.
func (v *Vec) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Fill sets every bit to one.
func (v *Vec) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
}

func (v *Vec) checkSameLen(o *Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// And sets v = a AND b and returns v. v may alias a or b.
func (v *Vec) And(a, b *Vec) *Vec {
	a.checkSameLen(b)
	v.checkSameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
	return v
}

// Or sets v = a OR b and returns v. v may alias a or b.
func (v *Vec) Or(a, b *Vec) *Vec {
	a.checkSameLen(b)
	v.checkSameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
	return v
}

// Xor sets v = a XOR b and returns v. v may alias a or b.
func (v *Vec) Xor(a, b *Vec) *Vec {
	a.checkSameLen(b)
	v.checkSameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i]
	}
	return v
}

// AndNot sets v = a AND NOT b and returns v. v may alias a or b.
func (v *Vec) AndNot(a, b *Vec) *Vec {
	a.checkSameLen(b)
	v.checkSameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
	return v
}

// Not sets v = NOT a (within the logical length) and returns v.
func (v *Vec) Not(a *Vec) *Vec {
	v.checkSameLen(a)
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.maskTail()
	return v
}

// Count returns the number of set bits.
func (v *Vec) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// XorCount returns the number of positions where a and b differ — the
// popcount of a XOR b — without materialising the XOR. Lengths must match.
func XorCount(a, b *Vec) int {
	a.checkSameLen(b)
	bw := b.words[:len(a.words)]
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w ^ bw[i])
	}
	return c
}

// Compact writes the bits of src at the positions set in sel, in
// ascending order, to dst from bit 0 and clears the rest of dst: a
// software PEXT over whole word slices. dst needs Words(k) words for the
// k bits sel sets; src needs len(sel) words.
func Compact(dst, src, sel []uint64) {
	clear(dst)
	k := 0
	for w, s := range sel {
		x := src[w]
		for ; s != 0; s &= s - 1 {
			if x&s&-s != 0 {
				dst[k/WordBits] |= 1 << (uint(k) % WordBits)
			}
			k++
		}
	}
}

// Any reports whether any bit is set.
func (v *Vec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether v and o hold identical bits. Vectors of different
// lengths are never equal.
func (v *Vec) Equal(o *Vec) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEachSet calls fn for each set bit index in ascending order. If fn
// returns false, iteration stops early.
func (v *Vec) ForEachSet(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*WordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (v *Vec) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / WordBits
	w := v.words[wi] >> (uint(i) % WordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*WordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// String renders the vector as a 0/1 string, bit 0 first. Long vectors are
// truncated with an ellipsis; it is intended for debugging and test output.
func (v *Vec) String() string {
	const max = 128
	var sb strings.Builder
	n := v.n
	trunc := false
	if n > max {
		n, trunc = max, true
	}
	for i := 0; i < n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&sb, "...(+%d)", v.n-max)
	}
	return sb.String()
}

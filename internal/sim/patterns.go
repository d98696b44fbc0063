// Package sim provides bit-parallel logic simulation over circuit networks:
// pattern-set generation (seeded uniform random, independently biased, or
// exhaustive enumeration), full-network simulation producing
// per-node value vectors, and incremental fanout-cone resimulation used by
// the full-simulation baseline estimator.
//
// All simulation is 64-way word-parallel: pattern i lives in bit i%64 of
// word i/64 of each node's value vector.
package sim

import (
	"fmt"
	"math/rand"

	"batchals/internal/bitvec"
)

// Patterns is a set of M input assignments for a fixed input count. Row k
// is the M-bit value vector of input k across all patterns.
type Patterns struct {
	numInputs int
	m         int
	rows      []*bitvec.Vec
}

// NumPatterns returns M, the number of patterns in the set.
func (p *Patterns) NumPatterns() int { return p.m }

// NumInputs returns the number of inputs each pattern assigns.
func (p *Patterns) NumInputs() int { return p.numInputs }

// InputRow returns the M-bit value vector of input k. Shared, not copied.
func (p *Patterns) InputRow(k int) *bitvec.Vec { return p.rows[k] }

// Bit reports the value of input k under pattern i.
func (p *Patterns) Bit(i, k int) bool { return p.rows[k].Get(i) }

// SetBit sets the value of input k under pattern i.
func (p *Patterns) SetBit(i, k int, v bool) { p.rows[k].Set(i, v) }

// NewPatterns returns an all-zero pattern set of m patterns over numInputs
// inputs.
func NewPatterns(numInputs, m int) *Patterns {
	p := &Patterns{numInputs: numInputs, m: m, rows: make([]*bitvec.Vec, numInputs)}
	for k := range p.rows {
		p.rows[k] = bitvec.New(m)
	}
	return p
}

// RandomPatterns draws m patterns with every input bit i.i.d. uniform,
// using the given seed. The same seed always yields the same set, which is
// what lets the ALS flow reuse one pattern set across all its iterations
// (Section 4.3 of the paper).
func RandomPatterns(numInputs, m int, seed int64) *Patterns {
	r := rand.New(rand.NewSource(seed))
	p := NewPatterns(numInputs, m)
	for k := 0; k < numInputs; k++ {
		words := p.rows[k].WordsSlice()
		for w := range words {
			words[w] = r.Uint64()
		}
		p.rows[k].MaskTail()
	}
	return p
}

// ExhaustivePatterns enumerates all 2^numInputs assignments. It panics for
// numInputs > 26 (67M patterns) to avoid accidental memory blow-ups.
func ExhaustivePatterns(numInputs int) *Patterns {
	if numInputs > 26 {
		panic(fmt.Sprintf("sim: exhaustive enumeration of %d inputs is infeasible", numInputs))
	}
	m := 1 << uint(numInputs)
	p := NewPatterns(numInputs, m)
	for k := 0; k < numInputs; k++ {
		words := p.rows[k].WordsSlice()
		if k < 6 {
			// Within a word: input k alternates in blocks of 2^k bits.
			var w uint64
			block := uint(1) << uint(k)
			for bit := uint(0); bit < 64; bit++ {
				if bit/block%2 == 1 {
					w |= 1 << bit
				}
			}
			for i := range words {
				words[i] = w
			}
		} else {
			// Across words: word j has input k = bit (k-6) of j.
			for j := range words {
				if j>>(uint(k)-6)&1 == 1 {
					words[j] = ^uint64(0)
				}
			}
		}
		p.rows[k].MaskTail()
	}
	return p
}

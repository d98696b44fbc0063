// Matrix support: a dense matrix of bit vectors, used for the W (wrong
// output), V (approximate output value) and U (golden output value)
// matrices of the batch estimator, each holding one M-bit row per output.
package bitvec

import "fmt"

// Matrix is a rows x bits matrix of packed bit vectors. Row r is an M-bit
// vector; the CPM code uses one row per primary output (or per node).
type Matrix struct {
	rows int
	bits int
	vecs []*Vec
}

// NewMatrix returns a zeroed rows x bits matrix.
func NewMatrix(rows, bits int) *Matrix {
	if rows < 0 {
		panic("bitvec: negative row count")
	}
	m := &Matrix{rows: rows, bits: bits, vecs: make([]*Vec, rows)}
	for i := range m.vecs {
		m.vecs[i] = New(bits)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Bits returns the number of bits per row.
func (m *Matrix) Bits() int { return m.bits }

// Row returns row r. The returned vector is shared, not copied.
func (m *Matrix) Row(r int) *Vec {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitvec: Row(%d) out of range [0,%d)", r, m.rows))
	}
	return m.vecs[r]
}

// ShareRows returns a matrix whose rows are m's row vectors, shared, not
// copied: writes through either matrix's rows show in both, while SetRow
// on one leaves the other alone.
func (m *Matrix) ShareRows() *Matrix {
	return &Matrix{rows: m.rows, bits: m.bits, vecs: append([]*Vec(nil), m.vecs...)}
}

// SetRow replaces row r by v, which must hold the matrix's bit count; v is
// shared, not copied.
func (m *Matrix) SetRow(r int, v *Vec) {
	if v.Len() != m.bits {
		panic(fmt.Sprintf("bitvec: SetRow of %d bits into a %d-bit matrix", v.Len(), m.bits))
	}
	m.Row(r)
	m.vecs[r] = v
}

// Get reports bit c of row r.
func (m *Matrix) Get(r, c int) bool { return m.Row(r).Get(c) }

// Set sets bit c of row r.
func (m *Matrix) Set(r, c int, b bool) { m.Row(r).Set(c, b) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, bits: m.bits, vecs: make([]*Vec, m.rows)}
	for i, v := range m.vecs {
		c.vecs[i] = v.Clone()
	}
	return c
}

// Column extracts column c across the first 64 rows (or fewer) as a uint64,
// with row r contributing bit r. It is used to reconstruct per-pattern
// output words when computing error magnitudes.
func (m *Matrix) Column(c int) uint64 {
	if m.rows > 64 {
		panic("bitvec: Column requires <= 64 rows")
	}
	var w uint64
	for r := 0; r < m.rows; r++ {
		if m.vecs[r].Get(c) {
			w |= 1 << uint(r)
		}
	}
	return w
}

// OrAll returns the OR of all rows as a fresh vector: bit i is set if any
// row has bit i set. For the W matrix this is the "some output wrong under
// pattern i" mask from Algorithm 1.
func (m *Matrix) OrAll() *Vec {
	out := New(m.bits)
	for _, v := range m.vecs {
		out.Or(out, v)
	}
	return out
}

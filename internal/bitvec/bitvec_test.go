package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len=%d want %d", v.Len(), n)
		}
		if v.Count() != 0 {
			t.Fatalf("n=%d: fresh vector has %d set bits", n, v.Count())
		}
		if v.Any() {
			t.Fatalf("n=%d: fresh vector reports Any", n)
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Fatalf("Count=%d want %d", v.Count(), len(idx))
	}
	for _, i := range idx {
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after flip", i)
		}
	}
	if v.Any() {
		t.Fatal("Any after clearing all")
	}
}

func TestFillRespectsLength(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 129} {
		v := New(n)
		v.Fill()
		if v.Count() != n {
			t.Fatalf("n=%d: Fill produced %d set bits", n, v.Count())
		}
	}
}

func TestNotRespectsTail(t *testing.T) {
	v := New(70)
	v.Set(3, true)
	w := New(70)
	w.Not(v)
	if w.Count() != 69 {
		t.Fatalf("Not count=%d want 69", w.Count())
	}
	if w.Get(3) {
		t.Fatal("bit 3 should be clear after Not")
	}
}

func randVec(r *rand.Rand, n int) *Vec {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestDeMorganProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		a, b := randVec(r, n), randVec(r, n)
		// not(a and b) == not(a) or not(b)
		lhs := New(n).Not(New(n).And(a, b))
		rhs := New(n).Or(New(n).Not(a), New(n).Not(b))
		if !lhs.Equal(rhs) {
			t.Fatalf("De Morgan violated at n=%d", n)
		}
	}
}

func TestXorSelfInverseProperty(t *testing.T) {
	f := func(words []uint64, seed int64) bool {
		n := len(words) * 64
		if n == 0 {
			return true
		}
		a := FromWords(n, words)
		r := rand.New(rand.NewSource(seed))
		b := randVec(r, n)
		c := New(n).Xor(a, b)
		c.Xor(c, b)
		return c.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountAdditiveUnderDisjointOr(t *testing.T) {
	f := func(words []uint64) bool {
		n := len(words) * 64
		if n == 0 {
			return true
		}
		a := FromWords(n, words)
		na := New(n).Not(a)
		or := New(n).Or(a, na)
		return a.Count()+na.Count() == n && or.Count() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestXorCountMatchesXorThenCount pins the fused kernel against the
// two-step Xor + Count it replaces, including tail lengths that are not
// a multiple of the word size.
func TestXorCountMatchesXorThenCount(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(400)
		a, b := randVec(r, n), randVec(r, n)
		if got, want := XorCount(a, b), New(n).Xor(a, b).Count(); got != want {
			t.Fatalf("n=%d: XorCount = %d, Xor+Count = %d", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	XorCount(New(3), New(4))
}

func TestAndNot(t *testing.T) {
	a := New(10)
	b := New(10)
	a.Fill()
	b.Set(2, true)
	b.Set(7, true)
	c := New(10).AndNot(a, b)
	if c.Count() != 8 || c.Get(2) || c.Get(7) {
		t.Fatalf("AndNot wrong: %v", c)
	}
}

func TestForEachSetOrderAndEarlyStop(t *testing.T) {
	v := New(200)
	want := []int{0, 5, 63, 64, 100, 199}
	for _, i := range want {
		v.Set(i, true)
	}
	var got []int
	v.ForEachSet(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	var count int
	v.ForEachSet(func(i int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed, count=%d", count)
	}
}

func TestNextSet(t *testing.T) {
	v := New(150)
	v.Set(10, true)
	v.Set(64, true)
	v.Set(149, true)
	cases := []struct{ from, want int }{
		{0, 10}, {10, 10}, {11, 64}, {64, 64}, {65, 149}, {149, 149}, {150, -1}, {-5, 10},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d)=%d want %d", c.from, got, c.want)
		}
	}
	if New(80).NextSet(0) != -1 {
		t.Fatal("NextSet on empty vector should be -1")
	}
}

func TestNextSetMatchesForEachSet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(400)
		v := randVec(r, n)
		var viaIter []int
		v.ForEachSet(func(i int) bool { viaIter = append(viaIter, i); return true })
		var viaNext []int
		for i := v.NextSet(0); i != -1; i = v.NextSet(i + 1) {
			viaNext = append(viaNext, i)
		}
		if len(viaIter) != len(viaNext) {
			t.Fatalf("iteration mismatch: %d vs %d", len(viaIter), len(viaNext))
		}
		for i := range viaIter {
			if viaIter[i] != viaNext[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
	}
}

func TestFromWordsClearsTail(t *testing.T) {
	v := FromWords(3, []uint64{^uint64(0)})
	if v.Count() != 3 {
		t.Fatalf("Count=%d want 3", v.Count())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(66)
	a.Set(65, true)
	b := a.Clone()
	b.Set(0, true)
	if a.Get(0) {
		t.Fatal("clone aliases original")
	}
	if !b.Get(65) {
		t.Fatal("clone lost bit")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(66)
	a.Set(65, true)
	b := New(66)
	b.CopyFrom(a)
	if !b.Get(65) || b.Count() != 1 {
		t.Fatal("CopyFrom wrong")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(3).And(New(3), New(4))
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Get")
		}
	}()
	New(3).Get(3)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4, 100)
	m.Set(2, 50, true)
	if !m.Get(2, 50) || m.Get(1, 50) {
		t.Fatal("matrix set/get wrong")
	}
	if m.Rows() != 4 || m.Bits() != 100 {
		t.Fatal("dims wrong")
	}
	c := m.Clone()
	c.Set(0, 0, true)
	if m.Get(0, 0) {
		t.Fatal("matrix clone aliases")
	}
}

func TestMatrixColumn(t *testing.T) {
	m := NewMatrix(8, 3)
	// pattern 1 output word should read 0b10100101 = 0xA5
	for _, r := range []int{0, 2, 5, 7} {
		m.Set(r, 1, true)
	}
	if got := m.Column(1); got != 0xA5 {
		t.Fatalf("Column=%#x want 0xa5", got)
	}
	if got := m.Column(0); got != 0 {
		t.Fatalf("Column(0)=%#x want 0", got)
	}
}

func TestMatrixOrAll(t *testing.T) {
	m := NewMatrix(3, 10)
	m.Set(0, 1, true)
	m.Set(1, 5, true)
	m.Set(2, 5, true)
	or := m.OrAll()
	if or.Count() != 2 || !or.Get(1) || !or.Get(5) {
		t.Fatalf("OrAll wrong: %v", or)
	}
}

func BenchmarkAnd4096(b *testing.B) {
	a := New(4096)
	a.Fill()
	c := New(4096)
	c.Fill()
	out := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.And(a, c)
	}
}

func BenchmarkCount65536(b *testing.B) {
	v := New(65536)
	v.Fill()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Count()
	}
}

package bitvec

import "testing"

func TestArenaVectorsBehaveLikeNew(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		a := NewArena(n, 3) // tiny chunk to force slab turnover
		vs := make([]*Vec, 10)
		for i := range vs {
			vs[i] = a.New()
			if vs[i].Len() != n {
				t.Fatalf("n=%d: Len=%d", n, vs[i].Len())
			}
			if vs[i].Count() != 0 {
				t.Fatalf("n=%d: fresh vector not zeroed", n)
			}
		}
		// Writing one vector must not disturb any other, including across
		// slab boundaries and after the slab the early vectors came from
		// was abandoned.
		for i, v := range vs {
			if n > 0 {
				v.Set(i%n, true)
			}
		}
		for i, v := range vs {
			want := 0
			if n > 0 {
				want = 1
			}
			if got := v.Count(); got != want {
				t.Fatalf("n=%d: vec %d count=%d want %d (cross-vector bleed)", n, i, got, want)
			}
			if n > 0 && !v.Get(i%n) {
				t.Fatalf("n=%d: vec %d lost its bit", n, i)
			}
		}
	}
}

func TestArenaMatchesNewSemantics(t *testing.T) {
	a := NewArena(130, 0)
	u, v := a.New(), a.New()
	ref := New(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		u.Set(i, true)
		ref.Set(i, true)
	}
	if !u.Equal(ref) {
		t.Fatal("arena vector diverges from New vector under Set")
	}
	v.Not(u)
	refNot := New(130)
	refNot.Not(ref)
	if !v.Equal(refNot) {
		t.Fatal("arena vector diverges under Not (tail masking)")
	}
}

func TestArenaAllocationCount(t *testing.T) {
	// One exactly-sized slab: the whole build should cost ~3 allocations
	// (arena struct + vec slab + word slab) regardless of vector count.
	const vectors = 500
	allocs := testing.AllocsPerRun(5, func() {
		a := NewArena(256, vectors)
		for i := 0; i < vectors; i++ {
			_ = a.New()
		}
	})
	if allocs > 4 {
		t.Fatalf("arena build allocates %.0f times for %d vectors, want <= 4", allocs, vectors)
	}
}

// TestArenaResetReusesSlab pins Reset: vectors handed out after it have
// the new length, start zeroed and are independent, and the slab is
// reused while the new length fits it.
func TestArenaResetReusesSlab(t *testing.T) {
	a := NewArena(200, 4)
	for i := 0; i < 4; i++ {
		a.New().Fill()
	}
	for _, n := range []int{130, 64, 200, 1} {
		a.Reset(n)
		var vs []*Vec
		allocs := testing.AllocsPerRun(1, func() {
			vs = vs[:0]
			a.Reset(n)
			for i := 0; i < 4; i++ {
				vs = append(vs, a.New())
			}
		})
		if allocs > 1 { // vs's first growth
			t.Fatalf("n=%d: Reset then New allocated %.0f times on a slab that fits", n, allocs)
		}
		for i, v := range vs {
			if v.Len() != n || v.Count() != 0 {
				t.Fatalf("n=%d: vec %d has Len %d and %d bits set", n, i, v.Len(), v.Count())
			}
			v.Fill()
		}
		for i, v := range vs {
			if v.Count() != n {
				t.Fatalf("n=%d: vec %d count %d after its neighbours filled", n, i, v.Count())
			}
		}
	}
	a.Reset(300) // past the slab: a fresh one
	if v := a.New(); v.Len() != 300 || v.Count() != 0 {
		t.Fatal("vector past a dropped slab is not a fresh 300-bit zero vector")
	}
}

package bitvec

// Arena hands out zeroed n-bit vectors backed by shared slabs, replacing
// per-vector make calls in construction-heavy paths (one CPM build
// allocates a Vec per (node, output) pair — tens of thousands of small
// objects that the timeline profiler attributes to the serial tail).
// Each chunk is two allocations — a []Vec header slab and one contiguous
// []uint64 word slab — so a build costs O(1) allocations instead of
// O(nodes×outputs).
//
// Vectors from an arena remain valid for as long as they are referenced:
// exhausted slabs are abandoned to the garbage collector, never recycled,
// so New never invalidates earlier handles. An Arena is single-goroutine;
// parallel builders allocate driver-side before the fan-out.
type Arena struct {
	n     int // bits per vector
	w     int // words per vector
	chunk int // vectors per slab
	vecs  []Vec
	words []uint64
	used  int // vectors handed out from the current slab
}

// NewArena returns an arena producing n-bit vectors. chunk sets the slab
// granularity in vectors; chunk <= 0 selects a default sized so a slab is
// a few hundred KiB for typical pattern counts. Callers that know the
// total vector count up front pass it as chunk so the build is exactly
// one slab.
func NewArena(n, chunk int) *Arena {
	if n < 0 {
		panic("bitvec: negative length")
	}
	if chunk <= 0 {
		chunk = 1024
	}
	return &Arena{n: n, w: Words(n), chunk: chunk}
}

// Reset makes the arena hand out n-bit vectors again from the start of
// its current slab, for an owner that no longer reads any vector it
// handed out: those are overwritten. A slab too small for n-bit vectors
// is dropped for a fresh one on the next New.
func (a *Arena) Reset(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	a.n, a.w, a.used = n, Words(n), 0
	if len(a.words) < len(a.vecs)*a.w {
		a.vecs, a.words = nil, nil
	}
	clear(a.words)
}

// New returns a zeroed n-bit vector carved from the arena's current slab,
// growing a fresh slab when exhausted.
func (a *Arena) New() *Vec {
	if a.used >= len(a.vecs) {
		a.vecs = make([]Vec, a.chunk)
		a.words = make([]uint64, a.chunk*a.w)
		a.used = 0
	}
	v := &a.vecs[a.used]
	off := a.used * a.w
	// Full slice expression pins capacity so an append through the handle
	// can never bleed into the neighbouring vector's words.
	v.n = a.n
	v.words = a.words[off : off+a.w : off+a.w]
	a.used++
	return v
}

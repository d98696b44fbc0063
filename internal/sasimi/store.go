package sasimi

import (
	"cmp"
	"slices"
	"sort"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/sim"
)

// The candidate store. A monolithic candidate list holds about 0.08·N²
// candidates (the similarity cap admits about 8% of all pairs), so the
// bytes a candidate costs decide how large a network a flow can take. The
// store keeps the list as per-target segments of 8-byte records:
//
//   - A segment header holds what every candidate of a target shares: the
//     target, its base gain (the area of its MFFC) and an exception list
//     for the substitutes that lie inside that MFFC, whose gain is the
//     MFFC's area with the substitute kept alive (pairGain).
//   - A record holds the substitute and the kind in one uint32 and the
//     DiffProb rank in another. Its gain is derived: the base gain, or
//     the exception's when the record's exception bit is set, minus the
//     inverter for an inverted pair. The gather stores nothing it could
//     not derive this way: that is pairGain's float expression, so the
//     derived gain is the gathered one bit for bit.
//   - The records live in pages of pageRecs records, the blocks the
//     gather's bins write, laid end to end: a full gather hands its bins'
//     pages to the store and copies nothing. A segment never crosses a
//     page, so a target whose records do continues in a second segment.
//
// The list order is identity order (target, then substitute, then kind;
// see recCompare), and a candidate's list position is its index in the
// records laid end to end: segments carry the position of their first
// record. The carried pattern sums are paged like the records (sumPages)
// and move with them when the gather cache updates the store (update).

// rec is a stored candidate in 8 bytes: sk packs the substitute, the
// exception bit and the kind (see mkRec), rank is the DiffProb rank 2d+s
// of the run's admission (see admission). Its target and gain live in its
// segment's header.
type rec struct {
	sk   uint32
	rank uint32
}

const (
	kindBits = 2
	// excBit marks a pair whose substitute lies in the target's MFFC:
	// its gain is the segment's exception for the substitute.
	excBit   = 1 << kindBits
	subShift = kindBits + 1
	// maxSlots bounds the node slots a network may have for sk to hold
	// every substitute.
	maxSlots = 1<<(32-subShift) - 1
)

// mkRec packs a record: sk is (sub+1)<<3 | exc<<2 | kind, with sub ==
// InvalidNode for the constants. Within a target, sk order is identity
// order: the constants first (constant 1 before constant 0), then the
// pairs by substitute, plain before inverted. The exception bit depends
// on the substitute alone, so it never separates two kinds of one pair.
func mkRec(sub circuit.NodeID, kind candKind, exc bool, rank uint32) rec {
	sk := uint32(sub+1)<<subShift | uint32(kind)
	if exc {
		sk |= excBit
	}
	return rec{sk: sk, rank: rank}
}

func (r rec) kind() candKind      { return candKind(r.sk & (1<<kindBits - 1)) }
func (r rec) sub() circuit.NodeID { return circuit.NodeID(r.sk>>subShift) - 1 }
func (r rec) isConst() bool       { return r.kind() >= kindConst1 }

// excGain is a segment's exception: the gain of substituting the target
// by sub, a node of the target's MFFC.
type excGain struct {
	sub  circuit.NodeID
	gain float64
}

// segment is a run of one target's records on one page.
type segment struct {
	target circuit.NodeID
	page   int32 // the page holding recs
	off    int32 // recs[0]'s offset in its page
	pos    int32 // recs[0]'s list position
	// stale reports that the last update enumerated some of recs afresh:
	// their carried sums are staleSum. The scorer's carry pass reads only
	// such segments' sums when no correction is due.
	stale bool
	gain  float64   // base gain: the area of the target's MFFC
	exc   []excGain // the exceptions of the target's records, any order
	recs  []rec
}

func (sg *segment) end() int { return int(sg.pos) + len(sg.recs) }

// gainOf derives the area gain of record r of the segment.
func (sg *segment) gainOf(r rec, invArea float64) float64 {
	g := sg.gain
	if r.sk&excBit != 0 {
		g = excLookup(sg.exc, r.sub())
	}
	if r.kind() == kindInverted {
		g -= invArea
	}
	return g
}

func excLookup(exc []excGain, s circuit.NodeID) float64 {
	for _, e := range exc {
		if e.sub == s {
			return e.gain
		}
	}
	panic("sasimi: stored candidate has no exception gain for its substitute")
}

// choice is one candidate decoded from the store: its target, its record
// and its derived gain. Selection, verification and the accept step read
// it; nothing keeps one per candidate.
type choice struct {
	target circuit.NodeID
	rec
	gain float64
}

func (sg *segment) choice(j int, invArea float64) choice {
	r := sg.recs[j]
	return choice{target: sg.target, rec: r, gain: sg.gainOf(r, invArea)}
}

// substituteValue returns the value vector the target would take, reusing
// scratch for the inverted/constant cases.
func (c *choice) substituteValue(vals *sim.Values, scratch *bitvec.Vec) *bitvec.Vec {
	switch c.kind() {
	case kindConst0:
		scratch.Zero()
		return scratch
	case kindConst1:
		scratch.Zero()
		scratch.Fill()
		return scratch
	case kindInverted:
		scratch.Not(vals.Node(c.sub()))
		return scratch
	default:
		return vals.Node(c.sub())
	}
}

// candStore is a candidate list: its records in pages, described by
// segments in list order, and the batch scorer's carried pattern sums,
// paged like the records. The pages' lengths are the records on them;
// only the last page's capacity is ever grown into.
type candStore struct {
	pages   [][]rec
	segs    []segment
	n       int     // records
	invArea float64 // the inverter's area, which an inverted pair's gain pays
	er      sumPages[int32]
	aem     sumPages[float64]
}

// len returns the number of candidates.
func (st *candStore) len() int { return st.n }

// find returns the segment holding list position i and i's index in it.
func (st *candStore) find(i int) (*segment, int) {
	k := sort.Search(len(st.segs), func(k int) bool { return st.segs[k].end() > i })
	sg := &st.segs[k]
	return sg, i - int(sg.pos)
}

// at decodes the candidate at list position i.
func (st *candStore) at(i int) choice {
	sg, j := st.find(i)
	return sg.choice(j, st.invArea)
}

// adopt appends a full gather's bins to the store: their pages, and
// their segments with their page indices and positions made the store's.
func (st *candStore) adopt(bins []binBuf) {
	pages, segs := 0, 0
	for bi := range bins {
		pages += bins[bi].used
		segs += len(bins[bi].segs)
	}
	st.pages = slices.Grow(st.pages, pages)
	st.segs = slices.Grow(st.segs, segs)
	for bi := range bins {
		st.adoptBin(&bins[bi])
	}
}

func (st *candStore) adoptBin(b *binBuf) {
	base := int32(len(st.pages))
	for p := range b.used {
		page := b.pages[p]
		if p == b.used-1 {
			page = page[:b.fill]
		}
		st.pages = append(st.pages, page)
	}
	for _, sg := range b.segs {
		sg.page += base
		sg.pos = int32(st.n)
		st.n += len(sg.recs)
		st.segs = append(st.segs, sg)
	}
}

// sumPages is one metric's carried pattern sums, paged like the store's
// records: pages[p][k] is the sum of the record at pages[p][k].
type sumPages[T patternSum] struct {
	pages [][]T
	// valid reports that pages holds a sum for every record, stale-marked
	// where the record was enumerated since; the store's update then keeps
	// them with their records.
	valid bool
}

// forStore returns whether the sums carry from the previous pass; if not,
// it shapes the pages like st's, each sum to be computed.
func (s *sumPages[T]) forStore(st *candStore) bool {
	if s.valid {
		return true
	}
	clear(s.pages[min(len(st.pages), len(s.pages)):])
	s.pages = grow(s.pages, len(st.pages))
	var flat []T
	if len(s.pages) == 0 || len(s.pages[0]) == 0 {
		// A fresh store: one allocation, cut into pages.
		flat = make([]T, st.n)
	}
	for p, recs := range st.pages {
		if flat != nil {
			s.pages[p], flat = flat[:len(recs):len(recs)], flat[len(recs):]
		} else {
			s.pages[p] = grow(s.pages[p], len(recs))
		}
	}
	return false
}

// of returns segment sg's sums.
func (s *sumPages[T]) of(sg *segment) []T {
	return s.pages[sg.page][sg.off : int(sg.off)+len(sg.recs)]
}

// pageRecs is the size, in records, of a page (16 KiB). A bin's buffer
// grows page by page, without the copies of an append chain, and a small
// bin allocates one page.
const pageRecs = 2048

// binBuf is one gather bin's output and scratch: the candidates it emits,
// in identity order, in pages, described by segments whose page indices
// and positions are the bin's own, and the reusable state of its MFFC
// walks. The gather cache keeps one per bin and reuses its pages from one
// update to the next; a full gather hands them to the store.
type binBuf struct {
	pages [][]rec
	used  int // pages in use
	fill  int // records on the last page in use
	segs  []segment
	first int // the segment the current target's records start in
	// exc holds the exceptions the bin's targets found, each target's a
	// run from excStart that end hands to the target's data and segments.
	// Runs handed out are never written again.
	exc      []excGain
	excStart int

	mffc       circuit.MFFCScratch
	cone, excl []circuit.NodeID // the current target's MFFC; a pair's
	deps       []circuit.NodeID // the current target's dependency set
	seen       []bool           // dependency marks by node slot, cleared after use
}

// reset empties the buffer, keeping its pages for reuse. The exceptions
// handed out stay where they are.
func (b *binBuf) reset() {
	b.used, b.fill = 0, 0
	b.segs = b.segs[:0]
	b.exc = b.exc[len(b.exc):]
}

// begin starts a target's records: the next add opens its segment.
func (b *binBuf) begin() { b.first, b.excStart = len(b.segs), len(b.exc) }

// add appends a record of target t, opening a page when the last one is
// full and a segment when t's records start or cross into a new page.
func (b *binBuf) add(t circuit.NodeID, r rec) {
	if b.used == 0 || b.fill == pageRecs {
		if b.used == len(b.pages) {
			b.pages = append(b.pages, make([]rec, pageRecs))
		}
		b.used++
		b.fill = 0
	}
	page := b.pages[b.used-1]
	if k := len(b.segs) - 1; k < b.first || b.segs[k].page != int32(b.used-1) {
		b.segs = append(b.segs, segment{target: t, page: int32(b.used - 1), off: int32(b.fill)})
	}
	sg := &b.segs[len(b.segs)-1]
	page[b.fill] = r
	b.fill++
	sg.recs = page[sg.off:b.fill:b.fill]
}

// end closes the current target's records: the exceptions they found
// join td.exc, and the target's segments take its base gain and
// exceptions, final once its records are emitted.
func (b *binBuf) end(td *targetData) {
	if found := b.exc[b.excStart:len(b.exc):len(b.exc)]; len(td.exc) == 0 {
		td.exc = found
	} else if len(found) > 0 {
		td.exc = append(td.exc[:len(td.exc):len(td.exc)], found...)
	}
	for k := b.first; k < len(b.segs); k++ {
		b.segs[k].gain, b.segs[k].exc = td.baseGain, td.exc
	}
}

// recCompare orders two records of targets ta and tb in identity order.
func recCompare(ta circuit.NodeID, a rec, tb circuit.NodeID, b rec) int {
	if ta != tb {
		return cmp.Compare(ta, tb)
	}
	return cmp.Compare(a.sk, b.sk)
}

// run is one target's records in a list under construction: n records
// from list position start, with the segment header's gain figures.
type run struct {
	target circuit.NodeID
	start  int
	n      int
	stale  bool
	gain   float64
	exc    []excGain
}

// storeUpdate is the gather cache's scratch for the store's update.
type storeUpdate struct {
	kept, fresh, runs []run
}

// update brings the store to the candidate list after an accepted edit,
// in place, segment by segment. The records of a target that is no
// longer live in net or marked dirty all leave (they are re-enumerated);
// drop marks the substitutes whose pairs leave; fresh holds the bins' new
// records, in identity order when the bins are laid end to end, none with
// a kept record's identity.
//
// Two passes keep it in place. The filter walks the segments forward and
// moves each kept record, with its carried sums, to the next free
// position, never past the one it reads. Then the address space is cut or
// grown to the new total, and the merge walks backward, joining each
// target's kept records with its fresh ones, the fresh records' sums
// stale-marked: when it writes position k, at most k+1 records remain
// unplaced, so an unread kept record sits at k or below. Once the fresh
// records are placed, the kept ones still unread are already in their
// slots. The result is the unique identity-ordered list of the new
// candidate multiset, as a full gather would lay it out, and the segment
// headers are rebuilt over it, marking the targets that took fresh
// records stale.
func (st *candStore) update(net *circuit.Network, dirty, drop []bool, fresh []binBuf, u *storeUpdate) {
	er, aem := st.er.valid, st.aem.valid
	// Filter. wrecs, wer and waem are the write cursor's page.
	u.kept = u.kept[:0]
	var w pageCursor
	var wrecs []rec
	var wer, ser []int32
	var waem, saem []float64
	for si := range st.segs {
		sg := &st.segs[si]
		if !net.IsLive(sg.target) || dirty[sg.target] {
			continue
		}
		if er {
			ser = st.er.of(sg)
		}
		if aem {
			saem = st.aem.of(sg)
		}
		start := w.pos
		for j, r := range sg.recs {
			if !r.isConst() && drop[r.sub()] {
				continue
			}
			if w.off == len(wrecs) {
				w.step(st.pages)
				wrecs = st.pages[w.page]
				if er {
					wer = st.er.pages[w.page]
				}
				if aem {
					waem = st.aem.pages[w.page]
				}
			}
			wrecs[w.off] = r
			if er {
				wer[w.off] = ser[j]
			}
			if aem {
				waem[w.off] = saem[j]
			}
			w.off++
			w.pos++
		}
		if w.pos == start {
			continue
		}
		if k := len(u.kept) - 1; k >= 0 && u.kept[k].target == sg.target {
			u.kept[k].n += w.pos - start
		} else {
			u.kept = append(u.kept, run{target: sg.target, start: start, n: w.pos - start, gain: sg.gain, exc: sg.exc})
		}
	}
	kept := w.pos
	u.fresh = u.fresh[:0]
	total := kept
	for bi := range fresh {
		for _, sg := range fresh[bi].segs {
			if k := len(u.fresh) - 1; k >= 0 && u.fresh[k].target == sg.target {
				u.fresh[k].n += len(sg.recs)
			} else {
				u.fresh = append(u.fresh, run{target: sg.target, n: len(sg.recs), stale: true, gain: sg.gain, exc: sg.exc})
			}
			total += len(sg.recs)
		}
	}
	st.resize(total)

	// Merge, from the back. Before each fresh record go the kept records
	// that follow it: those of later targets, then those of its own target
	// with a larger sk, moved as runs.
	if total > kept {
		k := st.cursorAt(total)
		j := st.cursorAt(kept)
		kr := len(u.kept) - 1 // the kept run holding position j.pos−1
		for bi := len(fresh) - 1; bi >= 0; bi-- {
			fs := fresh[bi].segs
			for fi := len(fs) - 1; fi >= 0; fi-- {
				f := &fs[fi]
				for x := len(f.recs) - 1; x >= 0; x-- {
					r := f.recs[x]
					p := j // scans back to the last kept record before r
					for p.pos > 0 {
						for u.kept[kr].start >= p.pos {
							kr--
						}
						run := &u.kept[kr]
						if run.target < f.target {
							break
						}
						if run.target > f.target {
							p.backN(st.pages, p.pos-run.start)
							continue
						}
						if p.off == 0 {
							p.page--
							p.off = len(st.pages[p.page])
						}
						if st.pages[p.page][p.off-1].sk < r.sk {
							break
						}
						p.off--
						p.pos--
					}
					st.moveUp(&k, &j, j.pos-p.pos, er, aem)
					k.back(st.pages)
					st.pages[k.page][k.off] = r
					if er {
						st.er.pages[k.page][k.off] = staleSum
					}
					if aem {
						st.aem.pages[k.page][k.off] = staleSum
					}
				}
			}
		}
	}

	// The new runs: kept and fresh joined by target, both ascending.
	u.runs = u.runs[:0]
	for a, b := 0, 0; a < len(u.kept) || b < len(u.fresh); {
		switch {
		case b == len(u.fresh) || a < len(u.kept) && u.kept[a].target < u.fresh[b].target:
			u.runs = append(u.runs, u.kept[a])
			a++
		case a == len(u.kept) || u.fresh[b].target < u.kept[a].target:
			u.runs = append(u.runs, u.fresh[b])
			b++
		default:
			r := u.fresh[b]
			r.n += u.kept[a].n
			u.runs = append(u.runs, r)
			a++
			b++
		}
	}
	st.segs = st.segs[:0]
	var c pageCursor
	for _, r := range u.runs {
		for left := r.n; left > 0; {
			c.step(st.pages)
			n := min(left, len(st.pages[c.page])-c.off)
			st.segs = append(st.segs, segment{
				target: r.target, page: int32(c.page), off: int32(c.off), pos: int32(c.pos),
				stale: r.stale, gain: r.gain, exc: r.exc,
				recs: st.pages[c.page][c.off : c.off+n : c.off+n],
			})
			c.off += n
			c.pos += n
			left -= n
		}
	}
	st.n = total
}

// moveUp moves the n records before cursor j, with their sums, to just
// before cursor k, which is not below j, page chunk by page chunk from the
// back (copy moves overlapping chunks correctly); both cursors end n
// positions earlier.
func (st *candStore) moveUp(k, j *pageCursor, n int, er, aem bool) {
	for n > 0 {
		for k.off == 0 {
			k.page--
			k.off = len(st.pages[k.page])
		}
		for j.off == 0 {
			j.page--
			j.off = len(st.pages[j.page])
		}
		c := min(n, k.off, j.off)
		copy(st.pages[k.page][k.off-c:k.off], st.pages[j.page][j.off-c:j.off])
		if er {
			copy(st.er.pages[k.page][k.off-c:k.off], st.er.pages[j.page][j.off-c:j.off])
		}
		if aem {
			copy(st.aem.pages[k.page][k.off-c:k.off], st.aem.pages[j.page][j.off-c:j.off])
		}
		k.off, k.pos, j.off, j.pos, n = k.off-c, k.pos-c, j.off-c, j.pos-c, n-c
	}
}

// pageCursor is a list position and where it lies in the store's pages.
type pageCursor struct {
	page, off, pos int
}

// step moves the cursor onto the next page when it stands at the end of
// its page, so that (page, off) holds position pos.
func (c *pageCursor) step(pages [][]rec) {
	for c.off == len(pages[c.page]) {
		c.page++
		c.off = 0
	}
}

// backN moves the cursor n positions back, page by page.
func (c *pageCursor) backN(pages [][]rec, n int) {
	c.pos -= n
	for n > c.off {
		n -= c.off
		c.page--
		c.off = len(pages[c.page])
	}
	c.off -= n
}

// back moves the cursor to the previous position.
func (c *pageCursor) back(pages [][]rec) {
	c.pos--
	c.off--
	for c.off < 0 {
		c.page--
		c.off = len(pages[c.page]) - 1
	}
}

// cursorAt returns a cursor at list position pos, at the end of the page
// before when pos starts a page.
func (st *candStore) cursorAt(pos int) pageCursor {
	c := pageCursor{pos: pos}
	for left := pos; left > 0; c.page++ {
		if n := len(st.pages[c.page]); left <= n {
			c.off = left
			return c
		}
		left -= len(st.pages[c.page])
	}
	return c
}

// resize makes the store's address space total records long, in place:
// positions below both lengths stay where they are. It keeps the pages
// that start below total, cutting the one holding position total−1 there,
// or, when the pages hold fewer records, grows the last page into its
// capacity and appends pages. The carried sums follow.
func (st *candStore) resize(total int) {
	acc, keep := 0, 0
	for keep < len(st.pages) && acc < total {
		acc += len(st.pages[keep])
		keep++
	}
	clear(st.pages[keep:])
	st.pages = st.pages[:keep]
	if acc > total {
		p := keep - 1
		st.pages[p] = st.pages[p][:len(st.pages[p])-(acc-total)]
		acc = total
	}
	if acc < total && keep > 0 {
		p := keep - 1
		n := min(cap(st.pages[p]), len(st.pages[p])+total-acc)
		acc += n - len(st.pages[p])
		st.pages[p] = st.pages[p][:n]
	}
	for acc < total {
		n := min(pageRecs, total-acc)
		st.pages = append(st.pages, make([]rec, n, pageRecs))
		acc += n
	}
	st.er.follow(st.pages)
	st.aem.follow(st.pages)
}

// follow reshapes carried sums like the record pages after a resize.
func (s *sumPages[T]) follow(pages [][]rec) {
	if !s.valid {
		return
	}
	clear(s.pages[min(len(pages), len(s.pages)):])
	s.pages = grow(s.pages, len(pages))
	for p := range pages {
		if len(s.pages[p]) != len(pages[p]) {
			s.pages[p] = grow(s.pages[p], len(pages[p]))
		}
	}
}

// Package timeline is the causal span recorder of the observability
// layer: a low-overhead, lock-free collection of per-lane span rings that
// the parallel engine (par.Pool), the simulation/CPM kernels and the
// SASIMI flow loop write into, and that exports as Chrome trace-event
// JSON loadable in Perfetto (chrome://tracing).
//
// Profile times the five flow phases once and reports each measurement
// both as the per-phase aggregate (how much wall time each phase took)
// and as a "phase:<name>" span on the driver lane. The spans answer the
// question ROADMAP item 2 actually asks: *where on which worker did the
// wall-clock go, and what was everyone else doing meanwhile*. A span is
// one contiguous activity — a pool dispatch, one worker's share of it, a
// flow phase, a candidate verification — tagged with the worker, shard,
// iteration and parent dispatch that caused it, so the serial fraction
// (time with every worker idle) and the barrier-wait tail (workers done,
// dispatch not) fall straight out of the recorded data.
//
// Design constraints, in order:
//
//  1. Overhead. Recording must stay well under 2% of
//     BenchmarkParallelEstimate (pinned by TestTimelineOverhead* in the
//     root package). Emitting a span is one atomic add for the ID, a
//     bounds check, a struct store into a pre-allocated ring slot and an
//     atomic cursor publish — no locks, no allocation, no map lookups.
//  2. Concurrent export. A live /timeline HTTP scrape may read while the
//     flow writes. Each lane is single-writer; the writer publishes the
//     cursor with an atomic store *after* the slot write, the reader
//     loads it first, so every span at an index below the observed
//     cursor is fully written (release/acquire via sync/atomic). Slots
//     are never overwritten — a full lane drops new spans and counts
//     them — so the reader can never observe a torn or recycled slot.
//  3. Determinism of the observed computation. The recorder is written
//     to from the driver goroutine only (pool workers' timings are
//     aggregated by the dispatching goroutine after the barrier), so
//     attaching it cannot perturb task scheduling; the bit-identity
//     differential suite runs green with a recorder attached.
package timeline

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"batchals/internal/obs"
)

// Span is one recorded activity on the causal timeline.
type Span struct {
	// ID is the recorder-unique span identity (1-based; 0 = none).
	ID int64
	// Parent is the ID of the causing span (a worker span's dispatch,
	// a verification span's iteration), or 0 for roots.
	Parent int64
	// Name identifies the activity, dotted by subsystem: "sim.simulate",
	// "cpm.build", "sasimi.score", "phase:estimate", "iteration", ...
	Name string
	// Phase is the flow phase the activity belongs to.
	Phase obs.Phase
	// Worker is the pool worker that executed the activity, or -1 for the
	// flow/driver goroutine (dispatch wrappers, flow phases).
	Worker int32
	// Shard is the pattern shard (or task index) when the span covers
	// exactly one, -1 when it aggregates several.
	Shard int32
	// Iter is the flow iteration the span belongs to (0 outside the loop).
	Iter int32
	// T0 and T1 are start/end nanoseconds on the recorder's monotonic
	// clock (Recorder.Now).
	T0, T1 int64
	// Busy is the time actually spent executing within [T0,T1] — for a
	// worker span, the summed task bodies (the remainder is idle/steal
	// wait); for a dispatch span, the summed busy of all workers. Zero
	// means "fully busy" for spans that have no idle notion.
	Busy int64
	// Tasks counts the pool tasks folded into the span (0 for non-pool
	// spans).
	Tasks int32
}

// Dur returns the span's wall duration in nanoseconds.
func (s *Span) Dur() int64 { return s.T1 - s.T0 }

// Idle returns the in-span idle time (Dur - Busy) for pool spans, 0 for
// spans that carry no busy accounting.
func (s *Span) Idle() int64 {
	if s.Busy <= 0 {
		return 0
	}
	d := s.Dur() - s.Busy
	if d < 0 {
		return 0
	}
	return d
}

// lane is a single-writer bounded span ring. n is published with
// release/acquire atomics so a concurrent reader sees fully-written
// slots only; slots are never recycled (drop-on-full), which is what
// makes the concurrent read race-free.
type lane struct {
	n     atomic.Int64
	spans []Span
	// pad keeps neighbouring lanes' cursors off one cache line; the spans
	// header provides most of the separation already.
	_ [40]byte
}

// DefaultLaneCap is the per-lane span capacity when NewRecorder is given
// a non-positive one: 8192 spans ≈ 0.75 MiB per lane, enough for several
// hundred flow iterations at typical dispatch rates.
const DefaultLaneCap = 8192

// maxLanes bounds the lane count against pathological worker counts,
// mirroring par's maxWorkerCounters cap (64 workers + the driver lane).
const maxLanes = 65

// Recorder collects spans into per-lane rings. Lane 0 belongs to the
// flow/driver goroutine; lane w+1 to pool worker w. All methods are safe
// on a nil *Recorder (they no-op), so instrumentation sites thread one
// pointer through without nil checks.
//
// Writer contract: each lane has at most one writer at a time. The
// par.Pool wiring satisfies this trivially — every span, including the
// per-worker ones, is emitted by the dispatching goroutine after the
// batch barrier. Readers (Snapshot, WriteTrace) may run concurrently
// with writers.
type Recorder struct {
	epoch   time.Time
	lanes   []lane
	nextID  atomic.Int64
	iter    atomic.Int32
	dropped atomic.Int64
}

// NewRecorder returns a recorder with the given lane count and per-lane
// capacity. lanes <= 0 selects runtime.NumCPU()+1 (one driver lane plus
// one per worker of a default-sized pool); laneCap <= 0 selects
// DefaultLaneCap. Lane count is capped at 65.
func NewRecorder(lanes, laneCap int) *Recorder {
	if lanes <= 0 {
		lanes = runtime.NumCPU() + 1
	}
	if lanes > maxLanes {
		lanes = maxLanes
	}
	if laneCap <= 0 {
		laneCap = DefaultLaneCap
	}
	r := &Recorder{epoch: time.Now(), lanes: make([]lane, lanes)}
	for i := range r.lanes {
		r.lanes[i].spans = make([]Span, laneCap)
	}
	return r
}

// Now returns nanoseconds since the recorder's epoch.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Rel converts an absolute time.Time to the recorder's clock, so callers
// that already hold a time.Now() need not read the clock again.
func (r *Recorder) Rel(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

// SetIter labels subsequently emitted spans with the current flow
// iteration. Pool dispatches read it at emission time.
func (r *Recorder) SetIter(iter int) {
	if r != nil {
		r.iter.Store(int32(iter))
	}
}

// Iter returns the current iteration label.
func (r *Recorder) Iter() int32 {
	if r == nil {
		return 0
	}
	return r.iter.Load()
}

// Lanes returns the recorder's lane count (0 for nil).
func (r *Recorder) Lanes() int {
	if r == nil {
		return 0
	}
	return len(r.lanes)
}

// Dropped reports how many spans were discarded because their lane was
// full.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Emit records s on the given lane (clamped into range) and returns the
// assigned span ID, or 0 when the recorder is nil or the lane is full.
// The span's ID field is assigned here; all other fields are the
// caller's. Each lane must have a single writer at a time.
func (r *Recorder) Emit(laneIdx int, s Span) int64 {
	if r == nil {
		return 0
	}
	if laneIdx < 0 {
		laneIdx = 0
	}
	if laneIdx >= len(r.lanes) {
		laneIdx = len(r.lanes) - 1
	}
	ln := &r.lanes[laneIdx]
	n := ln.n.Load()
	if int(n) >= len(ln.spans) {
		r.dropped.Add(1)
		return 0
	}
	s.ID = r.nextID.Add(1)
	ln.spans[n] = s
	ln.n.Store(n + 1) // publish: release-store pairs with Snapshot's acquire-load
	return s.ID
}

// Active is an open span started by Start; close it with End. The zero
// Active (from a nil recorder) is inert.
type Active struct {
	name  string
	phase obs.Phase
	t0    int64
}

// Start opens a driver-lane span at the current time. It performs no
// allocation and no ring write; the span materialises at End.
func (r *Recorder) Start(name string, phase obs.Phase) Active {
	if r == nil {
		return Active{}
	}
	return Active{name: name, phase: phase, t0: r.Now()}
}

// End closes an Active span, emitting it on the driver lane with the
// current iteration label, and returns its span ID.
func (r *Recorder) End(a Active) int64 {
	return r.EndWithParent(a, 0)
}

// EndWithParent is End with an explicit causal parent span ID.
func (r *Recorder) EndWithParent(a Active, parent int64) int64 {
	if r == nil || a.name == "" {
		return 0
	}
	return r.Emit(0, Span{
		Parent: parent,
		Name:   a.name,
		Phase:  a.phase,
		Worker: -1,
		Shard:  -1,
		Iter:   r.iter.Load(),
		T0:     a.t0,
		T1:     r.Now(),
	})
}

// Mark records an instantaneous (zero-length) driver-lane span at the
// current time, labelled with the current iteration.
func (r *Recorder) Mark(name string, phase obs.Phase) {
	if r == nil {
		return
	}
	now := r.Now()
	r.Emit(0, Span{
		Name:   name,
		Phase:  phase,
		Worker: -1,
		Shard:  -1,
		Iter:   r.iter.Load(),
		T0:     now,
		T1:     now,
	})
}

// Snapshot returns every published span across all lanes, ordered by
// start time (ties by ID). Safe to call while writers are active: it
// observes each lane's published prefix.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	total := 0
	counts := make([]int, len(r.lanes))
	for i := range r.lanes {
		counts[i] = int(r.lanes[i].n.Load()) // acquire: slots below are fully written
		total += counts[i]
	}
	out := make([]Span, 0, total)
	for i := range r.lanes {
		out = append(out, r.lanes[i].spans[:counts[i]]...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].T0 != out[b].T0 {
			return out[a].T0 < out[b].T0
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// SpanCount returns the number of published spans across all lanes.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.lanes {
		n += int(r.lanes[i].n.Load())
	}
	return n
}

// Reset discards all recorded spans and the drop count. NOT safe
// concurrently with writers or readers — call it only between runs (the
// overhead benchmark resets between iterations so ring exhaustion cannot
// flatter the measured cost).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.lanes {
		r.lanes[i].n.Store(0)
	}
	r.dropped.Store(0)
	r.nextID.Store(0)
	r.iter.Store(0)
}

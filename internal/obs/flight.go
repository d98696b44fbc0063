package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightRecorder keeps the recent history of a run in bounded ring
// buffers — the last N iterations and accepts — cheap enough to leave
// attached to every production run and dense enough to reconstruct "what
// was the flow doing just before it wedged / panicked / blew its
// budget". It implements Tracer, so it is attached with
// Multi(recorder, otherTracers...); per-candidate events are deliberately
// not recorded (thousands per iteration would wash the rings out in one
// scoring pass).
//
// All methods are safe for concurrent use: the flow goroutine records
// while HTTP handlers snapshot.
type FlightRecorder struct {
	mu      sync.Mutex
	iters   ring[IterationInfo]
	accepts ring[AcceptInfo]
	started time.Time
}

// DefaultFlightDepth is the per-ring capacity used when NewFlightRecorder
// is given a non-positive depth.
const DefaultFlightDepth = 64

// NewFlightRecorder returns a recorder keeping the last depth entries of
// each event kind (DefaultFlightDepth if depth <= 0).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{
		iters:   newRing[IterationInfo](depth),
		accepts: newRing[AcceptInfo](depth),
		started: time.Now(),
	}
}

// OnIteration records an iteration summary.
func (f *FlightRecorder) OnIteration(i IterationInfo) {
	f.mu.Lock()
	f.iters.push(i)
	f.mu.Unlock()
}

// WantsCandidates declines the candidate firehose (CandidateFilter).
func (f *FlightRecorder) WantsCandidates() bool { return false }

// OnCandidate is a no-op: candidate volume would evict everything else.
func (f *FlightRecorder) OnCandidate(CandidateInfo) {}

// OnAccept records an accepted substitution (with its confidence fields,
// when the flow filled them).
func (f *FlightRecorder) OnAccept(i AcceptInfo) {
	f.mu.Lock()
	f.accepts.push(i)
	f.mu.Unlock()
}

// FlightDump is the JSON-serialisable snapshot of a recorder: the
// retained ring contents oldest-first, plus total event counts so a
// reader knows how much history was evicted.
type FlightDump struct {
	Depth           int             `json:"depth"`
	UptimeNS        int64           `json:"uptime_ns"`
	TotalIterations int64           `json:"total_iterations"`
	TotalAccepts    int64           `json:"total_accepts"`
	Iterations      []IterationInfo `json:"iterations"`
	Accepts         []AcceptInfo    `json:"accepts"`
}

// Snapshot freezes the recorder's current state.
func (f *FlightRecorder) Snapshot() FlightDump {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightDump{
		Depth:           len(f.iters.buf),
		UptimeNS:        int64(time.Since(f.started)),
		TotalIterations: f.iters.total,
		TotalAccepts:    f.accepts.total,
		Iterations:      f.iters.snapshot(),
		Accepts:         f.accepts.snapshot(),
	}
}

// WriteJSON writes the current snapshot as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}

// DumpOnPanic writes the flight dump to w when the calling goroutine is
// panicking, then re-panics. Use it as a direct defer around a flow:
//
//	defer recorder.DumpOnPanic(os.Stderr)
//
// so the last recorded iterations survive into the crash report. During
// normal returns it does nothing.
func (f *FlightRecorder) DumpOnPanic(w io.Writer) {
	if r := recover(); r != nil {
		_ = f.WriteJSON(w)
		panic(r)
	}
}

var _ Tracer = (*FlightRecorder)(nil)

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf   []T
	total int64 // events ever pushed
}

func newRing[T any](n int) ring[T] {
	return ring[T]{buf: make([]T, n)}
}

func (r *ring[T]) push(v T) {
	r.buf[int(r.total%int64(len(r.buf)))] = v
	r.total++
}

// snapshot returns the retained entries oldest-first.
func (r *ring[T]) snapshot() []T {
	n := r.total
	cap64 := int64(len(r.buf))
	if n > cap64 {
		n = cap64
	}
	out := make([]T, 0, n)
	start := r.total - n
	for i := int64(0); i < n; i++ {
		out = append(out, r.buf[int((start+i)%cap64)])
	}
	return out
}

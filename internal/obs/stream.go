package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// EventKind discriminates the payload of a stream Event.
type EventKind uint8

// The event kinds, matching the Tracer methods.
const (
	EventIteration EventKind = iota + 1
	EventCandidate
	EventAccept
)

// String returns the wire name of the kind (the "ev" field of the JSON
// encoding).
func (k EventKind) String() string {
	switch k {
	case EventIteration:
		return "iter"
	case EventCandidate:
		return "cand"
	case EventAccept:
		return "accept"
	}
	return "unknown"
}

// Event is one flow event: a flat union (only the payload selected by Kind
// is meaningful) so events move through a StreamTracer's channels by
// value — publishing allocates nothing, which keeps a connected-but-idle
// subscriber off the flow's hot path entirely. Its JSON encoding is the
// one every event sink writes: JSONL trace lines and SSE data.
type Event struct {
	Kind EventKind
	// Seq is the tracer-wide sequence number (1-based). On a stream, gaps
	// in a subscriber's view are events dropped on its full buffer.
	Seq uint64
	// Run names the originating run, when the tracer was built with one.
	Run string

	Iter   IterationInfo
	Cand   CandidateInfo
	Accept AcceptInfo
}

// MarshalJSON renders the event as a self-describing envelope
// {"ev","seq","run","data"} around the kind's payload (run omitted when
// empty).
func (e Event) MarshalJSON() ([]byte, error) {
	env := struct {
		Ev  string `json:"ev"`
		Seq uint64 `json:"seq"`
		Run string `json:"run,omitempty"`
		Pay any    `json:"data"`
	}{Ev: e.Kind.String(), Seq: e.Seq, Run: e.Run}
	switch e.Kind {
	case EventIteration:
		env.Pay = e.Iter
	case EventCandidate:
		env.Pay = e.Cand
	case EventAccept:
		env.Pay = e.Accept
	default:
		return nil, fmt.Errorf("obs: marshal of unknown event kind %d", e.Kind)
	}
	return json.Marshal(env)
}

// StreamTracer fans flow events out to any number of subscribers without
// ever blocking the flow: each subscriber owns a buffered channel, and a
// publish that finds a buffer full drops the event for that subscriber
// (counted, never waited on). The flow goroutine publishes; subscribers
// (SSE handlers, tests) attach and detach concurrently at any time.
//
// With zero subscribers every Tracer method returns after one atomic
// load, and a publish to idle subscribers performs no allocation — the
// serving layer can stay attached to production runs unconditionally.
// The stream never carries per-candidate events: thousands per iteration
// would flood every subscriber's buffer (a JSONL trace with
// EmitCandidates is the way to record them).
type StreamTracer struct {
	run     string
	seq     atomic.Uint64
	dropped atomic.Int64
	nsubs   atomic.Int32

	mu     sync.RWMutex
	subs   map[uint64]chan Event
	nextID uint64

	// dropCounter, when set, mirrors drops into a registry counter.
	dropCounter atomic.Pointer[Counter]
}

// NewStreamTracer returns a tracer stamping events with the given run
// name (empty is fine for single-run processes).
func NewStreamTracer(run string) *StreamTracer {
	return &StreamTracer{run: run, subs: make(map[uint64]chan Event)}
}

// CountDropsIn mirrors the drop count into reg's counter named name, so
// scrapes see backpressure without asking the tracer.
func (t *StreamTracer) CountDropsIn(reg *Registry, name string) {
	if reg == nil {
		return
	}
	t.dropCounter.Store(reg.Counter(name))
}

// Run returns the run name events are stamped with.
func (t *StreamTracer) Run() string { return t.run }

// Dropped returns the total number of events dropped across all
// subscribers since the tracer was created.
func (t *StreamTracer) Dropped() int64 { return t.dropped.Load() }

// Subscribers returns the current subscriber count.
func (t *StreamTracer) Subscribers() int { return int(t.nsubs.Load()) }

// DefaultSubscribeBuffer is the per-subscriber channel capacity used when
// Subscribe is given a non-positive buffer size.
const DefaultSubscribeBuffer = 256

// Subscribe attaches a new subscriber and returns its event channel plus
// a cancel function. Cancel is idempotent; it detaches the subscriber and
// closes the channel (after detaching, so a concurrent publish can never
// send on a closed channel). Events overflowing the buffer while the
// subscriber lags are dropped, visible as gaps in Event.Seq.
func (t *StreamTracer) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = DefaultSubscribeBuffer
	}
	ch := make(chan Event, buf)
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.subs[id] = ch
	t.mu.Unlock()
	t.nsubs.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			t.mu.Lock()
			delete(t.subs, id)
			t.mu.Unlock()
			t.nsubs.Add(-1)
			close(ch)
		})
	}
	return ch, cancel
}

func (t *StreamTracer) publish(e Event) {
	if t.nsubs.Load() == 0 {
		return
	}
	e.Seq = t.seq.Add(1)
	e.Run = t.run
	t.mu.RLock()
	for _, ch := range t.subs {
		select {
		case ch <- e:
		default:
			t.dropped.Add(1)
			if c := t.dropCounter.Load(); c != nil {
				c.Inc()
			}
		}
	}
	t.mu.RUnlock()
}

// OnIteration publishes an iteration event.
func (t *StreamTracer) OnIteration(i IterationInfo) {
	t.publish(Event{Kind: EventIteration, Iter: i})
}

// WantsCandidates declines the candidate firehose (CandidateFilter).
func (t *StreamTracer) WantsCandidates() bool { return false }

// OnCandidate is a no-op: the stream does not carry candidates.
func (t *StreamTracer) OnCandidate(CandidateInfo) {}

// OnAccept publishes an accept event.
func (t *StreamTracer) OnAccept(i AcceptInfo) {
	t.publish(Event{Kind: EventAccept, Accept: i})
}

var _ Tracer = (*StreamTracer)(nil)

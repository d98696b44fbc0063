package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// JSONLTracer writes flow events as JSON Lines: one Event per line, in
// the encoding the live stream sends ({"ev","seq","data"}, with seq
// numbering the lines from 1). Events stream as they happen, so a trace
// of a crashed or interrupted run is still valid up to its last complete
// line.
//
// Per-candidate events are the bulk of a trace (thousands per iteration on
// ISCAS-scale circuits) and are dropped unless EmitCandidates is set.
type JSONLTracer struct {
	mu             sync.Mutex
	w              *bufio.Writer
	enc            *json.Encoder
	seq            uint64
	err            error // first write/encode error, sticky
	errCount       int64
	errCounter     *Counter // optional registry mirror of errCount
	EmitCandidates bool
}

// NewJSONLTracer wraps w in a buffered JSONL event writer. Call Flush (or
// Close on the underlying writer after Flush) when the run ends.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	bw := bufio.NewWriter(w)
	return &JSONLTracer{w: bw, enc: json.NewEncoder(bw)}
}

// CountErrorsIn mirrors the tracer's write-error count into reg's counter
// named name, so a metrics scrape shows a dying trace sink.
func (t *JSONLTracer) CountErrorsIn(reg *Registry, name string) {
	if reg == nil {
		return
	}
	t.mu.Lock()
	t.errCounter = reg.Counter(name)
	t.mu.Unlock()
}

// Err returns the first write or encode error the tracer has hit, or nil.
// A failing trace sink never aborts the synthesis run (events after the
// first failure are still attempted — the writer may recover — and simply
// add to ErrCount when they fail too); callers that care check Err after
// Flush.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ErrCount returns how many event writes have failed so far.
func (t *JSONLTracer) ErrCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errCount
}

// Flush writes any buffered events through to the underlying writer. The
// returned error is sticky: once a flush or event write has failed, Err
// keeps reporting it.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil {
		t.recordErrLocked(err)
	}
	return t.err
}

// OnIteration emits an "iter" event.
func (t *JSONLTracer) OnIteration(i IterationInfo) {
	t.emit(Event{Kind: EventIteration, Iter: i})
}

// WantsCandidates mirrors EmitCandidates for the CandidateFilter
// capability, letting flows skip candidate-event construction entirely.
func (t *JSONLTracer) WantsCandidates() bool { return t.EmitCandidates }

// OnCandidate emits a "cand" event when EmitCandidates is set.
func (t *JSONLTracer) OnCandidate(i CandidateInfo) {
	if !t.EmitCandidates {
		return
	}
	t.emit(Event{Kind: EventCandidate, Cand: i})
}

// OnAccept emits an "accept" event.
func (t *JSONLTracer) OnAccept(i AcceptInfo) {
	t.emit(Event{Kind: EventAccept, Accept: i})
}

func (t *JSONLTracer) emit(e Event) {
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	// Encode errors (a full disk, a closed pipe) must not abort a synthesis
	// run over its telemetry; the trace just ends early, but the failure is
	// recorded so Err/ErrCount (and the optional registry counter) surface
	// it instead of silently losing the tail of the trace.
	if err := t.enc.Encode(e); err != nil {
		t.recordErrLocked(err)
	}
	t.mu.Unlock()
}

// recordErrLocked notes a failed write; t.mu must be held.
func (t *JSONLTracer) recordErrLocked(err error) {
	if t.err == nil {
		t.err = err
	}
	t.errCount++
	if t.errCounter != nil {
		t.errCounter.Inc()
	}
}

var _ Tracer = (*JSONLTracer)(nil)

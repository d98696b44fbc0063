package obs

import (
	"errors"
	"testing"
)

// failAfterWriter fails every Write after the first n bytes have passed.
type failAfterWriter struct {
	budget int
	err    error
	wrote  int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.budget {
		return 0, w.err
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestJSONLTracerSurfacesWriteErrors pins the failing-sink contract: the
// tracer never panics or blocks the flow, but the failure is visible via
// Err/ErrCount and the optional registry counter instead of being
// silently swallowed.
func TestJSONLTracerSurfacesWriteErrors(t *testing.T) {
	sinkErr := errors.New("disk full")
	w := &failAfterWriter{budget: 0, err: sinkErr}
	reg := NewRegistry()
	tr := NewJSONLTracer(w)
	tr.CountErrorsIn(reg, "trace_write_errors_total")

	// Events buffer in the bufio layer; the write error surfaces at Flush
	// (or earlier, once the buffer spills).
	tr.OnIteration(IterationInfo{Iter: 1})
	if err := tr.Flush(); !errors.Is(err, sinkErr) {
		t.Fatalf("Flush = %v, want %v", err, sinkErr)
	}
	if err := tr.Err(); !errors.Is(err, sinkErr) {
		t.Fatalf("Err = %v, want %v", err, sinkErr)
	}
	first := tr.ErrCount()
	if first == 0 {
		t.Fatal("ErrCount zero after a failed flush")
	}

	// Later events keep failing (bufio's error is sticky) and keep
	// counting — but never panic and never abort the caller.
	tr.OnAccept(AcceptInfo{Iter: 2, Target: "g"})
	_ = tr.Flush()
	if tr.ErrCount() <= first {
		t.Fatalf("ErrCount stuck at %d after more failing writes", tr.ErrCount())
	}
	if errors.Is(tr.Err(), nil) || !errors.Is(tr.Err(), sinkErr) {
		t.Fatalf("first error not sticky: %v", tr.Err())
	}
	if got := reg.Counter("trace_write_errors_total").Value(); got != tr.ErrCount() {
		t.Fatalf("registry counter %d != ErrCount %d", got, tr.ErrCount())
	}
}

// TestJSONLTracerHealthySinkReportsNoError is the control: a working
// writer leaves Err nil and the counter untouched.
func TestJSONLTracerHealthySinkReportsNoError(t *testing.T) {
	var sink nopWriter
	tr := NewJSONLTracer(&sink)
	tr.OnIteration(IterationInfo{Iter: 1})
	tr.OnAccept(AcceptInfo{Iter: 1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Err() != nil || tr.ErrCount() != 0 {
		t.Fatalf("healthy sink reported err=%v count=%d", tr.Err(), tr.ErrCount())
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

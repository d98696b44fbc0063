package timeline

import (
	"sync"
	"testing"
	"time"

	"batchals/internal/obs"
)

func TestEmitSnapshotOrdering(t *testing.T) {
	r := NewRecorder(3, 16)
	// Emit out of start-time order across lanes; Snapshot must sort by T0.
	id1 := r.Emit(0, Span{Name: "b", Worker: -1, T0: 100, T1: 200})
	id2 := r.Emit(1, Span{Name: "a", Worker: 0, T0: 50, T1: 150})
	id3 := r.Emit(2, Span{Name: "c", Worker: 1, T0: 100, T1: 300})
	if id1 == 0 || id2 == 0 || id3 == 0 {
		t.Fatalf("Emit returned zero ID: %d %d %d", id1, id2, id3)
	}
	if id1 == id2 || id2 == id3 || id1 == id3 {
		t.Fatalf("span IDs not unique: %d %d %d", id1, id2, id3)
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(got))
	}
	if got[0].Name != "a" {
		t.Errorf("first span by T0 = %q, want a", got[0].Name)
	}
	// T0 tie between "b" (id1) and "c" (id3) breaks by ID.
	if got[1].ID != id1 || got[2].ID != id3 {
		t.Errorf("tie-break by ID: got %d,%d want %d,%d", got[1].ID, got[2].ID, id1, id3)
	}
	if n := r.SpanCount(); n != 3 {
		t.Errorf("SpanCount = %d, want 3", n)
	}
}

func TestLaneDropOnFull(t *testing.T) {
	r := NewRecorder(1, 2)
	for i := 0; i < 5; i++ {
		r.Emit(0, Span{Name: "x", T0: int64(i), T1: int64(i) + 1})
	}
	if n := r.SpanCount(); n != 2 {
		t.Errorf("SpanCount = %d, want lane cap 2", n)
	}
	if d := r.Dropped(); d != 3 {
		t.Errorf("Dropped = %d, want 3", d)
	}
	// The retained spans are the first two, never overwritten.
	got := r.Snapshot()
	if got[0].T0 != 0 || got[1].T0 != 1 {
		t.Errorf("drop-on-full overwrote early spans: T0s %d,%d", got[0].T0, got[1].T0)
	}
}

func TestEmitClampsLane(t *testing.T) {
	r := NewRecorder(2, 4)
	if id := r.Emit(-5, Span{Name: "lo"}); id == 0 {
		t.Error("negative lane should clamp to 0, not drop")
	}
	if id := r.Emit(99, Span{Name: "hi"}); id == 0 {
		t.Error("overflow lane should clamp to last, not drop")
	}
	if n := r.SpanCount(); n != 2 {
		t.Errorf("SpanCount = %d, want 2", n)
	}
}

func TestStartEndDriverSpan(t *testing.T) {
	r := NewRecorder(2, 8)
	r.SetIter(7)
	a := r.Start("verify", obs.PhaseVerifyApply)
	id := r.End(a)
	if id == 0 {
		t.Fatal("End returned 0 for a live recorder")
	}
	got := r.Snapshot()
	if len(got) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(got))
	}
	s := got[0]
	if s.Name != "verify" || s.Phase != obs.PhaseVerifyApply {
		t.Errorf("span = %q/%v", s.Name, s.Phase)
	}
	if s.Worker != -1 || s.Shard != -1 {
		t.Errorf("driver span worker/shard = %d/%d, want -1/-1", s.Worker, s.Shard)
	}
	if s.Iter != 7 {
		t.Errorf("Iter = %d, want 7 (from SetIter)", s.Iter)
	}
	if s.T1 < s.T0 {
		t.Errorf("T1 %d < T0 %d", s.T1, s.T0)
	}

	// Mark records an instantaneous driver span.
	r.Mark("accept", obs.PhaseVerifyApply)
	m := r.Snapshot()[1]
	if m.Name != "accept" || m.Worker != -1 || m.Iter != 7 || m.Dur() != 0 {
		t.Errorf("marker = %+v, want a zero-length driver span at iter 7", m)
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(1, 1)
	r.Emit(0, Span{Name: "a"})
	r.Emit(0, Span{Name: "b"}) // dropped
	r.SetIter(3)
	r.Reset()
	if r.SpanCount() != 0 || r.Dropped() != 0 || r.Iter() != 0 {
		t.Errorf("Reset left state: spans=%d dropped=%d iter=%d",
			r.SpanCount(), r.Dropped(), r.Iter())
	}
	if id := r.Emit(0, Span{Name: "c"}); id != 1 {
		t.Errorf("post-Reset ID = %d, want 1", id)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 || r.Rel(time.Now()) != 0 {
		t.Error("nil Now/Rel not zero")
	}
	r.SetIter(3)
	if r.Iter() != 0 || r.Lanes() != 0 || r.Dropped() != 0 || r.SpanCount() != 0 {
		t.Error("nil getters not zero")
	}
	if r.Emit(0, Span{Name: "x"}) != 0 {
		t.Error("nil Emit should return 0")
	}
	a := r.Start("x", obs.PhaseSimulate)
	if r.End(a) != 0 {
		t.Error("nil End should return 0")
	}
	r.Mark("x", obs.PhaseSimulate)
	if r.Snapshot() != nil {
		t.Error("nil Snapshot should be nil")
	}
	r.Reset()
}

// TestConcurrentSnapshotRace exercises the single-writer / concurrent-
// reader contract under the race detector: one goroutine per lane writing
// spans while another continuously snapshots and exports.
func TestConcurrentSnapshotRace(t *testing.T) {
	const lanes, perLane = 4, 512
	r := NewRecorder(lanes, perLane)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			spans := r.Snapshot()
			for i := range spans {
				if spans[i].ID == 0 {
					t.Error("observed unpublished span (torn read)")
					return
				}
			}
			_ = BuildTrace(spans, r.Dropped())
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var writers sync.WaitGroup
	for l := 0; l < lanes; l++ {
		writers.Add(1)
		go func(l int) {
			defer writers.Done()
			for i := 0; i < perLane; i++ {
				r.Emit(l, Span{
					Name: "w", Worker: int32(l - 1), Shard: -1,
					T0: int64(i), T1: int64(i) + 1,
				})
			}
		}(l)
	}
	writers.Wait()
	close(stop)
	<-readerDone
	if n := r.SpanCount(); n != lanes*perLane {
		t.Errorf("SpanCount = %d, want %d", n, lanes*perLane)
	}
}

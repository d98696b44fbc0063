package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestStreamTracerDeliversInOrder(t *testing.T) {
	tr := NewStreamTracer("r1")
	ch, cancel := tr.Subscribe(16)
	defer cancel()

	tr.OnIteration(IterationInfo{Iter: 1, Accepted: true})
	tr.OnAccept(AcceptInfo{Iter: 1, Target: "g3"})

	want := []EventKind{EventIteration, EventAccept}
	for i, k := range want {
		e := <-ch
		if e.Kind != k {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, k)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Run != "r1" {
			t.Fatalf("event %d run %q", i, e.Run)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events with a roomy buffer", tr.Dropped())
	}
}

func TestStreamTracerCandidateGate(t *testing.T) {
	tr := NewStreamTracer("")
	ch, cancel := tr.Subscribe(4)
	defer cancel()
	if WantsCandidates(tr) {
		t.Fatal("stream tracer asks for candidate events")
	}
	tr.OnCandidate(CandidateInfo{Iter: 1})
	tr.OnIteration(IterationInfo{Iter: 1})
	if e := <-ch; e.Kind != EventIteration {
		t.Fatalf("candidate event leaked onto the stream: %v", e.Kind)
	}
}

func TestStreamTracerDropsOnFullBufferWithoutBlocking(t *testing.T) {
	reg := NewRegistry()
	tr := NewStreamTracer("slow")
	tr.CountDropsIn(reg, "stream_dropped_total")
	ch, cancel := tr.Subscribe(2)
	defer cancel()

	// Publish 10 events into a 2-slot buffer nobody drains: 8 must drop,
	// and every publish must return immediately (the test would hang
	// otherwise).
	for i := 1; i <= 10; i++ {
		tr.OnIteration(IterationInfo{Iter: i})
	}
	if got := tr.Dropped(); got != 8 {
		t.Fatalf("dropped %d, want 8", got)
	}
	if got := reg.Counter("stream_dropped_total").Value(); got != 8 {
		t.Fatalf("registry drop counter %d, want 8", got)
	}
	// The retained events are the earliest two; gaps show in Seq.
	if e := <-ch; e.Seq != 1 || e.Iter.Iter != 1 {
		t.Fatalf("first retained event %+v", e)
	}
	if e := <-ch; e.Seq != 2 {
		t.Fatalf("second retained event seq %d", e.Seq)
	}
}

func TestStreamTracerFanOutAndCancel(t *testing.T) {
	tr := NewStreamTracer("")
	a, cancelA := tr.Subscribe(8)
	b, cancelB := tr.Subscribe(8)
	if tr.Subscribers() != 2 {
		t.Fatalf("subscribers %d, want 2", tr.Subscribers())
	}
	tr.OnAccept(AcceptInfo{Iter: 1})
	if e := <-a; e.Kind != EventAccept {
		t.Fatal("subscriber a missed the event")
	}
	if e := <-b; e.Kind != EventAccept {
		t.Fatal("subscriber b missed the event")
	}
	cancelA()
	cancelA() // idempotent
	if _, ok := <-a; ok {
		t.Fatal("cancelled channel not closed")
	}
	tr.OnAccept(AcceptInfo{Iter: 2})
	if e := <-b; e.Accept.Iter != 2 {
		t.Fatalf("surviving subscriber got %+v", e)
	}
	cancelB()
	// With no subscribers publishing is a cheap no-op (and must not panic).
	tr.OnAccept(AcceptInfo{Iter: 3})
	if tr.Subscribers() != 0 {
		t.Fatalf("subscribers %d after cancels", tr.Subscribers())
	}
}

// TestStreamTracerConcurrentParallel hammers publish against concurrent
// subscribe/cancel cycles under -race: the send path must never race the
// close path.
func TestStreamTracerConcurrentParallel(t *testing.T) {
	tr := NewStreamTracer("race")
	stop := make(chan struct{})
	var publisher sync.WaitGroup
	publisher.Add(1)
	go func() {
		defer publisher.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tr.OnIteration(IterationInfo{Iter: i})
			tr.OnAccept(AcceptInfo{Iter: i})
			_ = tr.Dropped()
		}
	}()

	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for n := 0; n < 200; n++ {
				ch, cancel := tr.Subscribe(4)
				// Drain a little, then drop the subscription mid-stream —
				// the publisher may be sending into ch right now.
				for k := 0; k < 3; k++ {
					select {
					case <-ch:
					default:
					}
				}
				cancel()
			}
		}()
	}
	churn.Wait()
	close(stop)
	publisher.Wait()
	if tr.Subscribers() != 0 {
		t.Fatalf("subscribers %d after churn", tr.Subscribers())
	}
}

func TestEventMarshalJSON(t *testing.T) {
	e := Event{Kind: EventAccept, Seq: 7, Run: "c880",
		Accept: AcceptInfo{Iter: 2, Target: "n9", Sub: "const1", Actual: 0.01,
			M: 5000, ErrCI: Interval{Lo: 0.007, Hi: 0.013, Level: 0.95}, CIAdequate: true}}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["ev"] != "accept" || m["seq"] != float64(7) || m["run"] != "c880" {
		t.Fatalf("envelope wrong: %v", m)
	}
	data, _ := m["data"].(map[string]any)
	if data["target"] != "n9" || data["m"] != float64(5000) {
		t.Fatalf("payload wrong: %v", data)
	}
	ci, _ := data["err_ci"].(map[string]any)
	if ci["hi"] != 0.013 {
		t.Fatalf("CI lost: %v", data)
	}
	if _, err := json.Marshal(Event{}); err == nil {
		t.Fatal("zero-kind event should fail to marshal")
	}
}

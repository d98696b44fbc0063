package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestFlightRecorderKeepsRecentHistory(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		f.OnIteration(IterationInfo{Iter: i, Candidates: i * 10, Accepted: true})
		f.OnAccept(AcceptInfo{Iter: i, Target: "g", Actual: float64(i) / 100})
	}
	f.OnCandidate(CandidateInfo{Iter: 1}) // must be ignored

	d := f.Snapshot()
	if d.Depth != 4 {
		t.Fatalf("depth %d, want 4", d.Depth)
	}
	if d.TotalIterations != 10 || d.TotalAccepts != 10 {
		t.Fatalf("totals %d/%d, want 10/10", d.TotalIterations, d.TotalAccepts)
	}
	if len(d.Iterations) != 4 || len(d.Accepts) != 4 {
		t.Fatalf("retained %d/%d, want 4/4", len(d.Iterations), len(d.Accepts))
	}
	// Oldest-first, ending at the newest event.
	for i, it := range d.Iterations {
		if it.Iter != 7+i {
			t.Fatalf("iterations[%d].Iter = %d, want %d (oldest-first)", i, it.Iter, 7+i)
		}
	}
	if d.Accepts[3].Actual != 0.10 {
		t.Fatalf("newest accept actual %v, want 0.10", d.Accepts[3].Actual)
	}
	if d.UptimeNS < 0 {
		t.Fatalf("negative uptime %d", d.UptimeNS)
	}
}

func TestFlightRecorderWriteJSON(t *testing.T) {
	f := NewFlightRecorder(0) // default depth
	f.OnAccept(AcceptInfo{
		Iter: 3, Target: "n12", Sub: "const0", Actual: 0.01,
		M: 10000, ErrCI: Interval{Lo: 0.008, Hi: 0.012, Level: 0.95},
		DeltaHW: 0.02, CIAdequate: true,
	})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Depth != DefaultFlightDepth {
		t.Fatalf("default depth %d, want %d", d.Depth, DefaultFlightDepth)
	}
	if len(d.Accepts) != 1 || d.Accepts[0].ErrCI.Hi != 0.012 || !d.Accepts[0].CIAdequate {
		t.Fatalf("accept CI fields lost in round trip: %+v", d.Accepts)
	}
}

func TestFlightRecorderDumpOnPanic(t *testing.T) {
	f := NewFlightRecorder(8)
	f.OnIteration(IterationInfo{Iter: 42})
	var buf bytes.Buffer
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed by DumpOnPanic")
			}
		}()
		func() {
			defer f.DumpOnPanic(&buf)
			panic("boom")
		}()
	}()
	if !strings.Contains(buf.String(), `"iter": 42`) {
		t.Fatalf("panic dump missing recorded iteration:\n%s", buf.String())
	}

	// Normal return: nothing written.
	buf.Reset()
	func() {
		defer f.DumpOnPanic(&buf)
	}()
	if buf.Len() != 0 {
		t.Fatalf("DumpOnPanic wrote %d bytes on a clean return", buf.Len())
	}
}

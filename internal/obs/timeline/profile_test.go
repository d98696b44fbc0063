package timeline

import (
	"testing"
	"time"

	"batchals/internal/obs"
)

var allocSink []byte

func TestProfileAggregatesAndEmits(t *testing.T) {
	rec := NewRecorder(1, 8)
	rec.SetIter(3)
	pr := NewProfile(rec, true)
	sp := pr.Begin(obs.PhaseSimulate)
	// Allocate something measurable; the package-level sink keeps the
	// slice from being stack-allocated or optimised away.
	allocSink = make([]byte, 1<<16)
	time.Sleep(time.Millisecond)
	pr.End(sp)

	rep := pr.Report()
	st := rep.Stats[obs.PhaseSimulate]
	if st.Count != 1 || st.Time <= 0 {
		t.Fatalf("bad span aggregate: %+v", st)
	}
	if st.Mem.Mallocs <= 0 || st.Mem.Bytes < 1<<16 {
		t.Fatalf("mem delta not tracked: %+v", st.Mem)
	}
	if rep.Total() != st.Time {
		t.Fatalf("total %v != simulate %v", rep.Total(), st.Time)
	}
	// The recorded span is the same measurement as the aggregate.
	spans := rec.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "phase:simulate" || s.Phase != obs.PhaseSimulate || s.Iter != 3 ||
		s.Worker != -1 || s.Shard != -1 {
		t.Fatalf("phase span = %+v", s)
	}
	if time.Duration(s.Dur()) != st.Time {
		t.Fatalf("span duration %v != aggregate %v", time.Duration(s.Dur()), st.Time)
	}

	reg := obs.NewRegistry()
	pr.Export(reg, "sasimi")
	snap := reg.Snapshot()
	if snap.Counters[`sasimi_phase_ns{phase="simulate"}`] != int64(st.Time) {
		t.Fatalf("export missing phase ns: %v", snap.Counters)
	}
	if snap.Counters[`sasimi_phase_spans{phase="pattern_gen"}`] != 0 {
		t.Fatal("unused phase should export zero spans")
	}
}

func TestNilProfileIsInert(t *testing.T) {
	var pr *Profile
	sp := pr.Begin(obs.PhaseEstimate) // must not panic
	pr.End(sp)
	if pr.Report().Total() != 0 {
		t.Fatal("nil profile reported time")
	}
	pr.Export(obs.NewRegistry(), "x") // must not panic

	// A profile without a recorder still aggregates, and records nothing.
	pr = NewProfile(nil, false)
	pr.End(pr.Begin(obs.PhaseEstimate))
	if st := pr.Report().Stats[obs.PhaseEstimate]; st.Count != 1 || st.Mem != (obs.MemDelta{}) {
		t.Fatalf("recorder-less profile aggregate = %+v", st)
	}
}

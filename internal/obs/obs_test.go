package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// recordTracer captures events for assertions.
type recordTracer struct {
	iters   []IterationInfo
	cands   []CandidateInfo
	accepts []AcceptInfo
}

func (r *recordTracer) OnIteration(i IterationInfo) { r.iters = append(r.iters, i) }
func (r *recordTracer) OnCandidate(i CandidateInfo) { r.cands = append(r.cands, i) }
func (r *recordTracer) OnAccept(i AcceptInfo)       { r.accepts = append(r.accepts, i) }

func TestPhaseNames(t *testing.T) {
	want := []string{"pattern_gen", "simulate", "cpm_build", "estimate", "verify_apply"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Fatalf("phase %d = %q, want %q", p, p.String(), want[p])
		}
	}
	if Phase(200).String() != "unknown" {
		t.Fatal("out-of-range phase must stringify as unknown")
	}
}

func TestDriftRecorderSplitsByCertificate(t *testing.T) {
	reg := NewRegistry()
	d := NewDriftRecorder(reg, "sasimi_accept_drift")
	d.Record(0.010, 0.010, true)  // exact: zero drift
	d.Record(0.010, 0.013, false) // inexact: +0.003
	d.Record(0.020, 0.011, false) // inexact: -0.009

	snap := reg.Snapshot()
	ex := snap.Histograms[`sasimi_accept_drift{cert="exact"}`]
	inx := snap.Histograms[`sasimi_accept_drift{cert="inexact"}`]
	if ex.Count != 1 || ex.Sum != 0 {
		t.Fatalf("exact series: %+v", ex)
	}
	if inx.Count != 2 || inx.Max < 0.003-1e-12 || inx.Min > -0.009+1e-12 {
		t.Fatalf("inexact series: %+v", inx)
	}

	var nilRec *DriftRecorder
	nilRec.Record(1, 2, true) // must not panic
	if NewDriftRecorder(nil, "x") != nil {
		t.Fatal("nil registry must yield nil recorder")
	}
}

func TestJSONLTracerEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.OnIteration(IterationInfo{Iter: 1, CurErr: 0.01, Candidates: 10, Feasible: 4,
		Accepted: true, Duration: 1000})
	tr.OnCandidate(CandidateInfo{Iter: 1, Target: "g1", Sub: "g2"}) // dropped by default
	tr.EmitCandidates = true
	tr.OnCandidate(CandidateInfo{Iter: 1, Target: "g1", Sub: "const0", Delta: 0.002, Exact: true})
	accept := AcceptInfo{Iter: 1, Target: "g1", Sub: "g2", Predicted: 0.012,
		Actual: 0.013, Drift: 0.001, Exact: false, Area: 99,
		M: 2000, ErrCI: Interval{Lo: 0.009, Hi: 0.018, Level: 0.95}, DeltaHW: 0.06}
	tr.OnAccept(accept)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	var lines [][]byte
	var evs []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
		evs = append(evs, ev)
	}
	kinds := make([]string, len(evs))
	for i, ev := range evs {
		kinds[i] = ev["ev"].(string)
		if ev["seq"] != float64(i+1) {
			t.Fatalf("line %d seq %v, want %d", i+1, ev["seq"], i+1)
		}
	}
	if got, want := strings.Join(kinds, ","), "iter,cand,accept"; got != want {
		t.Fatalf("event kinds %q, want %q", got, want)
	}
	// One encoding: a trace line is byte for byte the Event the live
	// stream marshals, confidence fields included.
	want, err := json.Marshal(Event{Kind: EventAccept, Seq: 3, Accept: accept})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lines[2], want) {
		t.Fatalf("accept line\n%s\nis not the stream encoding\n%s", lines[2], want)
	}
}

func TestMultiTracer(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must stay nil (nil fast path)")
	}
	a, b := &recordTracer{}, &recordTracer{}
	if Multi(a, nil) != Tracer(a) {
		t.Fatal("single live tracer must be returned unwrapped")
	}
	m := Multi(a, b)
	m.OnIteration(IterationInfo{Iter: 1})
	m.OnAccept(AcceptInfo{Iter: 1})
	m.OnCandidate(CandidateInfo{})
	if len(a.iters) != 1 || len(b.iters) != 1 || len(a.accepts) != 1 ||
		len(b.cands) != 1 {
		t.Fatal("multi tracer did not fan out")
	}
}

func TestWriteSummary(t *testing.T) {
	var rep PhaseReport
	rep.Stats[PhaseSimulate] = PhaseStat{Time: 3 * time.Millisecond, Count: 4,
		Mem: MemDelta{Bytes: 2048, Mallocs: 10}}
	rep.Stats[PhaseCPMBuild] = PhaseStat{Time: time.Millisecond, Count: 4}

	reg := NewRegistry()
	d := NewDriftRecorder(reg, "drift")
	d.Record(0, 0, true)
	d.Record(0, 0.004, false)

	var buf bytes.Buffer
	if err := WriteSummary(&buf, rep, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"phase breakdown", "simulate", "cpm_build", "75.0%",
		`drift{cert="exact"}`, `drift{cert="inexact"}`, "n=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pattern_gen") {
		t.Fatalf("summary lists phase with no spans:\n%s", out)
	}
}

func TestBucketLabel(t *testing.T) {
	bounds := []float64{-1, 0, 1}
	cases := []string{"(-inf, -1]", "(-1, 0]", "(0, 1]", "(1, +inf]"}
	for i, want := range cases {
		if got := bucketLabel(bounds, i); got != want {
			t.Fatalf("bucket %d = %q, want %q", i, got, want)
		}
	}
	if bucketLabel(nil, 0) != "(-inf, +inf]" {
		t.Fatal("empty bounds label")
	}
}

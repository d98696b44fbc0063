package sasimi

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
)

// TestTimelineFlowParallelBitIdentical is the differential guarantee of
// the span recorder: attaching a timeline must not change a single bit of
// the flow's output at any worker count. The recorder only ever observes
// from the dispatching goroutine, so this pins that contract.
func TestTimelineFlowParallelBitIdentical(t *testing.T) {
	base := Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.10,
			NumPatterns: 2000,
			Seed:        11,
		},
		KeepTrace:  true,
		VerifyTopK: 3,
	}
	for _, workers := range workerSweep() {
		plain := base
		plain.Workers = workers
		plain.Metrics = obs.NewRegistry()
		want := fingerprint(runOn(t, "rca8", plain), plain.Metrics)

		traced := base
		traced.Workers = workers
		traced.Metrics = obs.NewRegistry()
		traced.Timeline = timeline.NewRecorder(workers+1, 0)
		got := fingerprint(runOn(t, "rca8", traced), traced.Metrics)

		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: recorder attached diverges from recorder nil:\n got  %+v\n want %+v",
				workers, got, want)
		}
		if want.Iterations == 0 {
			t.Fatal("flow accepted nothing; differential check is vacuous")
		}
		if traced.Timeline.SpanCount() == 0 {
			t.Errorf("workers=%d: recorder attached but no spans recorded", workers)
		}
	}
}

// TestTimelineFlowSpanTaxonomy runs one traced flow and checks the span
// names the profiler's analysis relies on actually appear, tagged with
// the right phases, and that dispatch spans carry busy accounting.
func TestTimelineFlowSpanTaxonomy(t *testing.T) {
	rec := timeline.NewRecorder(5, 0)
	res := runOn(t, "mul4", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.05,
			NumPatterns: 2000,
			Seed:        7,
		},
		Workers:    4,
		VerifyTopK: 3,
		Timeline:   rec,
	})
	if res.NumIterations == 0 {
		t.Fatal("flow made no progress; nothing to profile")
	}

	spans := rec.Snapshot()
	byName := map[string][]timeline.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for name, wantPhase := range map[string]obs.Phase{
		"sim.simulate":       obs.PhaseSimulate,
		"cpm.build":          obs.PhaseCPMBuild,
		"sasimi.gather":      obs.PhaseEstimate,
		"sasimi.score":       obs.PhaseEstimate,
		"sasimi.carry":       obs.PhaseEstimate,
		"sasimi.select":      obs.PhaseEstimate,
		"sasimi.verify_topk": obs.PhaseVerifyApply,
		"sasimi.apply":       obs.PhaseVerifyApply,
		"iteration":          obs.PhaseEstimate,
	} {
		group := byName[name]
		if len(group) == 0 {
			t.Errorf("no %q spans recorded", name)
			continue
		}
		for _, s := range group {
			if s.Phase != wantPhase {
				t.Errorf("%q span phase = %v, want %v", name, s.Phase, wantPhase)
				break
			}
		}
	}
	// The verify step's dispatches must fan out as per-worker child spans
	// (Worker >= 0, causally parented on a dispatch).
	var verifyWorkerSpans, verifyDispatches int
	for _, s := range byName["sasimi.verify_topk"] {
		if s.Worker >= 0 {
			verifyWorkerSpans++
			if s.Parent == 0 {
				t.Error("per-worker verify_topk span has no parent dispatch")
			}
		} else if s.Tasks > 0 {
			verifyDispatches++
		}
	}
	if verifyDispatches == 0 {
		t.Error("no verify_topk dispatch spans recorded at workers=4")
	}
	if verifyWorkerSpans == 0 {
		t.Error("no per-worker verify_topk child spans recorded at workers=4")
	}

	// Dispatch spans (driver lane, task-counted) must carry busy time, and
	// some worker span must exist to attribute it to.
	var dispatches, workerSpans int
	for _, s := range spans {
		if s.Worker < 0 && s.Tasks > 0 {
			dispatches++
			if s.Busy <= 0 {
				t.Errorf("dispatch span %q has no busy accounting", s.Name)
			}
		}
		if s.Worker >= 0 {
			workerSpans++
		}
	}
	if dispatches == 0 {
		t.Error("no dispatch spans recorded")
	}
	if workerSpans == 0 {
		t.Error("no per-worker spans recorded")
	}
	// The flow must label spans with their iteration: iteration 1 spans
	// exist once a substitution was accepted.
	maxIter := int32(0)
	for _, s := range spans {
		if s.Iter > maxIter {
			maxIter = s.Iter
		}
	}
	if maxIter == 0 && res.NumIterations > 0 {
		t.Error("no span carries a nonzero iteration label")
	}
}

// TestTimelinePhaseSpansAreThePhaseReport pins that phase timing has one
// source: the driver-lane "phase:<name>" spans are the very measurements
// behind Result.Phases (same count, same summed duration to the
// nanosecond), recorded with their true start, so each encloses every
// other driver-lane span that overlaps it. The iteration span crosses
// phase boundaries and the accept marker follows its phase, so both are
// exempt from the nesting check.
func TestTimelinePhaseSpansAreThePhaseReport(t *testing.T) {
	rec := timeline.NewRecorder(3, 0)
	res := runOn(t, "c880", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.03,
			NumPatterns: 2048,
			Seed:        1,
		},
		Workers:    2,
		VerifyTopK: 2,
		Timeline:   rec,
		Metrics:    obs.NewRegistry(),
	})
	if res.NumIterations == 0 {
		t.Fatal("flow made no progress; nothing to compare")
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("recorder dropped %d spans; the span sums would be partial", d)
	}

	var count [obs.NumPhases]int64
	var wall [obs.NumPhases]time.Duration
	var phases, nested []timeline.Span
	for _, s := range rec.Snapshot() {
		switch {
		case s.Worker != -1:
		case strings.HasPrefix(s.Name, "phase:"):
			if s.Name != "phase:"+s.Phase.String() {
				t.Fatalf("span %q tagged with phase %v", s.Name, s.Phase)
			}
			count[s.Phase]++
			wall[s.Phase] += time.Duration(s.Dur())
			phases = append(phases, s)
		case s.Name != "iteration" && s.Name != "accept":
			nested = append(nested, s)
		}
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		st := res.Phases.Stats[p]
		if count[p] != st.Count || wall[p] != st.Time {
			t.Errorf("phase %v: %d spans / %v on the timeline, Result.Phases has %d / %v",
				p, count[p], wall[p], st.Count, st.Time)
		}
	}
	if len(nested) == 0 {
		t.Fatal("no driver-lane spans inside the phases")
	}
	outside := 0
	for _, c := range nested {
		for _, ph := range phases {
			overlaps := c.T0 < ph.T1 && ph.T0 < c.T1
			if overlaps && (c.T0 < ph.T0 || c.T1 > ph.T1) {
				if outside < 5 {
					t.Errorf("%s [%d,%d] sticks out of %s [%d,%d]",
						c.Name, c.T0, c.T1, ph.Name, ph.T0, ph.T1)
				}
				outside++
				break
			}
		}
	}
	if outside > 0 {
		t.Errorf("%d of %d driver-lane spans stick out of their phase span", outside, len(nested))
	}
}

// TestFlowRuntimeAndSpeedupGauges pins the observability gauges the bench
// observatory consumes: the pool's sasimi_parallel_speedup and the
// runtime sampler's gauges all land in the flow's registry.
func TestFlowRuntimeAndSpeedupGauges(t *testing.T) {
	reg := obs.NewRegistry()
	res := runOn(t, "rca8", Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   0.10,
			NumPatterns: 2000,
			Seed:        11,
		},
		Workers: 2,
		Metrics: reg,
	})
	if res.NumIterations == 0 {
		t.Fatal("flow made no progress")
	}
	snap := reg.Snapshot()
	speedup, ok := snap.Gauges["sasimi_parallel_speedup"]
	if !ok {
		t.Fatal("sasimi_parallel_speedup gauge missing")
	}
	if speedup <= 0 {
		t.Errorf("sasimi_parallel_speedup = %f, want > 0", speedup)
	}
	for _, name := range []string{
		"runtime_goroutines",
		"runtime_gomaxprocs",
		"runtime_sched_latency_p50_s",
		"runtime_sched_latency_p99_s",
		"runtime_gc_pause_p99_s",
		"runtime_gc_cycles_total",
		"runtime_heap_alloc_bytes_total",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("runtime gauge %q missing from the flow registry", name)
		}
	}
}

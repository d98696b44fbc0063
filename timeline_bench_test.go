package batchals

// Overhead pin for the causal span recorder: attaching a timeline to the
// parallel estimation engine must cost at most 2% of
// BenchmarkParallelEstimate's workload (design constraint #1 of
// internal/obs/timeline). Two halves:
//
//   - allocations: recording must add zero allocations per estimation
//     pass beyond the recorder's own pre-sized rings (checked exactly
//     with testing.AllocsPerRun — allocation counts are deterministic,
//     so this is the strong cross-machine signal);
//   - time: median-of-pairs comparison of the process's CPU time
//     (processTime), interleaved so frequency scaling and cache state hit
//     both sides equally. Skipped under -race (detector instrumentation
//     dwarfs the recorder) and in -short mode.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"batchals/internal/bench"
	"batchals/internal/flow"
	"batchals/internal/obs/timeline"
	"batchals/internal/sasimi"
)

const tlOverheadPatterns = 2048

// tlPassRuns is how many passes a side one pair of
// TestTimelineOverheadOnParallelEstimate times.
const tlPassRuns = 4

func tlEstimateOnce(tb testing.TB, golden *Network, rec *timeline.Recorder) {
	cands, err := sasimi.EstimateAll(golden, golden.Clone(), sasimi.Config{
		Budget: flow.Budget{
			Metric:      ErrorRate,
			Threshold:   0.05,
			NumPatterns: tlOverheadPatterns,
			Seed:        1,
		},
		Workers:  2,
		Timeline: rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(cands) == 0 {
		tb.Fatal("no candidates on c880")
	}
}

// BenchmarkTimelineOverhead reports the recorder's cost side by side:
// compare the recorder=off and recorder=on ns/op in the bench baseline.
func BenchmarkTimelineOverhead(b *testing.B) {
	golden, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("recorder=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tlEstimateOnce(b, golden, nil)
		}
	})
	b.Run("recorder=on", func(b *testing.B) {
		rec := timeline.NewRecorder(3, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Reset() // a full ring would drop spans and flatter the cost
			tlEstimateOnce(b, golden, rec)
		}
		b.ReportMetric(float64(rec.SpanCount()), "spans")
	})
}

// TestTimelineOverheadAllocations pins the allocation half exactly: one
// estimation pass with a recorder attached may allocate at most a handful
// of objects more than one without (the pool's one-time lane arrays);
// per-span recording itself allocates nothing.
func TestTimelineOverheadAllocations(t *testing.T) {
	golden, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	rec := timeline.NewRecorder(3, 0)
	// Warm both paths so lazy caches don't skew the counts.
	tlEstimateOnce(t, golden, nil)
	tlEstimateOnce(t, golden, rec)

	without := testing.AllocsPerRun(3, func() {
		tlEstimateOnce(t, golden, nil)
	})
	rec.Reset()
	with := testing.AllocsPerRun(3, func() {
		rec.Reset()
		tlEstimateOnce(t, golden, rec)
	})
	// The traced pass re-uses the recorder; the only extra allocations
	// permitted are the pool's AttachTimeline arrays and label context
	// (one-time, O(workers)). 64 is far below one allocation per span.
	const maxExtra = 64
	if with > without+maxExtra {
		t.Errorf("recorder adds %.0f allocations per estimation pass (%.0f -> %.0f), want <= %d",
			with-without, without, with, maxExtra)
	}
	if rec.SpanCount() == 0 {
		t.Fatal("recorder attached but recorded nothing; allocation pin is vacuous")
	}
}

// TestTimelineOverheadOnParallelEstimate pins the timing half: the median
// traced/untraced ratio over interleaved pairs must stay within the 2%
// budget (plus a small absolute guard for sub-millisecond jitter).
//
// Each pass is timed by the CPU time this process spends on it, not by
// wall time: under `go test ./...` other packages' tests share the CPUs,
// and a pass that waits for a CPU costs wall time the recorder did not
// add (single pairs spread from 0.55 to 2.75 timed by the wall clock).
// One pass takes about 6 ms on a 2-CPU host, where a single pass's CPU
// time still scatters by ±10% and drifts as the host's load does, so a
// pair sums tlPassRuns passes a side, traced and untraced passes
// alternating, and the median needs many pairs and a level field: which
// side runs first alternates from pass to pass and from pair to pair
// (with a fixed order the second pass inherited the first one's garbage,
// charged to the traced side every time), and every timed pass starts
// after a collection, so no pass pays for garbage another pass left. The
// recorder's own allocations are pinned exactly by
// TestTimelineOverheadAllocations.
func TestTimelineOverheadOnParallelEstimate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation dwarfs the recorder's cost")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	golden, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	rec := timeline.NewRecorder(3, 0)
	// Warm-up: JIT-free, but caches, page faults and the lazy topo order
	// must not land on one side.
	tlEstimateOnce(t, golden, nil)
	tlEstimateOnce(t, golden, rec)

	const pairs = 64
	timed := func(r *timeline.Recorder) time.Duration {
		if r != nil {
			r.Reset()
		}
		runtime.GC()
		start := processTime()
		tlEstimateOnce(t, golden, r)
		return processTime() - start
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		var off, on time.Duration
		for k := 0; k < tlPassRuns; k++ {
			if (i+k)%2 == 0 {
				off += timed(nil)
				on += timed(rec)
			} else {
				on += timed(rec)
				off += timed(nil)
			}
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	sort.Float64s(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	// 2% budget plus 1% measurement-noise guard: the recorder's real cost
	// is a few dozen Emit calls per pass, orders of magnitude below this.
	if median > 1.03 {
		t.Errorf("timeline recorder overhead: median traced/untraced = %.4f, want <= 1.03 (2%% budget + noise guard); ratios %v",
			median, ratios)
	}
	t.Logf("timeline overhead: median ratio %.4f over %d interleaved pairs", median, pairs)
}

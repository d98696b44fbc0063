package batchals

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelVerifyCancellationStress cancels ApproximateContext at 100
// seeded random points — many landing mid-VerifyTopK, where the verifier
// is fanned out across the pool — and pins two properties: no goroutine
// leaks (the count settles back to the pre-stress level) and the flow
// stays reusable (a full run afterwards succeeds). The "Parallel" name
// puts it in CI's race-detector sweep, where a cancellation path that
// abandons in-flight workers without the barrier shows up as a race on
// the shared scratch.
func TestParallelVerifyCancellationStress(t *testing.T) {
	golden, err := Benchmark("cmp8")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Metric:      ErrorRate,
		Threshold:   0.04,
		NumPatterns: 1000,
		Seed:        11,
		Workers:     4,
		VerifyTopK:  4,
	}

	// Calibrate: one uncancelled run measures the flow's duration so the
	// random cancel points spread across the whole iteration loop rather
	// than clustering at startup.
	start := time.Now()
	if _, err := ApproximateContext(context.Background(), golden, opts); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full <= 0 {
		full = time.Millisecond
	}

	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(17))
	var cancelled, completed atomic.Int64
	for i := 0; i < 100; i++ {
		delay := time.Duration(rng.Int63n(int64(full) + 1))
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		_, err := ApproximateContext(ctx, golden, opts)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			completed.Add(1)
		case errors.Is(err, context.Canceled):
			cancelled.Add(1)
		default:
			t.Fatalf("run %d: unexpected error %v", i, err)
		}
	}
	if cancelled.Load() == 0 {
		t.Error("no run was cancelled; the stress points never landed inside the flow")
	}
	t.Logf("cancelled %d, completed %d", cancelled.Load(), completed.Load())

	// Goroutine settle: pool workers exit on Close; allow the runtime a
	// moment to reap them before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before stress, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reusable after the storm: a fresh uncancelled run still converges.
	res, err := ApproximateContext(context.Background(), golden, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumIterations == 0 {
		t.Error("post-stress run accepted nothing; flow state did not recover")
	}
}

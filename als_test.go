package batchals

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
)

func TestFacadeQuickPath(t *testing.T) {
	golden, err := Benchmark("mul4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Approximate(golden, Options{
		Metric:      ErrorRate,
		Threshold:   0.03,
		NumPatterns: 1500,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 0.03+1e-9 {
		t.Fatalf("error %v over budget", res.FinalError)
	}
	if res.FinalArea > res.OriginalArea {
		t.Fatal("area grew")
	}
	rep := MeasureError(golden, res.Approx, 4000, 99)
	if rep.ErrorRate > 0.06 {
		t.Fatalf("independent measurement %v too high", rep.ErrorRate)
	}
	exact := MeasureErrorExact(golden, res.Approx)
	if exact.ErrorRate > 0.06 {
		t.Fatalf("exact %v too high", exact.ErrorRate)
	}
}

func TestFacadeBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) == 0 {
		t.Fatal("no benchmarks")
	}
	if _, err := Benchmark("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFacadeAreaDelay(t *testing.T) {
	n, _ := Benchmark("rca8")
	if Area(n) <= 0 || Delay(n) <= 0 {
		t.Fatal("area/delay not positive")
	}
}

func TestFacadeSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n, _ := Benchmark("cmp8")
	for _, ext := range []string{".bench", ".blif"} {
		path := filepath.Join(dir, "cmp8"+ext)
		if err := Save(path, n); err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		if rep := MeasureErrorExact(n, back); rep.ErrorRate != 0 {
			t.Fatalf("%s: round trip changed behaviour", ext)
		}
	}
}

func TestFacadeUnknownFormat(t *testing.T) {
	n, _ := Benchmark("rca8")
	var buf bytes.Buffer
	if err := WriteTo(&buf, ".v", n); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := Read(&buf, ".v", "x"); err == nil {
		t.Fatal("unknown format accepted on read")
	}
}

func TestFacadeAEM(t *testing.T) {
	golden, _ := Benchmark("mul4")
	res, err := Approximate(golden, Options{
		Metric:      AvgErrorMagnitude,
		Threshold:   3,
		NumPatterns: 1500,
		Seed:        2,
		KeepTrace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 3+1e-9 {
		t.Fatalf("AEM %v over budget", res.FinalError)
	}
	if len(res.Iterations) != res.NumIterations {
		t.Fatal("trace length mismatch")
	}
}

func TestFacadeSentinelErrors(t *testing.T) {
	if _, err := Benchmark("not-a-benchmark"); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	golden, err := Benchmark("rca8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Approximate(golden, Options{Threshold: -1}); !errors.Is(err, ErrBadThreshold) {
		t.Fatalf("got %v, want ErrBadThreshold", err)
	}
	if _, err := Approximate(golden, Options{Threshold: 0.1, NumPatterns: -5}); !errors.Is(err, ErrNoPatterns) {
		t.Fatalf("got %v, want ErrNoPatterns", err)
	}
}

func TestFacadeApproximateContext(t *testing.T) {
	golden, err := Benchmark("rca8")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ApproximateContext(ctx, golden, Options{Threshold: 0.05, NumPatterns: 500})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil || res.NumIterations != 0 {
		t.Fatal("cancelled run must return the empty partial result")
	}
	// An un-cancelled context behaves exactly like Approximate.
	got, err := ApproximateContext(context.Background(), golden, Options{
		Threshold: 0.05, NumPatterns: 1000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Approximate(golden, Options{Threshold: 0.05, NumPatterns: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalArea != want.FinalArea || got.NumIterations != want.NumIterations {
		t.Fatal("ApproximateContext diverges from Approximate")
	}
}

package benchmeta

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: batchals
BenchmarkParallelEstimate-4   	      10	 104857600 ns/op	 1048576 B/op	    4096 allocs/op
BenchmarkFlow/rca8-4          	       1	 500000000 ns/op	     0.850 area_ratio
BenchmarkNoSuffix             	     100	    123456 ns/op
PASS
ok  	batchals	12.3s
`
	benches, err := ParseBenchOutput(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benches, want 3", len(benches))
	}
	b := benches[0]
	if b.Name != "BenchmarkParallelEstimate" {
		t.Errorf("name = %q (GOMAXPROCS suffix not stripped?)", b.Name)
	}
	if b.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", b.Iterations)
	}
	if b.Metrics["ns/op"] != 104857600 || b.Metrics["B/op"] != 1048576 || b.Metrics["allocs/op"] != 4096 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	if benches[1].Name != "BenchmarkFlow/rca8" {
		t.Errorf("sub-benchmark name = %q, want slash path kept", benches[1].Name)
	}
	if benches[1].Metrics["area_ratio"] != 0.850 {
		t.Errorf("custom metric = %v", benches[1].Metrics)
	}
	if benches[2].Name != "BenchmarkNoSuffix" {
		t.Errorf("suffix-free name mangled: %q", benches[2].Name)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-4":          "BenchmarkX",
		"BenchmarkX-16":         "BenchmarkX",
		"BenchmarkX":            "BenchmarkX",
		"BenchmarkA/sub-case-8": "BenchmarkA/sub-case",
		"BenchmarkA/rate-1x":    "BenchmarkA/rate-1x", // non-numeric suffix kept
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Baseline{
		SchemaVersion: SchemaVersion,
		Benchmarks:    []Bench{{Name: "B", Metrics: map[string]float64{"ns/op": 1}}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid baseline rejected: %v", err)
	}
	cases := []struct {
		name string
		b    Baseline
	}{
		{"future version", Baseline{SchemaVersion: SchemaVersion + 1,
			Benchmarks: []Bench{{Name: "B", Metrics: map[string]float64{"ns/op": 1}}}}},
		{"no benchmarks", Baseline{SchemaVersion: 2}},
		{"empty name", Baseline{Benchmarks: []Bench{{Metrics: map[string]float64{"ns/op": 1}}}}},
		{"duplicate", Baseline{Benchmarks: []Bench{
			{Name: "B", Metrics: map[string]float64{"ns/op": 1}},
			{Name: "B", Metrics: map[string]float64{"ns/op": 2}}}}},
		{"no metrics", Baseline{Benchmarks: []Bench{{Name: "B"}}}},
	}
	for _, tc := range cases {
		if err := tc.b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid baseline", tc.name)
		}
	}
}

func TestLoadV1Compat(t *testing.T) {
	// PR2-era baselines: no schema_version, no env. The committed ones
	// also carry a "phases" block that no field reads any more; it must
	// not stop them loading.
	docs := []struct{ name, doc string }{
		{"plain", `{
  "generated_with": "go test -bench",
  "benchmarks": [
    {"name": "BenchmarkParallelEstimate", "iterations": 1, "metrics": {"ns/op": 5e8}}
  ]
}`},
		{"phases block", `{
  "generated_with": "go test -bench",
  "benchmarks": [
    {"name": "BenchmarkParallelEstimate", "iterations": 1, "metrics": {"ns/op": 5e8}}
  ],
  "phases": {"circuit": "c880", "m": 2000, "threshold": 0.01, "total_ns": 820026560,
    "phase_ns": {"estimate": 707106090}, "spans": {"estimate": 43}}
}`},
	}
	for _, tc := range docs {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "v1.json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := Load(path)
			if err != nil {
				t.Fatalf("v1 baseline rejected: %v", err)
			}
			if b.Version() != 1 {
				t.Errorf("Version() = %d, want 1 for legacy documents", b.Version())
			}
			if b.Env != nil {
				t.Error("v1 baseline grew an Env")
			}
			if b.MinIterations() != 1 {
				t.Errorf("MinIterations = %d, want 1", b.MinIterations())
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted invalid JSON")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("Load accepted a missing file")
	}
}

func TestCaptureEnv(t *testing.T) {
	env := CaptureEnv("abc123")
	if env.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q", env.GoVersion)
	}
	if env.GOOS != runtime.GOOS || env.GOARCH != runtime.GOARCH {
		t.Errorf("GOOS/GOARCH = %s/%s", env.GOOS, env.GOARCH)
	}
	if env.GOMAXPROCS < 1 || env.NumCPU < 1 {
		t.Errorf("GOMAXPROCS/NumCPU = %d/%d", env.GOMAXPROCS, env.NumCPU)
	}
	if env.Commit != "abc123" {
		t.Errorf("Commit = %q", env.Commit)
	}
}

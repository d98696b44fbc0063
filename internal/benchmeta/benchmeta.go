// Package benchmeta defines the committed BENCH_*.json baseline schema
// shared by cmd/benchjson (which writes baselines) and cmd/benchdiff
// (which compares two of them with noise-aware thresholds).
//
// Schema history:
//
//	v1 (unversioned, PR 2–5): {generated_with, benchmarks, phases?}
//	v2 (PR 7): adds schema_version and env (go version, GOOS/GOARCH,
//	    GOMAXPROCS, CPU model, commit) so a diff can tell whether two
//	    baselines are comparable at all, and warn when a timing delta is
//	    really a hardware delta.
//
// Loaders accept both: a missing schema_version is read as v1.
package benchmeta

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// SchemaVersion is the current baseline schema version.
const SchemaVersion = 2

// Bench is one parsed benchmark result line. Metrics maps unit -> value
// for the standard pairs (ns/op, B/op, allocs/op) and any custom
// b.ReportMetric units (area_ratio, speedup_x, ...).
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Env records where a baseline was measured. Two baselines with differing
// Env fields are still diffable, but timing deltas across differing CPU
// models or GOMAXPROCS are hardware artefacts, not regressions —
// benchdiff surfaces the mismatch instead of gating on it.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

// Baseline is the committed BENCH_*.json document. Older documents may
// carry a "phases" block (a smoke flow's phase breakdown); loaders skip
// it.
type Baseline struct {
	SchemaVersion int     `json:"schema_version,omitempty"` // 0 = legacy v1
	GeneratedWith string  `json:"generated_with"`
	Env           *Env    `json:"env,omitempty"`
	Benchmarks    []Bench `json:"benchmarks"`
}

// Version normalises the schema version: documents written before the
// field existed are v1.
func (b *Baseline) Version() int {
	if b.SchemaVersion == 0 {
		return 1
	}
	return b.SchemaVersion
}

// Validate rejects documents that cannot be a baseline of any version.
func (b *Baseline) Validate() error {
	if v := b.Version(); v < 1 || v > SchemaVersion {
		return fmt.Errorf("benchmeta: unsupported schema_version %d (max %d)", v, SchemaVersion)
	}
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("benchmeta: baseline has no benchmarks")
	}
	seen := make(map[string]bool, len(b.Benchmarks))
	for _, bm := range b.Benchmarks {
		if bm.Name == "" {
			return fmt.Errorf("benchmeta: benchmark with empty name")
		}
		if seen[bm.Name] {
			return fmt.Errorf("benchmeta: duplicate benchmark %q", bm.Name)
		}
		seen[bm.Name] = true
		if len(bm.Metrics) == 0 {
			return fmt.Errorf("benchmeta: benchmark %q has no metrics", bm.Name)
		}
	}
	return nil
}

// MinIterations returns the smallest iteration count across the
// baseline's benchmarks — 1 means the run was benchtime=1x, whose
// single-iteration timings are the noisiest a comparison can consume.
func (b *Baseline) MinIterations() int64 {
	min := int64(0)
	for _, bm := range b.Benchmarks {
		if min == 0 || bm.Iterations < min {
			min = bm.Iterations
		}
	}
	return min
}

// Load reads and validates a baseline file (v1 or v2).
func Load(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmeta: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("benchmeta: %s: %w", path, err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// CaptureEnv records the current process environment. The CPU model is
// best-effort from /proc/cpuinfo (empty elsewhere); commit is the
// caller's to fill (flag, GITHUB_SHA, git rev-parse).
func CaptureEnv(commit string) *Env {
	return &Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

// cpuModel extracts the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// ParseBenchOutput extracts benchmark result lines from `go test -bench`
// output. A result line is "BenchmarkName-P <iters> <value> <unit>
// [<value> <unit>]...". The trailing "-P" GOMAXPROCS suffix is stripped;
// sub-benchmark names (Benchmark/case-P) keep their slash path.
func ParseBenchOutput(r io.Reader) ([]Bench, error) {
	var out []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{
			Name:       trimProcSuffix(f[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmeta: line %q: bad value %q", sc.Text(), f[i])
			}
			b.Metrics[f[i+1]] = v
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchmeta: scan bench output: %w", err)
	}
	return out, nil
}

// trimProcSuffix strips the "-P" GOMAXPROCS suffix from a benchmark name
// without touching dashes inside the name or its sub-benchmark path.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

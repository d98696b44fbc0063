package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

// Limits on BENCHMARK.json that the regression gate reading it enforces.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := loadJSON(specFile, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecShape checks BENCHMARK.json has exactly the keys the regression
// gate reads and stays within its limits.
func TestSpecShape(t *testing.T) {
	raw, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, "top level", top, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	for field, keys := range map[string][]string{
		"workloads":  {"name", "why"},
		"end_to_end": {"name", "unit", "better", "bound"},
		"per_layer":  {"name", "unit", "better"},
	} {
		var entries []map[string]json.RawMessage
		if err := json.Unmarshal(top[field], &entries); err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		for i, e := range entries {
			wantKeys(t, fmt.Sprintf("%s[%d]", field, i), e, keys...)
		}
	}

	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > maxWorkloads {
		t.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(spec.EndToEnd); n < 1 || n > maxEndToEnd {
		t.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(spec.PerLayer); n < 1 || n > maxPerLayer {
		t.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	for _, arg := range spec.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the repository", arg)
		}
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchmark/") {
			t.Errorf("command argument %q names a file outside benchmark/", arg)
		}
	}
	for _, w := range spec.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
}

func wantKeys(t *testing.T, where string, obj map[string]json.RawMessage, keys ...string) {
	t.Helper()
	var got []string
	for k := range obj {
		got = append(got, k)
	}
	sort.Strings(got)
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s keys = %v, want %v", where, got, want)
	}
}

// TestSpecMatchesDeclarations keeps BENCHMARK.json and the metric tables
// of this package in step (the program makes the same check before every
// run), and checks that every direction is one of the two the gate reads.
func TestSpecMatchesDeclarations(t *testing.T) {
	spec := loadSpec(t)
	for _, err := range checkSpec(spec) {
		t.Error(err)
	}
	for _, e := range spec.EndToEnd {
		if e.Better != "higher" && e.Better != "lower" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
	}
	for _, l := range spec.PerLayer {
		if l.Better != "higher" && l.Better != "lower" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
	}
}

// TestCheckSpecFindsDrift checks that checkSpec reports a renamed metric
// and a bound the gate would refuse.
func TestCheckSpecFindsDrift(t *testing.T) {
	spec := loadSpec(t)
	spec.PerLayer[0].Name += "_renamed"
	spec.EndToEnd[0].Bound = 0
	if errs := checkSpec(spec); len(errs) != 2 {
		t.Errorf("checkSpec found %d disagreements, want 2: %v", len(errs), errs)
	}
}

// TestSpecCommandRuns checks the command points at this directory's
// runner.
func TestSpecCommandRuns(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Command) < 2 || spec.Command[0] != "bash" {
		t.Fatalf("command %v, want bash benchmark/run.sh", spec.Command)
	}
	if _, err := os.Stat(filepath.Join("..", spec.Command[1])); err != nil {
		t.Errorf("command script: %v", err)
	}
}

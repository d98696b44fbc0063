package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"batchals"
)

// toyWorkloads are the flow workloads at a size that runs in seconds.
var toyWorkloads = []flowSpec{
	{
		name: "c880-er", distinct: 2, build: registry("c880"),
		opts: batchals.Options{Metric: batchals.ErrorRate, Threshold: 0.01, NumPatterns: 2000, VerifyTopK: 8, MaxIterations: 3},
	},
	{
		name: "mul8-aem", distinct: 2, build: registry("mul8"),
		opts: batchals.Options{Metric: batchals.AvgErrorMagnitude, Threshold: 64, NumPatterns: 256, MaxIterations: 3},
	},
	{
		name: "synth3k-mono", distinct: 2, build: tiled(2000, 10),
		opts: batchals.Options{Metric: batchals.ErrorRate, Threshold: 0.02, NumPatterns: 256, MaxIterations: 1},
	},
	{
		name: "synth20k-part", distinct: 2, build: tiled(2000, 50),
		opts: batchals.Options{
			Metric: batchals.ErrorRate, Threshold: 0.02, NumPatterns: 256, MaxIterations: 1,
			Partition: &batchals.PartitionOptions{TargetCells: 500},
		},
	},
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, at toy
// size against a freshly built alsd, and requires every check to pass and
// every declared metric to be reported.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds alsd and runs every workload")
	}
	if len(toyWorkloads) != len(flowWorkloads) {
		t.Fatalf("%d toy workloads for %d flow workloads", len(toyWorkloads), len(flowWorkloads))
	}
	alsd := filepath.Join(t.TempDir(), "alsd")
	if out, err := exec.Command("go", "build", "-o", alsd, "batchals/cmd/alsd").CombinedOutput(); err != nil {
		t.Fatalf("build alsd: %v\n%s", err, out)
	}
	ctx := context.Background()
	for _, trace := range []bool{false, true} {
		cfg := runConfig{seed: 1, window: time.Second, trace: trace, alsd: alsd}
		for _, spec := range toyWorkloads {
			t.Run(fmt.Sprintf("%s/trace=%v", spec.name, trace), func(t *testing.T) {
				o, err := runFlows(ctx, spec, cfg)
				checkOutcome(t, spec.name, trace, o, err)
			})
		}
		t.Run(fmt.Sprintf("%s/trace=%v", serveJob.name, trace), func(t *testing.T) {
			o, err := runServe(ctx, cfg)
			checkOutcome(t, serveJob.name, trace, o, err)
		})
	}
}

func checkOutcome(t *testing.T, name string, trace bool, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, tr := range []bool{false, true} {
		for _, d := range declared(tr) {
			known[d.name] = true
		}
	}
	for m := range o.metrics {
		if !known[m] {
			t.Errorf("%s: metric %s is measured but not declared", name, m)
		}
	}
	res := report(name, o, trace)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
	}
	if want := len(declared(trace)); len(res.Metrics) != want {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), want)
	}
}

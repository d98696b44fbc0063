package batchals

import (
	"context"
	"errors"
	"testing"

	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/partition"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
	"batchals/internal/snap"
)

// TestFlowMatchesApproximate: the builder API and the legacy wrapper are
// the same flow — bit-identical results from identical options.
func TestFlowMatchesApproximate(t *testing.T) {
	golden, err := Benchmark("mul4")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Threshold: 0.03, NumPatterns: 1500, Seed: 1}
	a, err := Approximate(golden, opts)
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlow(golden, opts)
	b, err := fl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Approx.Dump() != b.Approx.Dump() {
		t.Fatal("Flow.Run and Approximate produced different circuits")
	}
	if a.FinalError != b.FinalError || a.FinalArea != b.FinalArea {
		t.Fatalf("results differ: (%g, %g) vs (%g, %g)", a.FinalError, a.FinalArea, b.FinalError, b.FinalArea)
	}
	if fl.PartitionReport() != nil {
		t.Fatal("monolithic run should have no partition report")
	}
}

// TestPartitionedFlowDifferential is the issue's differential suite: on
// four benchmarks, the partitioned flow must stay within the global
// threshold (measured independently), produce multiple parts, sum the
// kept parts' phase timers into Result.Phases, and be bit-identical
// across worker counts.
func TestPartitionedFlowDifferential(t *testing.T) {
	cases := []struct {
		name      string
		cells     int
		threshold float64
	}{
		{"rca8", 15, 0.05},
		{"dec4", 12, 0.05},
		{"cmp8", 15, 0.05},
		{"c880", 100, 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := Benchmark(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			var dumps [2]string
			for i, workers := range []int{1, 4} {
				opts := Options{
					Metric:      ErrorRate,
					Threshold:   tc.threshold,
					NumPatterns: 2000,
					Seed:        3,
					Workers:     workers,
					Partition:   &PartitionOptions{TargetCells: tc.cells, MaxCut: 16},
				}
				fl := NewFlow(golden, opts)
				res, err := fl.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				rep := fl.PartitionReport()
				if rep == nil {
					t.Fatal("partitioned run has no report")
				}
				if rep.NumParts < 2 {
					t.Fatalf("want >=2 parts, got %d", rep.NumParts)
				}
				if res.FinalError > tc.threshold+1e-9 {
					t.Fatalf("reported error %g over threshold %g", res.FinalError, tc.threshold)
				}
				// Independent re-measurement with a different seed: the
				// acceptance gate's number must hold up out of sample.
				meas := MeasureError(golden, res.Approx, 4000, 99).ErrorRate
				if meas > tc.threshold+0.01 {
					t.Fatalf("independently measured error %g far over threshold %g", meas, tc.threshold)
				}
				// Every kept part ran at least one CPM phase.
				var kept int64
				for _, p := range rep.Parts {
					if p.Outputs > 0 && !p.Reverted {
						kept++
					}
				}
				if st := res.Phases.Stats[obs.PhaseCPMBuild]; st.Time <= 0 || st.Count < kept {
					t.Fatalf("cpm_build phase %v over %d spans, want time > 0 and >= %d spans", st.Time, st.Count, kept)
				}
				dumps[i] = res.Approx.Dump()
			}
			if dumps[0] != dumps[1] {
				t.Fatal("partitioned flow not deterministic across worker counts")
			}
		})
	}
}

// TestPartitionedFlowDegenerate: a part target larger than the circuit
// falls back to the monolithic flow but still reports a one-part plan.
func TestPartitionedFlowDegenerate(t *testing.T) {
	golden, err := Benchmark("mul4")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Threshold: 0.03, NumPatterns: 1000, Seed: 1,
		Partition: &PartitionOptions{TargetCells: 100000}}
	fl := NewFlow(golden, opts)
	res, err := fl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := fl.PartitionReport()
	if rep == nil || rep.NumParts != 1 {
		t.Fatalf("want degenerate 1-part report, got %+v", rep)
	}
	mono, err := Approximate(golden, Options{Threshold: 0.03, NumPatterns: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx.Dump() != mono.Approx.Dump() {
		t.Fatal("degenerate partitioned run differs from monolithic flow")
	}
}

// TestPartitionedFlowRejectsAEM: the partitioned path is ER-only.
func TestPartitionedFlowRejectsAEM(t *testing.T) {
	golden, err := Benchmark("rca8")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewFlow(golden, Options{
		Metric:    AvgErrorMagnitude,
		Threshold: 2,
		Partition: &PartitionOptions{TargetCells: 15},
	}).Run(context.Background())
	if err == nil {
		t.Fatal("want error for AEM + partition")
	}
}

// TestPartitionTimelineLanes: in a partitioned run the per-part flows
// show up as partition.flow spans on distinct worker lanes — the
// partition-level parallelism is visible, not inferred.
func TestPartitionTimelineLanes(t *testing.T) {
	golden, err := Benchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(4)
	fl := NewFlow(golden, Options{
		Metric:      ErrorRate,
		Threshold:   0.02,
		NumPatterns: 2000,
		Seed:        3,
		Workers:     4,
		Partition:   &PartitionOptions{TargetCells: 100, MaxCut: 16},
	}).WithTimeline(tl)
	if _, err := fl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fl.PartitionReport().NumParts < 2 {
		t.Fatalf("want >=2 parts, got %d", fl.PartitionReport().NumParts)
	}
	lanes := map[int32]bool{}
	driver := map[string]bool{}
	for _, sp := range tl.Snapshot() {
		switch sp.Name {
		case "partition.flow":
			lanes[sp.Worker] = true
		case "partition.plan", "partition.extract", "partition.merge", "partition.measure":
			driver[sp.Name] = true
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("partition.flow spans on %d lanes, want >=2 (parts did not run in parallel)", len(lanes))
	}
	for _, name := range []string{"partition.plan", "partition.extract", "partition.merge", "partition.measure"} {
		if !driver[name] {
			t.Errorf("missing driver span %s", name)
		}
	}
}

// TestBudgetSentinelParity: the three config surfaces — the root Flow
// (monolithic and partitioned), sasimi.Config (Run and EstimateAll) and
// snap.Config — agree on the typed validation sentinels, so errors.Is
// works identically no matter which entry point rejected the budget.
// Inputs no sentinel covers are still errors, not panics.
func TestBudgetSentinelParity(t *testing.T) {
	golden, err := Benchmark("rca8")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	badThreshold := []struct {
		name string
		run  func() error
	}{
		{"flow-monolithic", func() error {
			_, err := NewFlow(golden, Options{Threshold: -1}).Run(ctx)
			return err
		}},
		{"flow-partitioned", func() error {
			_, err := NewFlow(golden, Options{Threshold: -1,
				Partition: &PartitionOptions{TargetCells: 15}}).Run(ctx)
			return err
		}},
		{"sasimi", func() error {
			_, err := sasimi.Run(golden, sasimi.Config{Budget: flow.Budget{Threshold: -1}})
			return err
		}},
		{"estimate-all", func() error {
			_, err := sasimi.EstimateAll(golden, golden.Clone(), sasimi.Config{Budget: flow.Budget{Threshold: -1}})
			return err
		}},
		{"snap", func() error {
			_, err := snap.Run(golden, snap.Config{Budget: flow.Budget{Threshold: -1}})
			return err
		}},
	}
	for _, c := range badThreshold {
		err := c.run()
		if !errors.Is(err, ErrBadThreshold) {
			t.Errorf("%s: error %v is not ErrBadThreshold", c.name, err)
		}
		if errors.Is(err, ErrNoPatterns) {
			t.Errorf("%s: bad threshold also matches ErrNoPatterns", c.name)
		}
	}
	noPatterns := []struct {
		name string
		run  func() error
	}{
		{"flow-monolithic", func() error {
			_, err := NewFlow(golden, Options{Threshold: 0.01, NumPatterns: -1}).Run(ctx)
			return err
		}},
		{"flow-partitioned", func() error {
			_, err := NewFlow(golden, Options{Threshold: 0.01, NumPatterns: -1,
				Partition: &PartitionOptions{TargetCells: 15}}).Run(ctx)
			return err
		}},
		{"sasimi", func() error {
			_, err := sasimi.Run(golden, sasimi.Config{Budget: flow.Budget{Threshold: 0.01, NumPatterns: -1}})
			return err
		}},
		{"estimate-all", func() error {
			_, err := sasimi.EstimateAll(golden, golden.Clone(),
				sasimi.Config{Budget: flow.Budget{Threshold: 0.01, NumPatterns: -1}})
			return err
		}},
		{"snap", func() error {
			_, err := snap.Run(golden, snap.Config{Budget: flow.Budget{Threshold: 0.01, NumPatterns: -1}})
			return err
		}},
	}
	for _, c := range noPatterns {
		err := c.run()
		if !errors.Is(err, ErrNoPatterns) {
			t.Errorf("%s: error %v is not ErrNoPatterns", c.name, err)
		}
	}

	wide, err := Benchmark("c2670") // 140 outputs, over the AEM limit
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Benchmark("mul4") // 8 inputs against rca8's 16
	if err != nil {
		t.Fatal(err)
	}
	wrongWidth := sasimi.Config{
		Budget:   flow.Budget{Threshold: 0.01},
		Patterns: sim.RandomPatterns(golden.NumInputs()+3, 64, 1),
	}
	rejected := []struct {
		name string
		run  func() error
	}{
		{"sasimi-wrong-width-patterns", func() error {
			_, err := sasimi.RunContext(ctx, golden, wrongWidth)
			return err
		}},
		{"estimate-all-wrong-width-patterns", func() error {
			_, err := sasimi.EstimateAll(golden, golden.Clone(), wrongWidth)
			return err
		}},
		{"partition-wrong-width-patterns", func() error {
			_, _, err := partition.Run(ctx, golden, wrongWidth, partition.Options{TargetCells: 15})
			return err
		}},
		{"estimate-all-aem-too-many-outputs", func() error {
			_, err := sasimi.EstimateAll(wide, wide.Clone(),
				sasimi.Config{Budget: flow.Budget{Metric: AvgErrorMagnitude, Threshold: 1}})
			return err
		}},
		{"estimate-all-mismatched-pair", func() error {
			_, err := sasimi.EstimateAll(golden, narrow, sasimi.Config{Budget: flow.Budget{Threshold: 0.01}})
			return err
		}},
	}
	for _, c := range rejected {
		if err := c.run(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

package repro

import (
	"fmt"
	"strings"

	"batchals/internal/bench"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/sasimi"
)

// SweepPoint is one (threshold, area ratio) sample of a quality sweep.
type SweepPoint struct {
	Threshold float64 // ER fraction, or AEM rate for the AEM sweep
	AreaRatio float64
}

// SweepSeries is the quality sweep of one benchmark (Fig. 4 / Fig. 5).
type SweepSeries struct {
	Circuit string
	Points  []SweepPoint
}

// Table3Row is the ER-constraint quality summary of one benchmark: the
// average area ratio over the seven ER thresholds for the local-estimation
// flow ("SASIMI") and the batch-estimation flow ("modified SASIMI"), plus
// the measured CPM runtime share and the paper's reported columns.
type Table3Row struct {
	Circuit       string
	OriginalArea  float64
	IO            string
	CPMShare      float64 // fraction of flow runtime spent building CPMs
	LocalRatio    float64 // measured, local estimator
	BatchRatio    float64 // measured, batch estimator
	PaperCPMShare float64
	PaperSASIMI   float64
	PaperWu       float64
	PaperModified float64
}

// erSweep runs the batch-estimator flow across the ER thresholds for one
// benchmark, returning the per-threshold ratios plus aggregates.
func erSweep(name string, opt Options, est sasimi.EstimatorKind) (SweepSeries, float64, float64, error) {
	golden := benchOrDie(name, bench.ByName)
	s := SweepSeries{Circuit: name}
	sum := 0.0
	var cpmShare float64
	var runs int
	for _, th := range erThresholds {
		res, err := sasimi.Run(golden, sasimi.Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   th,
				NumPatterns: opt.M,
				Seed:        opt.Seed,
			},
			Estimator: est,
		})
		if err != nil {
			return s, 0, 0, fmt.Errorf("%s @ %.3f: %w", name, th, err)
		}
		ratio := res.AreaRatio()
		s.Points = append(s.Points, SweepPoint{Threshold: th, AreaRatio: ratio})
		sum += ratio
		if res.TotalTime > 0 {
			cpmShare += float64(res.Phases.Stats[obs.PhaseCPMBuild].Time) / float64(res.TotalTime)
		}
		runs++
	}
	return s, sum / float64(len(erThresholds)), cpmShare / float64(runs), nil
}

// ERQuality bundles the two products of the ER sweep so the expensive flow
// runs happen once: the per-threshold series of the batch flow (Fig. 4)
// and the averaged comparison rows (Table 3).
type ERQuality struct {
	Series []SweepSeries
	Rows   []Table3Row
}

// RunERQuality executes the ER-constraint evaluation: for every benchmark,
// the batch-estimator flow across the seven thresholds (yielding Fig. 4)
// and the local-estimator flow across the same thresholds (completing
// Table 3).
func RunERQuality(opt Options) (*ERQuality, error) {
	opt = opt.fill()
	out := &ERQuality{}
	for _, b := range table3Benchmarks {
		if opt.Fast && skipInFast(b.name) {
			continue
		}
		golden := benchOrDie(b.name, bench.ByName)
		_, localAvg, _, err := erSweep(b.name, opt, sasimi.EstimatorLocal)
		if err != nil {
			return nil, err
		}
		s, batchAvg, cpmShare, err := erSweep(b.name, opt, sasimi.EstimatorBatch)
		if err != nil {
			return nil, err
		}
		out.Series = append(out.Series, s)
		lib := defaultLib()
		out.Rows = append(out.Rows, Table3Row{
			Circuit:       b.name,
			OriginalArea:  lib.NetworkArea(golden),
			IO:            fmt.Sprintf("%d/%d", golden.NumInputs(), golden.NumOutputs()),
			CPMShare:      cpmShare,
			LocalRatio:    localAvg,
			BatchRatio:    batchAvg,
			PaperCPMShare: b.paperCPM / 100,
			PaperSASIMI:   b.paperSAS,
			PaperWu:       b.paperWu,
			PaperModified: b.paperModif,
		})
	}
	return out, nil
}

// Fig4 regenerates the area-ratio-vs-ER-threshold sweep of the modified
// SASIMI (batch estimator) for the twelve benchmarks. Prefer RunERQuality
// when Table 3 is needed too — it shares the flow runs.
func Fig4(opt Options) ([]SweepSeries, error) {
	opt = opt.fill()
	var out []SweepSeries
	for _, b := range table3Benchmarks {
		if opt.Fast && skipInFast(b.name) {
			continue
		}
		s, _, _, err := erSweep(b.name, opt, sasimi.EstimatorBatch)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Table3 regenerates the ER-constraint comparison: measured local-estimator
// flow vs measured batch-estimator flow, with the paper's SASIMI / Wu /
// modified columns for reference (the Wu column is only ever the paper's
// published number, exactly as in the paper itself).
func Table3(opt Options) ([]Table3Row, error) {
	q, err := RunERQuality(opt)
	if err != nil {
		return nil, err
	}
	return q.Rows, nil
}

// RenderTable3 formats the quality comparison.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: average area ratio over 7 ER thresholds\n")
	fmt.Fprintf(&sb, "%-8s %8s %-9s %7s | %8s %8s | %8s %8s %8s %8s\n",
		"circuit", "area", "I/O", "cpm%", "local", "batch", "p.cpm%", "p.sasimi", "p.wu", "p.modif")
	var sumL, sumB, sumPS, sumPW, sumPM, sumC float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %8.0f %-9s %6.1f%% | %8.3f %8.3f | %7.1f%% %8.3f %8.3f %8.3f\n",
			r.Circuit, r.OriginalArea, r.IO, r.CPMShare*100,
			r.LocalRatio, r.BatchRatio,
			r.PaperCPMShare*100, r.PaperSASIMI, r.PaperWu, r.PaperModified)
		sumL += r.LocalRatio
		sumB += r.BatchRatio
		sumPS += r.PaperSASIMI
		sumPW += r.PaperWu
		sumPM += r.PaperModified
		sumC += r.CPMShare
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&sb, "%-8s %8s %-9s %6.1f%% | %8.3f %8.3f | %8s %8.3f %8.3f %8.3f\n",
			"mean", "", "", sumC/n*100, sumL/n, sumB/n, "", sumPS/n, sumPW/n, sumPM/n)
	}
	return sb.String()
}

// RenderSweep formats a Fig. 4 / Fig. 5 sweep as one block per circuit.
func RenderSweep(title, thLabel string, series []SweepSeries) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "-- %s --\n%12s %10s\n", s.Circuit, thLabel, "area ratio")
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%11.3f%% %10.3f\n", p.Threshold*100, p.AreaRatio)
		}
	}
	return sb.String()
}

// Table4Row is the AEM-constraint quality summary of one arithmetic
// benchmark: measured local and batch average area ratios over the AEM-rate
// thresholds, with the paper's reported columns.
type Table4Row struct {
	Circuit       string
	OriginalArea  float64
	LocalRatio    float64
	BatchRatio    float64
	PaperSASIMI   float64
	PaperModified float64
}

// aemSweep runs the AEM-constrained flow over the AEM-rate thresholds.
func aemSweep(name string, opt Options, est sasimi.EstimatorKind) (SweepSeries, float64, error) {
	golden := benchOrDie(name, bench.ByName)
	maxVal := emetric.MaxOutputValue(golden.NumOutputs())
	s := SweepSeries{Circuit: name}
	sum := 0.0
	for _, rate := range aemRateThresholds {
		res, err := sasimi.Run(golden, sasimi.Config{
			Budget: flow.Budget{
				Metric:      core.MetricAEM,
				Threshold:   rate * maxVal,
				NumPatterns: opt.M,
				Seed:        opt.Seed,
			},
			Estimator: est,
		})
		if err != nil {
			return s, 0, fmt.Errorf("%s @ rate %.4f: %w", name, rate, err)
		}
		ratio := res.AreaRatio()
		s.Points = append(s.Points, SweepPoint{Threshold: rate, AreaRatio: ratio})
		sum += ratio
	}
	return s, sum / float64(len(aemRateThresholds)), nil
}

// AEMQuality bundles the two products of the AEM sweep: the per-threshold
// series of the batch flow (Fig. 5) and the averaged comparison rows
// (Table 4), sharing the flow runs.
type AEMQuality struct {
	Series []SweepSeries
	Rows   []Table4Row
}

// RunAEMQuality executes the AEM-constraint evaluation once for both
// Fig. 5 and Table 4.
func RunAEMQuality(opt Options) (*AEMQuality, error) {
	opt = opt.fill()
	out := &AEMQuality{}
	for _, b := range table4Benchmarks {
		if opt.Fast && b.name != "rca32" && b.name != "mul8" {
			continue
		}
		golden := benchOrDie(b.name, bench.ByName)
		_, localAvg, err := aemSweep(b.name, opt, sasimi.EstimatorLocal)
		if err != nil {
			return nil, err
		}
		s, batchAvg, err := aemSweep(b.name, opt, sasimi.EstimatorBatch)
		if err != nil {
			return nil, err
		}
		out.Series = append(out.Series, s)
		out.Rows = append(out.Rows, Table4Row{
			Circuit:       b.name,
			OriginalArea:  defaultLib().NetworkArea(golden),
			LocalRatio:    localAvg,
			BatchRatio:    batchAvg,
			PaperSASIMI:   b.paperSAS,
			PaperModified: b.paperModif,
		})
	}
	return out, nil
}

// Fig5 regenerates the area-ratio-vs-AEM-rate sweep for the five
// arithmetic benchmarks with the batch estimator. Prefer RunAEMQuality
// when Table 4 is needed too.
func Fig5(opt Options) ([]SweepSeries, error) {
	opt = opt.fill()
	var out []SweepSeries
	for _, b := range table4Benchmarks {
		if opt.Fast && b.name != "rca32" && b.name != "mul8" {
			continue
		}
		s, _, err := aemSweep(b.name, opt, sasimi.EstimatorBatch)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Table4 regenerates the AEM-constraint comparison between the
// local-estimation flow (original SASIMI stand-in) and the batch flow.
func Table4(opt Options) ([]Table4Row, error) {
	q, err := RunAEMQuality(opt)
	if err != nil {
		return nil, err
	}
	return q.Rows, nil
}

// RenderTable4 formats the AEM comparison.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: average area ratio under AEM constraint\n")
	fmt.Fprintf(&sb, "%-8s %8s | %8s %8s | %8s %8s\n",
		"circuit", "area", "local", "batch", "p.sasimi", "p.modif")
	var sumL, sumB, sumPS, sumPM float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %8.0f | %8.3f %8.3f | %8.3f %8.3f\n",
			r.Circuit, r.OriginalArea, r.LocalRatio, r.BatchRatio, r.PaperSASIMI, r.PaperModified)
		sumL += r.LocalRatio
		sumB += r.BatchRatio
		sumPS += r.PaperSASIMI
		sumPM += r.PaperModified
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&sb, "%-8s %8s | %8.3f %8.3f | %8.3f %8.3f\n",
			"mean", "", sumL/n, sumB/n, sumPS/n, sumPM/n)
	}
	return sb.String()
}

func skipInFast(name string) bool {
	switch name {
	case "c2670", "c3540", "c5315", "c7552", "alu4", "cla32", "ksa32", "wtm8":
		return true
	}
	return false
}

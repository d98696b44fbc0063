package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// maxBound is the largest regression bound an end-to-end metric may have.
const maxBound = 0.25

// checkSpec compares BENCHMARK.json with the program's declarations: the
// same workloads, the same metrics in the same order with the same units
// and directions, a bound in (0, maxBound] on every end-to-end metric and
// the largest on setup_s, and a layer, target metric and workloads on
// every per-layer one. It returns every disagreement.
func checkSpec(spec benchSpec) []error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		bad("workloads %v, the program runs %v", names, workloadNames())
	}

	if len(spec.EndToEnd) != len(e2eMetrics) {
		bad("%d end-to-end metrics, the program declares %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	e2e := map[string]bool{}
	largest, setupBound := 0.0, 0.0
	for i, e := range spec.EndToEnd {
		if i < len(e2eMetrics) {
			if d := e2eMetrics[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				bad("end_to_end[%d] = %s %s %s, declared %s %s %s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
			}
		}
		if !(e.Bound > 0 && e.Bound <= maxBound) {
			bad("%s: bound %g outside (0, %g]", e.Name, e.Bound, maxBound)
		}
		largest = max(largest, e.Bound)
		if e.Name == "setup_s" {
			setupBound = e.Bound
		}
		e2e[e.Name] = true
	}
	if setupBound == 0 || setupBound < largest {
		bad("setup_s must be declared with the largest bound")
	}

	if len(spec.PerLayer) != len(layerMetrics) {
		bad("%d per-layer metrics, the program declares %d", len(spec.PerLayer), len(layerMetrics))
	}
	workloads := map[string]bool{onAll: true}
	for _, w := range workloadNames() {
		workloads[w] = true
	}
	for i, l := range spec.PerLayer {
		if i >= len(layerMetrics) {
			break
		}
		d := layerMetrics[i]
		if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
			bad("per_layer[%d] = %s %s %s, declared %s %s %s", i, l.Name, l.Unit, l.Better, d.name, d.unit, d.better)
		}
		if d.layer == "" {
			bad("%s names no layer", d.name)
		}
		if d.moves != "" && !e2e[d.moves] {
			bad("%s moves %q, not an end-to-end metric", d.name, d.moves)
		}
		for _, w := range strings.Split(d.on, ",") {
			if !workloads[w] {
				bad("%s: unknown workload %q", d.name, w)
			}
		}
		if e2e[l.Name] {
			bad("%s is declared both end-to-end and per-layer", l.Name)
		}
	}
	return errs
}

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric: NEW regressed when its median is worse than
// OLD's by more than bound (a share of OLD's median); the comparison is
// unresolved when OLD's own runs spread (interquartile distance over
// median) wider than the bound, unless every NEW run beats every OLD run.
func verdict(before, after []float64, better string, bound float64) string {
	mo, mn := median(before), median(after)
	worse := (mn - mo) / math.Abs(mo)
	if better == "higher" {
		worse = -worse
	}
	if relSpread(before) > bound && !allBetter(before, after, better) {
		return verdictUnresolved
	}
	if worse > bound {
		return verdictRegressed
	}
	return verdictOK
}

func allBetter(before, after []float64, better string) bool {
	for _, o := range before {
		for _, n := range after {
			if better == "higher" && n <= o || better == "lower" && n >= o {
				return false
			}
		}
	}
	return len(before) > 0 && len(after) > 0
}

// runCompare prints one row per workload and end-to-end metric, plus the
// failure fraction, and exits 1 when anything regressed or is unresolved.
func runCompare(spec benchSpec, oldPath, newPath string, w io.Writer) int {
	var before, after resultsFile
	for path, v := range map[string]any{oldPath: &before, newPath: &after} {
		if err := loadJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\told spread\tbound\tverdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, e := range spec.EndToEnd {
			ov, nv := values(before, wl.Name, e.Name), values(after, wl.Name, e.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict(ov, nv, e.Better, e.Bound)
			if v != verdictOK {
				bad++
			}
			mo, mn := median(ov), median(nv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, e.Name, mo, mn, 100*(mn-mo)/math.Abs(mo), 100*relSpread(ov), 100*e.Bound, v)
		}
		fo, fn := failFrac(before, wl.Name), failFrac(after, wl.Name)
		if fo < 0 || fn < 0 {
			continue
		}
		v := verdictOK
		if fn > fo {
			v = verdictRegressed
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%.4g\t%.4g\t\t\t0\t%s\n", wl.Name, fo, fn, v)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// values collects a metric over a file's untraced runs of a workload.
func values(f resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failFrac is failed/attempted over every run of a workload, -1 if none.
func failFrac(f resultsFile, workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}

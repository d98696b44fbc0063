package main

import (
	"math"
	"regexp"
	"testing"

	"batchals/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// Unsorted input, left untouched.
	ys := []float64{3, 1, 2}
	if got := percentile(ys, 50); got != 2 || ys[0] != 3 {
		t.Errorf("p50 of %v = %g (input must stay unsorted)", ys, got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},  // rank 10, 10 beyond
		{40, 75, true},  // rank 30, 10 beyond
		{99, 75, true},  // p90 rank 90 leaves 9
		{100, 90, true}, // rank 90, 10 beyond
		{199, 90, true}, // p95 rank 190 leaves 9
		{200, 95, true},
		{320, 95, true}, // alsd-open's 80 jobs/s step: p99 rank 317 leaves 3
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread rule the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 4.5},
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 11.75, 17.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("relSpread = %g, want %g", got, 5.5/14.5)
	}
}

// TestHeldoutWilsonWiring checks that chunked held-out measurements add
// up to exact pattern counts and that the reported bound is obs.Wilson's
// upper end on them.
func TestHeldoutWilsonWiring(t *testing.T) {
	var h heldout
	h.add(0.0123, 2.5, 10_000) // 123 wrong
	h.add(0.0077, 1.5, 10_000) // 77 wrong
	if h.wrong != 200 || h.patterns != 20_000 {
		t.Fatalf("counts %d/%d, want 200/20000", h.wrong, h.patterns)
	}
	if got := h.errorRate(); got != 0.01 {
		t.Errorf("error rate %g, want 0.01", got)
	}
	if got := h.aem(); got != 2 {
		t.Errorf("aem %g, want 2", got)
	}
	want := obs.Wilson(200, 20_000, obs.DefaultZ).Hi
	if got := h.erUpper(); got != want {
		t.Errorf("erUpper %g, want Wilson hi %g", got, want)
	}
	if !(h.erUpper() > h.errorRate()) {
		t.Error("the upper bound must exceed the point estimate")
	}
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !namePattern.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, namePattern)
		}
		if !unitPattern.MatchString(unit) {
			t.Errorf("unit %q of %s does not match %s", unit, name, unitPattern)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	for _, e := range e2eMetrics {
		check(e.name, e.unit)
	}
	for _, l := range layerMetrics {
		check(l.name, l.unit)
	}
	for _, w := range workloadNames() {
		if !namePattern.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, namePattern)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "p95/ms", "é", "x!"} {
		if namePattern.MatchString(bad) {
			t.Errorf("pattern accepts %q", bad)
		}
	}
}

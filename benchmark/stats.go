package main

import (
	"math"
	"sort"

	"batchals/internal/obs"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The rank is computed in thousandths of a percent so that, say, p99.9 of
// 10 000 samples is rank 9990 and not one more from rounding.
func nearestRank(n int, p float64) int {
	r := int((int64(math.Round(p*1000))*int64(n) + 99_999) / 100_000)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples above it, so a reported tail never rests
// on a handful of observations. ok is false when not even the median
// qualifies (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-nearestRank(n, c) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// interpolation of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's spread is judged by; like Python it extrapolates for two
// samples. One sample gives (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// heldout accumulates a held-out error measurement over pattern chunks.
// The error-rate count is kept exact so the Wilson bound sees the true
// number of wrong patterns.
type heldout struct {
	wrong    int64   // patterns with any output wrong
	aemSum   float64 // Σ per-chunk AEM × chunk size
	patterns int64
}

func (h *heldout) add(er, aem float64, n int) {
	h.wrong += int64(math.Round(er * float64(n)))
	h.aemSum += aem * float64(n)
	h.patterns += int64(n)
}

func (h *heldout) errorRate() float64 { return float64(h.wrong) / float64(h.patterns) }
func (h *heldout) aem() float64       { return h.aemSum / float64(h.patterns) }

// erUpper is the upper end of the 95% Wilson interval on the held-out
// error rate.
func (h *heldout) erUpper() float64 {
	return obs.Wilson(h.wrong, h.patterns, 0).Hi
}

// Package obs is the flow-wide observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) snapshotable as JSON or
// Prometheus text, a Tracer interface for the flow's decisions
// (iterations, scored candidates, accepts) with one JSON encoding shared
// by every sink, the five flow phases and their per-run report (measured
// by timeline.Profile, which also records them as spans), and
// estimator-drift recording split by the CPM-exactness certificate.
//
// The package is stdlib-only and imports nothing else from this module, so
// every other package (sim, core, sasimi, the commands) can depend on it
// without cycles. Instrumentation follows two disciplines:
//
//   - Always-on substrate counters (simulations run, CPM builds, delta
//     queries) are pre-resolved package variables backed by a single
//     atomic add — cheap enough to leave enabled unconditionally.
//   - Event tracing and memory accounting are opt-in: a nil Tracer and a
//     nil Registry in a flow config short-circuit before any argument is
//     materialised (per-phase allocation deltas are taken only for runs
//     with a Registry), so the hot candidate-scoring loop allocates exactly
//     what it did before this layer existed (asserted by
//     sasimi's TestNilTracerScoringAllocs).
package obs

import "time"

// Tracer receives the flow's decisions. Implementations must be safe for
// use from the single flow goroutine; they need not be concurrency-safe.
// Any method may be a no-op. A nil Tracer in a flow config disables event
// emission entirely (the flow never calls through a nil interface). Phase
// timing is not a Tracer event: it is recorded once, as timeline spans and
// the run's PhaseReport.
type Tracer interface {
	// OnIteration is called once per flow iteration, after candidate
	// scoring and selection, whether or not a candidate was accepted.
	OnIteration(IterationInfo)
	// OnCandidate is called for every scored candidate. This is the
	// highest-volume event; JSONLTracer drops it unless opted in.
	OnCandidate(CandidateInfo)
	// OnAccept is called for every accepted substitution, after the
	// post-apply measurement, with the predicted-vs-actual drift.
	OnAccept(AcceptInfo)
}

// IterationInfo summarises one flow iteration.
type IterationInfo struct {
	Iter       int           `json:"iter"`
	CurErr     float64       `json:"cur_err"`  // measured error entering the iteration
	Candidates int           `json:"cands"`    // candidates scored
	Feasible   int           `json:"feasible"` // candidates within the remaining budget
	Accepted   bool          `json:"accepted"`
	Duration   time.Duration `json:"ns"`
}

// CandidateInfo describes one scored candidate.
type CandidateInfo struct {
	Iter     int     `json:"iter"`
	Target   string  `json:"target"`
	Sub      string  `json:"sub"` // "const0"/"const1" for constant substitution
	Inverted bool    `json:"inv,omitempty"`
	Delta    float64 `json:"delta"` // estimated increased error
	Gain     float64 `json:"gain"`  // predicted area gain
	Score    float64 `json:"score"`
	Exact    bool    `json:"exact"` // estimate carries the CPM-exactness certificate
}

// AcceptInfo describes one accepted substitution.
type AcceptInfo struct {
	Iter      int     `json:"iter"`
	Target    string  `json:"target"`
	Sub       string  `json:"sub"`
	Inverted  bool    `json:"inv,omitempty"`
	Predicted float64 `json:"pred_err"`   // curErr + estimated delta
	Actual    float64 `json:"actual_err"` // measured error after applying
	Drift     float64 `json:"drift"`      // Actual - Predicted
	Exact     bool    `json:"exact"`      // chosen candidate's exactness certificate
	Area      float64 `json:"area"`       // circuit area after applying

	// Statistical confidence accounting for the M-sample MC estimate
	// behind this accept (filled by ER flows; zero — ErrCI.Valid() false —
	// when the metric has no Binomial error count, e.g. AEM).
	M       int      `json:"m,omitempty"`        // MC sample size
	ErrCI   Interval `json:"err_ci,omitempty"`   // Wilson interval on Actual
	DeltaHW float64  `json:"delta_hw,omitempty"` // Hoeffding half-width on the estimated ΔER
	// CIAdequate is false when ErrCI straddles the flow's error threshold:
	// the accept/reject decision was made inside the sample noise and M is
	// too small to trust it.
	CIAdequate bool `json:"ci_adequate,omitempty"`
}

// CandidateFilter is an optional Tracer capability: a tracer returning
// false from WantsCandidates promises to drop every OnCandidate event, so
// flows may skip materialising per-candidate event arguments — the hottest
// event path — entirely. Tracers without the method are assumed to consume
// candidates.
type CandidateFilter interface {
	WantsCandidates() bool
}

// WantsCandidates reports whether tr consumes OnCandidate events: false
// for nil tracers and for CandidateFilter implementations that decline,
// true otherwise.
func WantsCandidates(tr Tracer) bool {
	if tr == nil {
		return false
	}
	if f, ok := tr.(CandidateFilter); ok {
		return f.WantsCandidates()
	}
	return true
}

// multiTracer fans events out to several tracers.
type multiTracer []Tracer

// Multi combines tracers into one; nil entries are dropped. Multi(nil...)
// and Multi() return nil, preserving the nil-tracer fast path.
func Multi(ts ...Tracer) Tracer {
	var live multiTracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

func (m multiTracer) OnIteration(i IterationInfo) {
	for _, t := range m {
		t.OnIteration(i)
	}
}

// WantsCandidates reports whether any member consumes candidate events.
func (m multiTracer) WantsCandidates() bool {
	for _, t := range m {
		if WantsCandidates(t) {
			return true
		}
	}
	return false
}

func (m multiTracer) OnCandidate(i CandidateInfo) {
	for _, t := range m {
		t.OnCandidate(i)
	}
}

func (m multiTracer) OnAccept(i AcceptInfo) {
	for _, t := range m {
		t.OnAccept(i)
	}
}

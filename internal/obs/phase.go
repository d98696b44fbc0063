package obs

import "time"

// Phase identifies one of the five phases of an iterative ALS flow, per
// the paper's flow decomposition: pattern generation, Monte Carlo
// simulation, CPM construction, batch candidate estimation, and
// verification/application of the chosen transformation.
type Phase uint8

// The five flow phases.
const (
	PhasePatternGen Phase = iota
	PhaseSimulate
	PhaseCPMBuild
	PhaseEstimate
	PhaseVerifyApply
	NumPhases // sentinel, not a phase
)

var phaseNames = [NumPhases]string{
	"pattern_gen",
	"simulate",
	"cpm_build",
	"estimate",
	"verify_apply",
}

// String returns the snake_case phase name used in metrics and traces.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// MemDelta is the allocation activity across a span, from
// runtime.MemStats deltas. Bytes and Mallocs are cumulative (they only
// grow), so deltas are exact regardless of garbage collection.
type MemDelta struct {
	Bytes   int64 `json:"bytes"`   // TotalAlloc delta
	Mallocs int64 `json:"mallocs"` // Mallocs delta
}

// PhaseStat aggregates all spans of one phase.
type PhaseStat struct {
	Time  time.Duration `json:"ns"`
	Count int64         `json:"count"`
	Mem   MemDelta      `json:"mem,omitempty"`
}

// PhaseReport is the frozen per-phase aggregate of a flow run, measured by
// timeline.Profile and attached to the run's Result.
type PhaseReport struct {
	Stats [NumPhases]PhaseStat
}

// Total returns the summed wall time across all phases.
func (r PhaseReport) Total() time.Duration {
	var t time.Duration
	for _, s := range r.Stats {
		t += s.Time
	}
	return t
}

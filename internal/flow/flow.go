// Package flow holds the configuration surface shared by every iterative
// ALS flow in this library. The three flows (sasimi, snap, wu) used to
// carry near-identical copies of the same budget fields; Budget is the
// single shared definition they now embed, and the typed sentinel errors
// below replace the ad-hoc fmt.Errorf validation failures so callers can
// branch with errors.Is.
package flow

import (
	"errors"
	"fmt"

	"batchals/internal/cell"
	"batchals/internal/core"
)

// Typed validation sentinels. Flows wrap these with context via %w, so
// errors.Is(err, flow.ErrBadThreshold) works on anything a flow returns.
var (
	// ErrBadThreshold marks a threshold outside the metric's valid range
	// (negative for either metric).
	ErrBadThreshold = errors.New("bad error threshold")
	// ErrNoPatterns marks an empty or negative Monte Carlo sample: the
	// statistical estimate is undefined without at least one pattern.
	ErrNoPatterns = errors.New("no simulation patterns")
)

// Budget is the error-budget and run-length configuration common to every
// iterative flow: which statistical error measure to constrain, how much
// of it to spend, the Monte Carlo sample that measures it, and the area
// model the optimisation trades it against. Flow-specific Config structs
// embed Budget, so the shared fields promote to the flow's configuration
// surface unchanged.
type Budget struct {
	// Metric is the statistical error measure the Threshold constrains.
	Metric core.Metric
	// Threshold is the error budget: a fraction in [0,1] for ER, an
	// absolute magnitude for AEM.
	Threshold float64
	// NumPatterns is the Monte Carlo sample size M (default 10000).
	NumPatterns int
	// Seed drives the pattern generator; the same seed reproduces the
	// whole flow bit-for-bit.
	Seed int64
	// Library provides area and delay figures (default cell.Default()).
	Library *cell.Library
	// MaxIterations stops the flow after this many accepted
	// transformations (0 = unlimited). The partitioned flow hands the same
	// cap to every part's flow, so it bounds each part, not the run.
	MaxIterations int
}

// FillDefaults replaces zero values with the library-wide defaults shared
// by every flow.
func (b *Budget) FillDefaults() {
	if b.NumPatterns == 0 {
		b.NumPatterns = 10000
	}
	if b.Library == nil {
		b.Library = cell.Default()
	}
}

// Validate checks the budget fields, wrapping the typed sentinels with the
// flow's name for context. Call after FillDefaults.
func (b *Budget) Validate(flowName string) error {
	if b.Threshold < 0 {
		return fmt.Errorf("%s: %w: negative threshold %g", flowName, ErrBadThreshold, b.Threshold)
	}
	if b.NumPatterns <= 0 {
		return fmt.Errorf("%s: %w: NumPatterns %d", flowName, ErrNoPatterns, b.NumPatterns)
	}
	return nil
}

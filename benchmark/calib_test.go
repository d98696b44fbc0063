package main

import (
	"math"
	"testing"
)

// TestCalibChunkRepeats checks that a calibration chunk does the same work
// on every call: it may not carry state from one call to the next.
func TestCalibChunkRepeats(t *testing.T) {
	calib.once.Do(initCalib)
	a := calibChunk(calib.words[0], 1)
	if b := calibChunk(calib.words[0], 1); a != b {
		t.Errorf("second call returned %g, first %g", b, a)
	}
	if f := hostFactor(3); !(f > 0) {
		t.Errorf("host factor %g, want > 0", f)
	}
	if f := quickFactor(); !(f > 0) {
		t.Errorf("quick host factor %g, want > 0", f)
	}
}

// TestBracket: factors 1 (kernel at 12 ms) and 0.5 (24 ms) bracket a
// mean kernel time of 18 ms, factor 2/3.
func TestBracket(t *testing.T) {
	if got := bracket(1, 0.5); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("bracket(1, 0.5) = %g, want 2/3", got)
	}
	if got := bracket(0.8, 0.8); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("bracket(0.8, 0.8) = %g, want 0.8", got)
	}
}

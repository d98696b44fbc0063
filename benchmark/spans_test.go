package main

import (
	"math"
	"testing"

	"batchals/internal/obs/timeline"
)

// drv builds a driver-lane span; IDs follow emission order.
func drv(id int64, name string, t0, t1 int64) timeline.Span {
	return timeline.Span{ID: id, Name: name, Worker: -1, Shard: -1, T0: t0, T1: t1}
}

func selfByName(spans []timeline.Span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

func TestSelfTimeNested(t *testing.T) {
	got := selfByName([]timeline.Span{
		drv(1, "sim", 10, 20),
		drv(2, "gather", 30, 50),
		drv(3, "score", 40, 45), // nested two deep
		drv(4, "phase", 0, 100),
		drv(5, "iteration", 0, 120),
	})
	want := map[string]int64{"sim": 10, "gather": 15, "score": 5, "phase": 70, "iteration": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s self = %d, want %d", name, got[name], w)
		}
	}
}

// TestMissingShares checks that a share reading 0 is reported on the
// workloads its "on" column names and nowhere else.
func TestMissingShares(t *testing.T) {
	m := map[string]float64{}
	for _, s := range spanShare {
		m[s] = 0.1
	}
	if got := missingShares("c880-er", m); len(got) != 0 {
		t.Errorf("every share measured, missing %v", got)
	}
	m["verify.share"] = 0
	if got := missingShares("c880-er", m); len(got) != 1 || got[0] != "verify.share" {
		t.Errorf("c880-er missing %v, want [verify.share]", got)
	}
	if got := missingShares("mul8-aem", m); len(got) != 0 {
		t.Errorf("mul8-aem does not verify, missing %v", got)
	}
}

func TestSelfTimeAdjacent(t *testing.T) {
	got := selfByName([]timeline.Span{
		drv(1, "apply", 0, 10),
		drv(2, "measure", 10, 25),
		drv(3, "accept", 25, 25), // zero-length marker
	})
	if got["apply"] != 10 || got["measure"] != 15 || got["accept"] != 0 {
		t.Errorf("adjacent spans must not shadow each other: %v", got)
	}
}

func TestSelfTimeOverlapping(t *testing.T) {
	// Two children overlapping each other and the parent's end: their
	// union inside the parent is counted once, the part past the parent's
	// end is clipped, and of the equally long siblings the later-emitted
	// one yields the shared stretch, so every instant is counted once.
	got := selfByName([]timeline.Span{
		drv(1, "a", 10, 40),
		drv(2, "b", 30, 60),
		drv(3, "parent", 0, 50),
	})
	if got["parent"] != 10 { // 50 - |[10,50)|
		t.Errorf("parent self = %d, want 10", got["parent"])
	}
	if got["a"] != 30 || got["b"] != 20 {
		t.Errorf("a=%d b=%d, want 30 and 20", got["a"], got["b"])
	}
	if sum := got["a"] + got["b"] + got["parent"]; sum != 60 {
		t.Errorf("self times sum to %d, want the covered 60", sum)
	}
}

func TestSelfTimeSkewedPhaseStart(t *testing.T) {
	// A phase span reconstructed from its duration starts a little after
	// its first child; the child still counts as nested.
	got := selfByName([]timeline.Span{
		drv(1, "sim.simulate", 100, 900),
		drv(2, "phase:simulate", 103, 1000),
	})
	if got["sim.simulate"] != 800 || got["phase:simulate"] != 100 {
		t.Errorf("got %v, want sim 800, phase 100", got)
	}
}

func TestSelfTimeIgnoresWorkerLanes(t *testing.T) {
	spans := []timeline.Span{
		drv(1, "score", 0, 100),
		{ID: 2, Name: "score", Worker: 0, T0: 0, T1: 90, Busy: 80},
	}
	self := selfTimes(spans)
	if self[0] != 100 || self[1] != 0 {
		t.Errorf("self = %v, want [100 0]", self)
	}
}

func TestLedgerSharesAndIdle(t *testing.T) {
	led := newLedger(2)
	score := drv(1, "sasimi.score", 0, 100)
	score.Tasks, score.Busy = 4, 150 // 150 of 200 worker-ns busy
	gather := drv(2, "sasimi.gather", 100, 150)
	gather.Tasks, gather.Busy = 2, 100
	led.add([]timeline.Span{
		score, gather,
		drv(3, "phase:estimate", 0, 180),
		drv(4, "sasimi.apply", 180, 200),
	}, 0, 200)
	m := map[string]float64{}
	led.metrics(m)
	for name, want := range map[string]float64{
		"score.share":           0.5,
		"gather.full_share":     0.25,
		"estimate.serial_share": 0.15,
		"apply.share":           0.1,
		"verify.share":          0,
		"pool.parallel_frac":    0.75,
		"score.idle_frac":       0.25,
		"gather.idle_frac":      0,
		"pool.idle_frac":        1 - 250.0/300,
		"timeline.dropped":      0,
	} {
		if math.Abs(m[name]-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

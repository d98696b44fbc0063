package main

import (
	"slices"
	"sort"
	"strings"

	"batchals/internal/obs/timeline"
)

// spanShare maps driver-lane span names to the per-layer share their self
// time is counted in. Spans not listed (phase:* other than estimate,
// iteration, accept) still shadow their children but are not reported.
var spanShare = map[string]string{
	"sim.simulate":       "sim.simulate_share",
	"partition.sim":      "sim.simulate_share",
	"sim.resim_cone":     "sim.resim_share",
	"sim.resim_from":     "sim.resim_share",
	"cpm.build":          "cpm.build_share",
	"cpm.refresh":        "cpm.refresh_share",
	"sasimi.gather":      "gather.full_share",
	"sasimi.gather_inc":  "gather.inc_share",
	"sasimi.score":       "score.share",
	"sasimi.verify_topk": "verify.share",
	"sasimi.verify_cand": "verify.share",
	"sasimi.apply":       "apply.share",
	"sasimi.measure":     "measure.share",
	// The estimate phase's own time, outside gather and score: serial
	// driver work (arrival times, gather set-up) no finer span covers.
	"phase:estimate":    "estimate.serial_share",
	"partition.plan":    "partition.plan_share",
	"partition.extract": "partition.extract_share",
	"partition.flow":    "partition.flow_share",
	"partition.merge":   "partition.merge_share",
	"partition.measure": "partition.measure_share",
}

// missingShares lists the shares that read 0 on a workload whose "on"
// column says they should move there. The benchmark reads span names the
// library chooses; a renamed or dropped span would otherwise read as a
// layer that costs nothing.
func missingShares(workload string, m map[string]float64) []string {
	shares := map[string]bool{}
	for _, s := range spanShare {
		shares[s] = true
	}
	var out []string
	for _, l := range layerMetrics {
		if shares[l.name] && slices.Contains(strings.Split(l.on, ","), workload) && m[l.name] == 0 {
			out = append(out, l.name)
		}
	}
	return out
}

// dispatchIdle maps pool dispatch names to the idle fraction they feed.
var dispatchIdle = map[string]string{
	"sasimi.gather":      "gather.idle_frac",
	"sasimi.gather_inc":  "gather.idle_frac",
	"sasimi.score":       "score.idle_frac",
	"sasimi.verify_topk": "verify.idle_frac",
	"partition.flow":     "partition.flow_idle_frac",
}

// selfTimes returns, for every driver-lane span (Worker == -1), its
// duration minus the union of the driver-lane spans nested in it, indexed
// like spans; other lanes get 0.
//
// A span c is nested in s when the two overlap and c is the shorter one
// (equal durations: the later-emitted span, which End emits after
// everything it encloses, is the parent); c counts only over the part
// that lies inside s. Containment is not required because phase spans
// are reconstructed backwards from their duration, so a phase's recorded
// start can trail its first child's by the tracer's latency; clipping
// keeps overlapping and adjacent siblings from shadowing each other.
func selfTimes(spans []timeline.Span) []int64 {
	idx := make([]int, 0, len(spans))
	for i := range spans {
		if spans[i].Worker == -1 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].T0 < spans[idx[b]].T0 })

	self := make([]int64, len(spans))
	var cover [][2]int64
	for _, i := range idx {
		s := &spans[i]
		cover = cover[:0]
		// A shorter span overlapping s starts after s.T0 - s.Dur().
		lo := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].T0 > s.T0-s.Dur() })
		for _, j := range idx[lo:] {
			c := &spans[j]
			if c.T0 >= s.T1 {
				break
			}
			if j == i || c.T1 <= s.T0 || !shorter(c, s) {
				continue
			}
			cover = append(cover, [2]int64{max(c.T0, s.T0), min(c.T1, s.T1)})
		}
		self[i] = s.Dur() - unionLen(cover)
	}
	return self
}

// shorter orders spans for nesting: by duration, then by emission.
func shorter(c, s *timeline.Span) bool {
	if c.Dur() != s.Dur() {
		return c.Dur() < s.Dur()
	}
	return c.ID < s.ID
}

// unionLen is the total length covered by intervals (sorted by start).
func unionLen(iv [][2]int64) int64 {
	var total, end int64
	started := false
	for _, v := range iv {
		switch {
		case !started || v[0] > end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// ledger accumulates the per-layer breakdown of traced flows.
type ledger struct {
	wall      int64            // Σ traced flow wall (ns)
	self      map[string]int64 // share name → Σ self time (ns)
	dispatch  int64            // Σ dispatch span wall (ns)
	busy      map[string]int64 // idle metric name → Σ worker busy (ns)
	capacity  map[string]int64 // idle metric name → Σ workers × dispatch wall
	poolBusy  int64
	poolCap   int64
	dropped   int64
	workerCap int // pool workers per traced flow
}

func newLedger(workers int) *ledger {
	return &ledger{
		self:      map[string]int64{},
		busy:      map[string]int64{},
		capacity:  map[string]int64{},
		workerCap: workers,
	}
}

// add folds one traced flow of the given wall time into the ledger.
func (l *ledger) add(spans []timeline.Span, dropped, wall int64) {
	l.wall += wall
	l.dropped += dropped
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		if s.Worker != -1 {
			continue
		}
		if name, ok := spanShare[s.Name]; ok {
			l.self[name] += self[i]
		}
		if s.Tasks == 0 {
			continue
		}
		// A pool dispatch: its Busy sums the workers' task time, against
		// a capacity of every worker for the dispatch's whole wall.
		capNS := int64(l.workerCap) * s.Dur()
		l.dispatch += s.Dur()
		l.poolBusy += s.Busy
		l.poolCap += capNS
		if name, ok := dispatchIdle[s.Name]; ok {
			l.busy[name] += s.Busy
			l.capacity[name] += capNS
		}
	}
}

// metrics writes the ledger's shares and idle fractions into m.
func (l *ledger) metrics(m map[string]float64) {
	for _, name := range spanShare {
		m[name] = ratio(float64(l.self[name]), float64(l.wall))
	}
	for _, name := range dispatchIdle {
		m[name] = idleFrac(l.busy[name], l.capacity[name])
	}
	m["pool.parallel_frac"] = ratio(float64(l.dispatch), float64(l.wall))
	m["pool.idle_frac"] = idleFrac(l.poolBusy, l.poolCap)
	m["timeline.dropped"] = float64(l.dropped)
}

func idleFrac(busy, capacity int64) float64 {
	if capacity <= 0 {
		return 0
	}
	f := 1 - float64(busy)/float64(capacity)
	if f < 0 {
		return 0
	}
	return f
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package timeline

import (
	"runtime"
	"time"

	"batchals/internal/obs"
)

// phaseSpanNames are the "phase:<name>" span names, built once so End
// allocates nothing.
var phaseSpanNames = func() (names [obs.NumPhases]string) {
	for p := range names {
		names[p] = "phase:" + obs.Phase(p).String()
	}
	return names
}()

// Profile times the five flow phases. The two clock reads of a Begin/End
// pair feed every report of that phase: the per-phase aggregate (Report,
// hence Result.Phases and the summary table), the registry counters
// (Export) and the driver-lane "phase:<name>" span on the attached
// Recorder, which therefore encloses every span recorded during the
// phase.
//
// A Profile is single-goroutine, like the flow loop that drives it. A nil
// *Profile is inert (Begin/End become no-ops), so callers can thread one
// pointer through without nil checks at every site.
type Profile struct {
	rec *Recorder
	// trackMem adds runtime.MemStats deltas per span. ReadMemStats stops
	// the world briefly, so only runs that export metrics pay for it.
	trackMem bool
	stats    [obs.NumPhases]obs.PhaseStat
}

// NewProfile returns a profile that records its phase spans on rec (nil
// records none) and, when trackMem is set, per-phase allocation deltas.
func NewProfile(rec *Recorder, trackMem bool) *Profile {
	return &Profile{rec: rec, trackMem: trackMem}
}

// PhaseSpan is an open phase measurement; close it with Profile.End. The
// zero PhaseSpan (from a nil Profile) is inert.
type PhaseSpan struct {
	phase   obs.Phase
	start   time.Time
	bytes   uint64
	mallocs uint64
}

// Begin opens a span for phase p.
func (pr *Profile) Begin(p obs.Phase) PhaseSpan {
	if pr == nil {
		return PhaseSpan{}
	}
	s := PhaseSpan{phase: p, start: time.Now()}
	if pr.trackMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.bytes = ms.TotalAlloc
		s.mallocs = ms.Mallocs
	}
	return s
}

// End closes a span: it folds the span into the aggregate and records it
// on the driver lane, labelled with the recorder's current iteration.
func (pr *Profile) End(s PhaseSpan) {
	if pr == nil || s.start.IsZero() {
		return
	}
	end := time.Now()
	st := &pr.stats[s.phase]
	st.Time += end.Sub(s.start)
	st.Count++
	if pr.trackMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st.Mem.Bytes += int64(ms.TotalAlloc - s.bytes)
		st.Mem.Mallocs += int64(ms.Mallocs - s.mallocs)
	}
	if pr.rec != nil {
		pr.rec.Emit(0, Span{
			Name:   phaseSpanNames[s.phase],
			Phase:  s.phase,
			Worker: -1,
			Shard:  -1,
			Iter:   pr.rec.Iter(),
			T0:     pr.rec.Rel(s.start),
			T1:     pr.rec.Rel(end),
		})
	}
}

// Report returns the per-phase aggregates accumulated so far.
func (pr *Profile) Report() obs.PhaseReport {
	if pr == nil {
		return obs.PhaseReport{}
	}
	return obs.PhaseReport{Stats: pr.stats}
}

// Export writes the aggregates into reg as labelled counters
// (prefix_phase_ns{phase="..."} etc.), so a metrics snapshot carries the
// phase breakdown alongside the substrate counters.
func (pr *Profile) Export(reg *obs.Registry, prefix string) {
	if pr == nil || reg == nil {
		return
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		st := pr.stats[p]
		reg.Counter(prefix + `_phase_ns{phase="` + p.String() + `"}`).Add(int64(st.Time))
		reg.Counter(prefix + `_phase_spans{phase="` + p.String() + `"}`).Add(st.Count)
		if pr.trackMem {
			reg.Counter(prefix + `_phase_alloc_bytes{phase="` + p.String() + `"}`).Add(st.Mem.Bytes)
			reg.Counter(prefix + `_phase_mallocs{phase="` + p.String() + `"}`).Add(st.Mem.Mallocs)
		}
	}
}

package sasimi

import (
	"context"
	"slices"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// gatherEnv bundles the read-only inputs of one iteration's candidate
// enumeration: the network, the value table, the timing/area model and
// the per-node figures the pair screens read. gather and the incremental
// gather cache both enumerate through it, so every path makes the same
// decision for every pair — the flow's bit-identity contract hangs off
// the candidate list.
type gatherEnv struct {
	net      *circuit.Network
	vals     *sim.Values
	cfg      *Config
	arrival  []float64
	invDelay float64
	invArea  float64
	subs     []circuit.NodeID // admissible substitutes, ascending id
	m        int
	// pop is the popcount of every admissible substitute's value vector
	// (targets are gates, so they are substitutes too), indexed by slot.
	pop []int
	// strict reports that arrival strictly increases along every live
	// edge and the inverter delay is non-negative. Every node in a
	// target's transitive fanout cone then arrives strictly later than
	// the target, so the arrival guard already rejects it, plain and
	// inverted, and the cycle screen needs no cone walk.
	strict bool
}

func newGatherEnv(net *circuit.Network, vals *sim.Values, cfg *Config, arrival []float64, invDelay float64) *gatherEnv {
	env := &gatherEnv{
		net:      net,
		vals:     vals,
		cfg:      cfg,
		arrival:  arrival,
		invDelay: invDelay,
		invArea:  cfg.Library.GateArea(circuit.KindNot, 1),
		subs:     make([]circuit.NodeID, 0, net.NumNodes()),
		m:        vals.M,
		pop:      make([]int, net.NumSlots()),
		strict:   invDelay >= 0,
	}
	for _, id := range net.LiveNodes() {
		for _, f := range net.Fanins(id) {
			if !(arrival[id] > arrival[f]) {
				env.strict = false
			}
		}
		if k := net.Kind(id); k.IsGate() || k == circuit.KindInput {
			env.subs = append(env.subs, id)
			env.pop[id] = vals.Node(id).Count()
		}
	}
	return env
}

// targetData is the per-target gather state: the MFFC-derived gain
// figures every pair of the target needs, plus the dependency set the
// incremental cache probes to decide staleness.
type targetData struct {
	live     bool
	baseGain float64
	mffc     []circuit.NodeID
	// deps are the nodes whose records the MFFC computation read: the cone
	// nodes themselves (fanin lists) and their fanins (fanout counts and
	// output-driver status). If none of them was touched by an edit, the
	// MFFC, baseGain and every pairGain of this target are unchanged.
	deps []circuit.NodeID
}

// target computes target t's MFFC gain figures, with the dependency set
// when wantDeps is set (the incremental cache records it).
func (env *gatherEnv) target(t circuit.NodeID, wantDeps bool) targetData {
	td := targetData{live: true}
	td.mffc = env.net.MFFC(t)
	for _, id := range td.mffc {
		td.baseGain += env.cfg.Library.GateArea(env.net.Kind(id), len(env.net.Fanins(id)))
	}
	if wantDeps {
		seen := make(map[circuit.NodeID]bool, 2*len(td.mffc))
		for _, id := range td.mffc {
			if !seen[id] {
				seen[id] = true
				td.deps = append(td.deps, id)
			}
		}
		for _, id := range td.mffc {
			for _, f := range env.net.Fanins(id) {
				if !seen[f] {
					seen[f] = true
					td.deps = append(td.deps, f)
				}
			}
		}
	}
	return td
}

// appendTarget appends every admissible candidate of target t to out:
// keep substitutions that
//
//   - do not create a cycle (the substitute is not in the target's
//     transitive fanout cone),
//   - do not increase the circuit delay (substitute arrival, plus an
//     inverter for complemented substitution, within the target arrival),
//   - reclaim positive area,
//   - and look almost-identical on the pattern set: difference probability
//     at most cfg.SimilarityCap.
//
// Constants are always delay-safe and cycle-safe.
func (env *gatherEnv) appendTarget(out []Candidate, td *targetData, t circuit.NodeID) []Candidate {
	if td.baseGain <= 0 {
		return out
	}
	p1 := float64(env.pop[t]) / float64(env.m)
	if p0 := 1 - p1; p0 <= env.cfg.SimilarityCap {
		out = append(out, Candidate{Target: t, Sub: circuit.InvalidNode,
			Const: true, ConstVal: true, DiffProb: p0, AreaGain: td.baseGain})
	}
	if p1 <= env.cfg.SimilarityCap {
		out = append(out, Candidate{Target: t, Sub: circuit.InvalidNode,
			Const: true, ConstVal: false, DiffProb: p1, AreaGain: td.baseGain})
	}
	var tfo []bool
	if !env.strict {
		tfo = env.net.TransitiveFanoutCone(t)
	}
	tv := env.vals.Node(t)
	for _, s := range env.subs {
		if s == t || (tfo != nil && tfo[s]) {
			continue
		}
		out = env.appendPair(out, td, t, s, tv)
	}
	return out
}

// appendPair appends the admissible plain and inverted candidates of the
// pair (t, s). The caller has already screened s == t and, unless the
// arrival times are strict, the cycle check (s in t's fanout cone).
//
// Two exact screens run before the pattern-space XOR. The arrival guard
// comes first. Then the popcount bound: the Hamming distance d of the two
// vectors is at least |pop(t) − pop(s)|, and that of t and NOT s — which
// is M − d — at least |pop(t) − (M − pop(s))|. Each bound is evaluated
// with the admission test's own float expression (floating-point division
// and subtraction are monotone), so the screen rejects a pair only when
// the test itself would.
func (env *gatherEnv) appendPair(out []Candidate, td *targetData, t, s circuit.NodeID, tv *bitvec.Vec) []Candidate {
	tArr := env.arrival[t]
	plain := env.arrival[s] <= tArr
	inv := env.arrival[s]+env.invDelay <= tArr
	if !plain && !inv {
		return out
	}
	m, simCap := env.m, env.cfg.SimilarityCap
	pt, ps := env.pop[t], env.pop[s]
	if plain && float64(absInt(pt-ps))/float64(m) > simCap {
		plain = false
	}
	if inv && 1-float64(m-absInt(pt-(m-ps)))/float64(m) > simCap {
		inv = false
	}
	if !plain && !inv {
		return out
	}
	dp := float64(bitvec.XorCount(tv, env.vals.Node(s))) / float64(m)
	if plain && dp <= simCap {
		if g := env.pairGain(td, t, s); g > 0 {
			out = append(out, Candidate{Target: t, Sub: s, DiffProb: dp, AreaGain: g})
		}
	}
	if idp := 1 - dp; inv && idp <= simCap {
		if g := env.pairGain(td, t, s) - env.invArea; g > 0 {
			out = append(out, Candidate{Target: t, Sub: s, Inverted: true, DiffProb: idp, AreaGain: g})
		}
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pairGain returns the exact area reclaimed when t is replaced by s: the
// base MFFC gain, or — for the uncommon substitute inside t's MFFC — the
// gain with s pinned alive.
func (env *gatherEnv) pairGain(td *targetData, t, s circuit.NodeID) float64 {
	in := false
	for _, id := range td.mffc {
		if id == s {
			in = true
			break
		}
	}
	if !in {
		return td.baseGain
	}
	g := 0.0
	for _, id := range env.net.MFFCExcluding(t, s) {
		g += env.cfg.Library.GateArea(env.net.Kind(id), len(env.net.Fanins(id)))
	}
	return g
}

// gather is the one full candidate enumeration, used by every path: the
// non-incremental flow, EstimateAll, the incremental cross-check and the
// gather cache's first iteration. Targets are bin-packed (uniform cost)
// onto the pool; each bin appends its candidates into its worker's
// reusable buffer, copies them into an exact-size run and sorts the run
// on the worker. The driver then merges the runs. candLess is a strict
// total order, so the result — the unique sorted permutation of the
// candidate multiset — is bit-identical at any worker count and bin
// shape. A single-worker pool runs the bins inline.
//
// When data is non-nil, each target's gather state is recorded in
// data[t] (the slot is owned by the target, so workers write disjointly).
// The result is not capped at MaxCandidates. A cancelled context aborts
// the fan-out and returns the context's error.
func gather(goCtx context.Context, env *gatherEnv, pool *par.Pool, data []targetData) ([]Candidate, error) {
	targets := liveGateTargets(env.net)
	costs := make([]float64, len(targets))
	for i := range costs {
		costs[i] = 1
	}
	var planner par.Planner
	bins := planner.Plan(costs, par.PlanBins(len(targets), pool.Workers()))
	runs := make([][]Candidate, len(bins))
	bufs := make([][]Candidate, pool.Workers())
	pool.Label("sasimi.gather", obs.PhaseEstimate)
	if err := pool.DoCtx(goCtx, len(bins), func(w, bi int) {
		buf := bufs[w][:0]
		for _, ti := range bins[bi] {
			t := targets[ti]
			td := env.target(t, data != nil)
			buf = env.appendTarget(buf, &td, t)
			if data != nil {
				data[t] = td
			}
		}
		bufs[w] = buf
		runs[bi] = sortedRun(buf)
	}); err != nil {
		return nil, err
	}
	return mergeSorted(runs), nil
}

// liveGateTargets returns the admissible substitution targets, ascending.
func liveGateTargets(net *circuit.Network) []circuit.NodeID {
	targets := make([]circuit.NodeID, 0, net.NumNodes())
	for _, id := range net.LiveNodes() {
		if net.Kind(id).IsGate() {
			targets = append(targets, id)
		}
	}
	return targets
}

// candCompare is the flow's deterministic candidate order as a three-way
// comparison: most similar first, ties by larger gain, then by candidate
// identity (target, substitute, constant value, inversion). The trailing
// identity fields make this a strict total order over distinct candidates
// — no two different candidates ever compare equal (constants carry Sub
// == circuit.InvalidNode, so they never tie with pairs on the same
// target). Totality is what makes sorting deterministic however the
// candidates are split: the sorted permutation of any candidate multiset
// is unique, so merging sorted pieces is bit-identical to sorting their
// concatenation.
func candCompare(a, b *Candidate) int {
	switch {
	case a.DiffProb != b.DiffProb:
		if a.DiffProb < b.DiffProb {
			return -1
		}
		return 1
	case a.AreaGain != b.AreaGain:
		if a.AreaGain > b.AreaGain {
			return -1
		}
		return 1
	case a.Target != b.Target:
		if a.Target < b.Target {
			return -1
		}
		return 1
	case a.Sub != b.Sub:
		if a.Sub < b.Sub {
			return -1
		}
		return 1
	case a.ConstVal != b.ConstVal:
		if a.ConstVal {
			return -1
		}
		return 1
	case a.Inverted != b.Inverted:
		if !a.Inverted {
			return -1
		}
		return 1
	}
	return 0
}

// candLess reports whether a precedes b in the candCompare order.
func candLess(a, b *Candidate) bool { return candCompare(a, b) < 0 }

// sortedRun copies a bin's candidates out of a worker's reusable buffer
// into an exact-size run and sorts it.
func sortedRun(buf []Candidate) []Candidate {
	if len(buf) == 0 {
		return nil
	}
	run := make([]Candidate, len(buf))
	copy(run, buf)
	slices.SortFunc(run, func(a, b Candidate) int { return candCompare(&a, &b) })
	return run
}

// mergeSorted merges candLess-sorted runs into one sorted slice: a k-way
// merge through a binary min-heap of run heads. Ties cannot occur (the
// order is total over distinct candidates), so the result equals sorting
// the runs' concatenation. With one non-empty run it is returned as is;
// otherwise the result is a new exact-size slice. runs is not modified.
func mergeSorted(runs [][]Candidate) []Candidate {
	var h [][]Candidate // heap of non-empty run remainders, keyed by head
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, r)
			total += len(r)
		}
	}
	switch len(h) {
	case 0:
		return nil
	case 1:
		return h[0]
	}
	siftDown := func(i int) {
		for {
			min, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && candLess(&h[l][0], &h[min][0]) {
				min = l
			}
			if r < len(h) && candLess(&h[r][0], &h[min][0]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Candidate, 0, total)
	for len(h) > 1 {
		out = append(out, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return append(out, h[0]...)
}

// capped returns the MaxCandidates prefix of a sorted candidate list — a
// view, not a copy. Scoring and verification write only Delta, Score and
// Exact, which no gather path reads.
func capped(cands []Candidate, cfg *Config) []Candidate {
	if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
		return cands[:cfg.MaxCandidates]
	}
	return cands
}

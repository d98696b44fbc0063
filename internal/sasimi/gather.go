package sasimi

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

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
	adm      *admission
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

func newGatherEnv(net *circuit.Network, vals *sim.Values, cfg *Config, arrival []float64, invDelay float64, adm *admission) *gatherEnv {
	if adm.m != vals.M {
		panic("sasimi: admission thresholds computed for a different pattern count")
	}
	env := &gatherEnv{
		net:      net,
		vals:     vals,
		cfg:      cfg,
		arrival:  arrival,
		invDelay: invDelay,
		invArea:  cfg.Library.GateArea(circuit.KindNot, 1),
		subs:     make([]circuit.NodeID, 0, net.NumNodes()),
		m:        vals.M,
		adm:      adm,
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

// admission is a run's similarity cap restated over integer difference
// counts. Every DiffProb the gather admits is one of two float expressions
// of a count c out of M patterns:
//
//   - float64(c)/float64(M): plain pairs (c is the XOR popcount) and
//     constant 0 (c is the target's popcount);
//   - 1 − float64(c)/float64(M): inverted pairs and constant 1.
//
// Both are monotone in c, so the admission test is a threshold on c: the
// plain form admits c ≤ maxPlain, the inverted form c ≥ minInv. The
// thresholds are found with the test's own expressions, so comparing
// counts decides every candidate exactly as the float test does.
//
// A rank maps an admitted DiffProb to an integer in the same order: 2d+s,
// where d is the number of differing patterns (c for the plain form, M − c
// for the inverted one) and s ∈ {0, 1} orders the two float forms of the
// same d, which may differ in the last bit (never at power-of-two M).
// Distinct d lie 1/M apart, far beyond either form's rounding error, so
// equal ranks mean equal DiffProbs and rank order is DiffProb order.
type admission struct {
	m                int
	maxPlain, minInv int
	// plainRank[c] ranks the plain form of c ≤ maxPlain, invRank[c−minInv]
	// the inverted form of c ≥ minInv.
	plainRank, invRank []uint32
	numRanks           int // every rank is below numRanks
}

// newAdmission computes the admission thresholds and rank tables for m
// patterns under similarity cap simCap. It costs O(m) and depends on
// nothing else, so a flow computes it once per run.
func newAdmission(m int, simCap float64) *admission {
	fm := float64(m)
	plainDP := func(c int) float64 { return float64(c) / fm }
	invDP := func(c int) float64 { return 1 - float64(c)/fm }
	a := &admission{
		m:        m,
		maxPlain: sort.Search(m+1, func(c int) bool { return !(plainDP(c) <= simCap) }) - 1,
		minInv:   sort.Search(m+1, func(c int) bool { return invDP(c) <= simCap }),
	}
	a.plainRank = make([]uint32, a.maxPlain+1)
	for c := range a.plainRank {
		a.plainRank[c] = formRank(c, plainDP(c) > invDP(m-c))
	}
	a.invRank = make([]uint32, m+1-a.minInv)
	for i := range a.invRank {
		c := a.minInv + i
		a.invRank[i] = formRank(m-c, invDP(c) > plainDP(m-c))
	}
	a.numRanks = 2*max(a.maxPlain, m-a.minInv) + 2
	return a
}

// formRank is the rank 2d+s of a DiffProb with d differing patterns; above
// reports that it exceeds the other float form of the same d.
func formRank(d int, above bool) uint32 {
	r := uint32(2 * d)
	if above {
		r++
	}
	return r
}

// binBuf is one pool worker's reusable gather scratch: the candidates a
// bin emits, each one's DiffProb rank alongside, and the keys and rank
// histogram that sort them. Everything is reused bin after bin, so the
// scratch grows to the largest bin the worker runs.
type binBuf struct {
	cands []Candidate
	ranks []uint32
	keys  []runKey
	start []int
}

// runKey orders candidates of equal rank: descending AreaGain (every
// admitted gain is positive, and the complemented bits of a positive float
// ascend as the float descends), then emission index.
type runKey struct {
	gain uint64
	idx  uint32
}

func compareRunKeys(a, b runKey) int {
	if a.gain != b.gain {
		return cmp.Compare(a.gain, b.gain)
	}
	return cmp.Compare(a.idx, b.idx)
}

func (b *binBuf) add(c Candidate, rank uint32) {
	b.cands = append(b.cands, c)
	b.ranks = append(b.ranks, rank)
}

// sortedRun returns the bin's candidates as an exact-size run in
// candCompare order and empties the buffer for the next bin.
//
// The bin must have emitted in identity order: ascending target, and per
// target the constants (1 before 0), then the substitutes ascending, plain
// before inverted. That is the candCompare order among candidates of equal
// DiffProb and AreaGain, so the emission index stands in for the identity
// fields. A counting sort by rank, stable in emission order, then leaves
// only equal-rank candidates to order, by gain and emission index.
func (b *binBuf) sortedRun(numRanks int) []Candidate {
	n := len(b.cands)
	if n == 0 {
		return nil
	}
	b.start = slices.Grow(b.start[:0], numRanks+1)[:numRanks+1]
	start := b.start
	clear(start)
	for _, r := range b.ranks {
		start[r+1]++
	}
	for r := 1; r <= numRanks; r++ {
		start[r] += start[r-1]
	}
	b.keys = slices.Grow(b.keys[:0], n)[:n]
	keys := b.keys
	for i, r := range b.ranks {
		keys[start[r]] = runKey{gain: ^math.Float64bits(b.cands[i].AreaGain), idx: uint32(i)}
		start[r]++
	}
	// start[r] is now the end of rank r's keys.
	lo := 0
	for _, hi := range start[:numRanks] {
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], compareRunKeys)
		}
		lo = hi
	}
	run := make([]Candidate, n)
	for i, k := range keys {
		run[i] = b.cands[k.idx]
	}
	b.cands, b.ranks = b.cands[:0], b.ranks[:0]
	return run
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

// appendTarget appends every admissible candidate of target t to b, in
// identity order: keep substitutions that
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
func (env *gatherEnv) appendTarget(b *binBuf, td *targetData, t circuit.NodeID) {
	if td.baseGain <= 0 {
		return
	}
	adm, m, pt := env.adm, env.m, env.pop[t]
	if pt >= adm.minInv {
		b.add(Candidate{Target: t, Sub: circuit.InvalidNode, Const: true, ConstVal: true,
			DiffProb: 1 - float64(pt)/float64(m), AreaGain: td.baseGain}, adm.invRank[pt-adm.minInv])
	}
	if pt <= adm.maxPlain {
		b.add(Candidate{Target: t, Sub: circuit.InvalidNode, Const: true, ConstVal: false,
			DiffProb: float64(pt) / float64(m), AreaGain: td.baseGain}, adm.plainRank[pt])
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
		env.appendPair(b, td, t, s, tv)
	}
}

// appendPair appends the admissible plain and inverted candidates of the
// pair (t, s), plain first. The caller has already screened s == t and,
// unless the arrival times are strict, the cycle check (s in t's fanout
// cone).
//
// Two exact screens run before the pattern-space XOR. The arrival guard
// comes first. Then the popcount bound: the Hamming distance d of the two
// vectors is at least |pop(t) − pop(s)|, and that of t and NOT s — which
// is M − d — at least |pop(t) − (M − pop(s))|, so d is at most
// M − |pop(t) − (M − pop(s))|. Each bound is compared with the admission
// threshold of its form, so the screen rejects a pair only when the
// admission test itself would.
func (env *gatherEnv) appendPair(b *binBuf, td *targetData, t, s circuit.NodeID, tv *bitvec.Vec) {
	tArr := env.arrival[t]
	plain := env.arrival[s] <= tArr
	inv := env.arrival[s]+env.invDelay <= tArr
	if !plain && !inv {
		return
	}
	adm, m := env.adm, env.m
	pt, ps := env.pop[t], env.pop[s]
	plain = plain && absInt(pt-ps) <= adm.maxPlain
	inv = inv && m-absInt(pt-(m-ps)) >= adm.minInv
	if !plain && !inv {
		return
	}
	c := bitvec.XorCount(tv, env.vals.Node(s))
	if plain && c <= adm.maxPlain {
		if g := env.pairGain(td, t, s); g > 0 {
			b.add(Candidate{Target: t, Sub: s, DiffProb: float64(c) / float64(m), AreaGain: g}, adm.plainRank[c])
		}
	}
	if inv && c >= adm.minInv {
		if g := env.pairGain(td, t, s) - env.invArea; g > 0 {
			b.add(Candidate{Target: t, Sub: s, Inverted: true, DiffProb: 1 - float64(c)/float64(m), AreaGain: g},
				adm.invRank[c-adm.minInv])
		}
	}
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
// reusable buffer and turns them into an exact-size sorted run on the
// worker. The driver then merges the runs. candCompare is a strict total
// order, so the result — the unique sorted permutation of the candidate
// multiset — is bit-identical at any worker count and bin shape. A
// single-worker pool runs the bins inline.
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
	bins := planAscending(&planner, costs, pool.Workers())
	runs := make([][]Candidate, len(bins))
	bufs := make([]binBuf, pool.Workers())
	pool.Label("sasimi.gather", obs.PhaseEstimate)
	if err := pool.DoCtx(goCtx, len(bins), func(w, bi int) {
		b := &bufs[w]
		for _, ti := range bins[bi] {
			t := targets[ti]
			td := env.target(t, data != nil)
			env.appendTarget(b, &td, t)
			if data != nil {
				data[t] = td
			}
		}
		runs[bi] = b.sortedRun(env.adm.numRanks)
	}); err != nil {
		return nil, err
	}
	return mergeSorted(runs), nil
}

// planAscending bin-packs items with the given costs for the pool's
// workers and orders every bin ascending. Callers list their items in
// ascending target order, so every bin enumerates its targets ascending
// and emits its candidates in identity order, as binBuf.sortedRun needs.
func planAscending(p *par.Planner, costs []float64, workers int) [][]int {
	bins := p.Plan(costs, par.PlanBins(len(costs), workers))
	for _, b := range bins {
		slices.Sort(b)
	}
	return bins
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

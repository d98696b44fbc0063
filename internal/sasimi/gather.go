package sasimi

import (
	"cmp"
	"context"
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
	if net.NumSlots() > maxSlots {
		panic("sasimi: network has more node slots than a stored candidate can name")
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
// equal ranks mean equal DiffProbs and rank order is DiffProb order. The
// candidate store keeps the rank in place of the DiffProb (rec.rank), and
// view recomputes the DiffProb where a caller needs it.
type admission struct {
	m                int
	maxPlain, minInv int
	// plainRank[c] ranks the plain form of c ≤ maxPlain, invRank[c−minInv]
	// the inverted form of c ≥ minInv.
	plainRank, invRank []uint32
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

// targetData is the per-target gather state: the MFFC-derived gain
// figures every pair of the target needs, plus the dependency set the
// incremental cache probes to decide staleness.
type targetData struct {
	live     bool
	baseGain float64
	mffc     []circuit.NodeID
	// exc holds the gains pairGain walked for substitutes inside the MFFC,
	// the store's exceptions. The MFFC walks read only deps, so an entry
	// holds while the target is clean, whatever pairs come and go.
	exc []excGain
	// deps are the nodes whose records the MFFC computation read: the cone
	// nodes themselves (fanin lists) and their fanins (fanout counts and
	// output-driver status). If none of them was touched by an edit, the
	// MFFC, baseGain and every pairGain of this target are unchanged.
	deps []circuit.NodeID
}

// target computes target t's MFFC gain figures in bin b's scratch, with
// the dependency set when wantDeps is set (the incremental cache records
// it, so td.mffc is then a copy, the prefix of td.deps; otherwise it is
// b's buffer, valid until the bin's next target).
func (env *gatherEnv) target(b *binBuf, t circuit.NodeID, wantDeps bool) targetData {
	td := targetData{live: true}
	b.cone = env.net.AppendMFFC(b.cone[:0], &b.mffc, t, circuit.InvalidNode)
	for _, id := range b.cone {
		td.baseGain += env.cfg.Library.GateArea(env.net.Kind(id), len(env.net.Fanins(id)))
	}
	if !wantDeps {
		td.mffc = b.cone
		return td
	}
	// The cone's nodes, then their fanins outside it, in one allocation
	// whose prefix is the cone's copy.
	b.seen = grow(b.seen, env.net.NumSlots())
	b.deps = append(b.deps[:0], b.cone...)
	for _, id := range b.cone {
		b.seen[id] = true
	}
	for _, id := range b.cone {
		for _, f := range env.net.Fanins(id) {
			if !b.seen[f] {
				b.seen[f] = true
				b.deps = append(b.deps, f)
			}
		}
	}
	for _, id := range b.deps {
		b.seen[id] = false
	}
	td.deps = slices.Clone(b.deps)
	td.mffc = td.deps[:len(b.cone):len(b.cone)]
	return td
}

// appendTarget appends every admissible candidate of target t to b: keep
// substitutions that
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
	adm, pt := env.adm, env.pop[t]
	if pt >= adm.minInv {
		b.add(t, mkRec(circuit.InvalidNode, kindConst1, false, adm.invRank[pt-adm.minInv]))
	}
	if pt <= adm.maxPlain {
		b.add(t, mkRec(circuit.InvalidNode, kindConst0, false, adm.plainRank[pt]))
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
// pair (t, s). The caller has already screened s == t and, unless the
// arrival times are strict, the cycle check (s in t's fanout cone).
//
// Two exact screens run before the pattern-space XOR. The arrival guard
// comes first. Then the popcount bound: the Hamming distance d of the two
// vectors is at least |pop(t) − pop(s)|, and that of t and NOT s — which
// is M − d — at least |pop(t) − (M − pop(s))|, so d is at most
// M − |pop(t) − (M − pop(s))|. Each bound is compared with the admission
// threshold of its form, so the screen rejects a pair only when the
// admission test itself would. A pair is stored only while its gain,
// which the store derives (see segment.gainOf), is positive.
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
	plain = plain && c <= adm.maxPlain
	inv = inv && c >= adm.minInv
	if !plain && !inv {
		return
	}
	g, exc := env.pairGain(b, td, t, s)
	if plain && g > 0 {
		b.add(t, mkRec(s, kindPlain, exc, adm.plainRank[c]))
	}
	if inv && g-env.invArea > 0 {
		b.add(t, mkRec(s, kindInverted, exc, adm.invRank[c-adm.minInv]))
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pairGain returns the exact area reclaimed when t is replaced by s: the
// base MFFC gain, or — for the uncommon substitute inside t's MFFC, an
// exception — the gain with s pinned alive, walked in bin b's scratch
// the first time the target needs it and kept, until the target's
// records end (binBuf.end), in the bin's exceptions. exc reports the
// exception.
func (env *gatherEnv) pairGain(b *binBuf, td *targetData, t, s circuit.NodeID) (g float64, exc bool) {
	in := false
	for _, id := range td.mffc {
		if id == s {
			in = true
			break
		}
	}
	if !in {
		return td.baseGain, false
	}
	for _, exc := range [2][]excGain{td.exc, b.exc[b.excStart:]} {
		for _, e := range exc {
			if e.sub == s {
				return e.gain, true
			}
		}
	}
	b.excl = env.net.AppendMFFC(b.excl[:0], &b.mffc, t, s)
	for _, id := range b.excl {
		g += env.cfg.Library.GateArea(env.net.Kind(id), len(env.net.Fanins(id)))
	}
	if len(b.exc) == cap(b.exc) {
		b.exc = slices.Grow(b.exc, 32)
	}
	b.exc = append(b.exc, excGain{sub: s, gain: g})
	return g, true
}

// gather is the one full candidate enumeration, used by every path: the
// flow's first iteration (through the gather cache), EstimateAll and the
// incremental cross-check. It returns the candidate store, in identity
// order (target, substitute, kind; see mkRec), the order appendTarget
// emits a target's candidates in. The targets, ascending, are split into
// contiguous bins of balanced expected cost (see enumCost); each bin
// appends its candidates to its own pages on whichever worker runs it,
// and the store takes the bins' pages end to end, copying nothing. So the
// list is the same at any worker count and bin shape, with nothing to
// sort or merge. A single-worker pool runs its one bin inline.
//
// When data is non-nil, each target's gather state is recorded in
// data[t] (the slot is owned by the target, so workers write disjointly).
// A cancelled context aborts the fan-out and returns the context's error.
func gather(goCtx context.Context, env *gatherEnv, pool *par.Pool, data []targetData) (*candStore, error) {
	targets := liveGateTargets(env.net)
	cost := env.enumCost()
	costs := make([]float64, len(targets))
	for i, t := range targets {
		costs[i] = cost(t)
	}
	var planner par.Planner
	bounds := planner.Plan(costs, par.PlanBins(len(targets), pool.Workers()))
	bufs := make([]binBuf, len(bounds)-1)
	pool.Label("sasimi.gather", obs.PhaseEstimate)
	if err := pool.DoCtx(goCtx, len(bufs), func(_, bi int) {
		b := &bufs[bi]
		b.segs = make([]segment, 0, bounds[bi+1]-bounds[bi])
		for _, t := range targets[bounds[bi]:bounds[bi+1]] {
			td := env.target(b, t, data != nil)
			b.begin()
			env.appendTarget(b, &td, t)
			b.end(&td)
			if data != nil {
				data[t] = td
			}
		}
	}); err != nil {
		return nil, err
	}
	st := &candStore{invArea: env.invArea}
	st.adopt(bufs)
	return st, nil
}

// enumCost returns a function giving a target's expected cost of a full
// enumeration, for the bin planner: the substitutes that arrive no later
// than the target, which pass the arrival guard and so take the popcount
// screen, the XOR and most of the candidates, plus a share of the guard's
// scan over every substitute. Weighting by them rather than by target
// count keeps the bins' times even: late targets take the XOR for far
// more pairs than early ones.
func (env *gatherEnv) enumCost() func(circuit.NodeID) float64 {
	arr := make([]float64, len(env.subs))
	for i, s := range env.subs {
		arr[i] = env.arrival[s]
	}
	slices.Sort(arr)
	scan := float64(len(arr)) / 8
	return func(t circuit.NodeID) float64 {
		a := env.arrival[t]
		return scan + float64(sort.Search(len(arr), func(i int) bool { return arr[i] > a }))
	}
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

// candCompare is the flow's preference between candidates of equal score,
// as a three-way comparison: most similar first (ascending rank, which is
// ascending DiffProb), ties by larger gain, then by identity. It is a
// strict total order over distinct candidates, so the candCompare-first
// of any set of candidates is unique: selectFeasible and scoreCandidates
// pick it among equal best scores, and verifyTopK orders its feasible
// entries by it, whatever order the list is in.
func candCompare(a, b *choice) int {
	switch {
	case a.rank != b.rank:
		return cmp.Compare(a.rank, b.rank)
	case a.gain != b.gain:
		if a.gain > b.gain {
			return -1
		}
		return 1
	}
	return recCompare(a.target, a.rec, b.target, b.rec)
}

package sasimi

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// bruteGather is the reference enumeration the gather is tested against:
// every (target, substitute) pair, the cycle screen as an explicit
// TransitiveFanoutCone walk, the difference as a materialised XOR plus
// Count, no other screens, and one sort.Slice over the whole list into
// identity order.
func bruteGather(net *circuit.Network, vals *sim.Values, cfg *Config, arrival []float64, invDelay float64) []Candidate {
	m := vals.M
	simCap := cfg.SimilarityCap
	invArea := cfg.Library.GateArea(circuit.KindNot, 1)
	area := func(ids []circuit.NodeID) float64 {
		g := 0.0
		for _, id := range ids {
			g += cfg.Library.GateArea(net.Kind(id), len(net.Fanins(id)))
		}
		return g
	}
	var cands []Candidate
	diff := bitvec.New(m)
	for _, t := range net.LiveNodes() {
		if !net.Kind(t).IsGate() {
			continue
		}
		mffc := net.MFFC(t)
		gain := area(mffc)
		if gain <= 0 {
			continue
		}
		pairGain := func(s circuit.NodeID) float64 {
			for _, id := range mffc {
				if id == s {
					return area(net.MFFCExcluding(t, s))
				}
			}
			return gain
		}
		tv := vals.Node(t)
		p1 := float64(tv.Count()) / float64(m)
		if p0 := 1 - p1; p0 <= simCap {
			cands = append(cands, Candidate{Target: t, Sub: circuit.InvalidNode,
				Const: true, ConstVal: true, DiffProb: p0, AreaGain: gain})
		}
		if p1 <= simCap {
			cands = append(cands, Candidate{Target: t, Sub: circuit.InvalidNode,
				Const: true, ConstVal: false, DiffProb: p1, AreaGain: gain})
		}
		tfo := net.TransitiveFanoutCone(t)
		for _, s := range net.LiveNodes() {
			k := net.Kind(s)
			if s == t || tfo[s] || !(k.IsGate() || k == circuit.KindInput) {
				continue
			}
			dp := float64(diff.Xor(tv, vals.Node(s)).Count()) / float64(m)
			if dp <= simCap && arrival[s] <= arrival[t] {
				if g := pairGain(s); g > 0 {
					cands = append(cands, Candidate{Target: t, Sub: s, DiffProb: dp, AreaGain: g})
				}
			}
			if idp := 1 - dp; idp <= simCap && arrival[s]+invDelay <= arrival[t] {
				if g := pairGain(s) - invArea; g > 0 {
					cands = append(cands, Candidate{Target: t, Sub: s, Inverted: true, DiffProb: idp, AreaGain: g})
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return idLess(&cands[i], &cands[j]) })
	return cands
}

// idLess is the reference candidate list order, stated over the
// Candidate view: by identity (target, substitute, constant 1 before
// constant 0, plain before inverted). The production gather must emit
// every list in exactly this order.
func idLess(a, b *Candidate) bool {
	switch {
	case a.Target != b.Target:
		return a.Target < b.Target
	case a.Sub != b.Sub:
		return a.Sub < b.Sub
	case a.ConstVal != b.ConstVal:
		return a.ConstVal
	}
	return !a.Inverted && b.Inverted
}

// identityOf returns the stored candidate with a Candidate's identity
// (no rank or gain): enough to materialise its substitute value.
func identityOf(c *Candidate) choice {
	kind := kindPlain
	switch {
	case c.Const && c.ConstVal:
		kind = kindConst1
	case c.Const:
		kind = kindConst0
	case c.Inverted:
		kind = kindInverted
	}
	return choice{target: c.Target, rec: mkRec(c.Sub, kind, false, 0)}
}

// gatherFixture simulates net on m seeded random patterns and returns the
// inputs of one gather under cfg (defaults filled).
func gatherFixture(net *circuit.Network, m int, cfg *Config) (*sim.Values, []float64, float64) {
	cfg.fillDefaults()
	vals := sim.Simulate(net, sim.RandomPatterns(net.NumInputs(), m, 7))
	return vals, cfg.Library.NodeArrival(net), cfg.Library.GateDelay(circuit.KindNot)
}

// gatherOn runs the production gather at the given worker count.
func gatherOn(t testing.TB, env *gatherEnv, workers int) *candStore {
	t.Helper()
	pool := par.NewPool(workers)
	defer pool.Close()
	got, _, err := gather(context.Background(), env, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// gatherStore runs the production gather for a fixture on one worker.
func gatherStore(t testing.TB, net *circuit.Network, vals *sim.Values, cfg *Config, arrival []float64, invDelay float64) *candStore {
	t.Helper()
	env := newGatherEnv(net, vals, cfg, arrival, invDelay, newAdmission(vals.M, cfg.SimilarityCap))
	return gatherOn(t, env, 1)
}

// choices decodes every stored candidate, in list order.
func choices(store *candStore) []choice {
	var out []choice
	for k := range store.segs {
		sg := &store.segs[k]
		if int(sg.pos) != len(out) {
			panic("segment positions are not the records laid end to end")
		}
		for j := range sg.recs {
			out = append(out, sg.choice(j, store.invArea))
		}
	}
	return out
}

// sameCandidates converts the production records through the view
// EstimateAll builds and fails the test at the first field-level
// divergence from the reference.
func sameCandidates(t *testing.T, label string, adm *admission, got *candStore, want []Candidate) {
	t.Helper()
	cs := choices(got)
	if len(cs) != len(want) || got.len() != len(want) {
		t.Fatalf("%s: %d candidates (%d stored), reference has %d", label, len(cs), got.len(), len(want))
	}
	for i := range cs {
		if v := adm.view(&cs[i]); v != want[i] {
			t.Fatalf("%s: candidate %d diverges:\n got  %+v (%+v)\n want %+v", label, i, v, cs[i], want[i])
		}
	}
}

// storePrefix returns a store of the first n candidates of st, sharing
// its pages.
func storePrefix(st *candStore, n int) *candStore {
	p := &candStore{invArea: st.invArea, n: n}
	for _, sg := range st.segs {
		if int(sg.pos) >= n {
			break
		}
		if sg.end() > n {
			sg.recs = sg.recs[:n-int(sg.pos)]
		}
		p.segs = append(p.segs, sg)
	}
	for acc := 0; acc < n; {
		pg := st.pages[len(p.pages)]
		pg = pg[:min(len(pg), n-acc)]
		p.pages = append(p.pages, pg)
		acc += len(pg)
	}
	return p
}

// TestStoredCandidateLayout pins the size of the stored record, which
// sets the bytes per candidate of every gathered list, and of the scored
// entry: 8 and at most 24 (the Candidate view is 56).
func TestStoredCandidateLayout(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 8 {
		t.Fatalf("stored candidate is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(scored{}); got > 24 {
		t.Fatalf("scored entry is %d bytes, want at most 24", got)
	}
}

// TestGatherMatchesBruteForce pins the one gather — integer admission,
// screens, cone-walk elision and the contiguous bins laid end to end in
// identity order — against the brute-force reference, field for field,
// over circuits ×
// pattern counts × similarity caps × workers. At M = 1000 and 10000 the
// two float forms of a DiffProb differ in the last bit for many counts,
// which the rank must tell apart; at M = 1024 they never do. Under -race the
// 3000-gate circuit is left out: the smaller circuits already fill every
// bin of the dispatch, and that row alone needs about 2 GB and a minute
// under the detector. It runs at M = 1024 only.
//
// Not every cell has candidates (par16's signals are all near probability
// 1/2, which M = 10000 resolves above every cap), so the comparison must
// be non-vacuous for every circuit and for every pattern count.
func TestGatherMatchesBruteForce(t *testing.T) {
	circuits := []string{"rca8", "dec4", "par16", "cmp8", "c880", "mul8"}
	if !raceEnabled {
		circuits = append(circuits, "synth3k")
	}
	perM := map[int]int{}
	for _, name := range circuits {
		perCircuit := 0
		var net *circuit.Network
		ms := []int{1000, 1024, 10000}
		if name == "synth3k" {
			net = bench.Tiled("synth3k", 64, 64, 3000, 10)
			ms = []int{1024}
		} else {
			var err error
			if net, err = bench.ByName(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range ms {
			for _, simCap := range []float64{0.1, 0.3, 0.45} {
				cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05}, SimilarityCap: simCap}
				vals, arrival, invDelay := gatherFixture(net, m, cfg)
				want := bruteGather(net, vals, cfg, arrival, invDelay)
				perCircuit += len(want)
				perM[m] += len(want)
				env := newGatherEnv(net, vals, cfg, arrival, invDelay, newAdmission(m, simCap))
				if !env.strict {
					t.Fatalf("%s: default library must give strict arrival times", name)
				}
				for _, workers := range []int{1, 2, 4} {
					sameCandidates(t, fmt.Sprintf("%s M=%d cap=%v workers=%d", name, m, simCap, workers),
						env.adm, gatherOn(t, env, workers), want)
				}
			}
		}
		if perCircuit == 0 {
			t.Fatalf("%s: reference gathered nothing in any cell; comparison is vacuous", name)
		}
	}
	for m, n := range perM {
		if n == 0 {
			t.Fatalf("M=%d: reference gathered nothing on any circuit; comparison is vacuous", m)
		}
	}
}

// TestAdmissionMatchesFloatTest pins the integer admission and the ranks
// against the float expressions they stand for. For every count, maxPlain
// and minInv admit exactly what the float admission test admits, and over
// every admitted DiffProb of both forms the rank order is the float order,
// with equal ranks exactly for equal values.
func TestAdmissionMatchesFloatTest(t *testing.T) {
	type form struct {
		dp   float64
		rank uint32
	}
	for _, m := range []int{1, 7, 1000, 1024, 10000, 100000} {
		split := 0 // counts d whose two float forms differ
		for d := 0; d <= m; d++ {
			if float64(d)/float64(m) != 1-float64(m-d)/float64(m) {
				split++
			}
		}
		if pow2 := m&(m-1) == 0; pow2 != (split == 0) {
			t.Fatalf("M=%d: the two float forms differ for %d counts", m, split)
		}
		for _, simCap := range []float64{0, 0.05, 0.1, 0.3, 0.45, 0.5, 0.7, 1} {
			adm := newAdmission(m, simCap)
			var all []form
			for c := 0; c <= m; c++ {
				dp := float64(c) / float64(m)
				if (dp <= simCap) != (c <= adm.maxPlain) {
					t.Fatalf("M=%d cap=%v: plain count %d (DiffProb %v) vs maxPlain %d", m, simCap, c, dp, adm.maxPlain)
				}
				if dp <= simCap {
					all = append(all, form{dp, adm.plainRank[c]})
				}
				idp := 1 - float64(c)/float64(m)
				if (idp <= simCap) != (c >= adm.minInv) {
					t.Fatalf("M=%d cap=%v: inverted count %d (DiffProb %v) vs minInv %d", m, simCap, c, idp, adm.minInv)
				}
				if idp <= simCap {
					all = append(all, form{idp, adm.invRank[c-adm.minInv]})
				}
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].dp != all[j].dp {
					return all[i].dp < all[j].dp
				}
				return all[i].rank < all[j].rank
			})
			for i, f := range all {
				if i == 0 {
					continue
				}
				p := all[i-1]
				if (p.dp == f.dp) != (p.rank == f.rank) || (p.dp < f.dp) != (p.rank < f.rank) {
					t.Fatalf("M=%d cap=%v: DiffProbs %v, %v have ranks %d, %d", m, simCap, p.dp, f.dp, p.rank, f.rank)
				}
			}
		}
	}
}

// zeroDelayNotLibrary is the default library with free inverters: a NOT
// gate then arrives no later than its fanin, which defeats the strict
// arrival check and leaves the cycle screen to the cone walks.
func zeroDelayNotLibrary() *cell.Library {
	lib := cell.Default()
	lib.Delay[circuit.KindNot] = 0
	return lib
}

// TestGatherConeWalkFallback runs the gather under a library whose
// arrival times are not strict (c880 has inverters driven by gates).
// There a target and the inverter it drives arrive together, so only the
// cone walk keeps the cycle-closing inverted pair out; the test also
// shows that the walk is load-bearing by disabling it.
func TestGatherConeWalkFallback(t *testing.T) {
	net, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05, Library: zeroDelayNotLibrary()}}
	vals, arrival, invDelay := gatherFixture(net, 1024, cfg)
	want := bruteGather(net, vals, cfg, arrival, invDelay)
	env := newGatherEnv(net, vals, cfg, arrival, invDelay, newAdmission(vals.M, cfg.SimilarityCap))
	if env.strict {
		t.Fatal("zero-delay inverters must defeat the strict-arrival check")
	}
	for _, workers := range []int{1, 2, 4} {
		sameCandidates(t, fmt.Sprintf("c880 zero-delay NOT workers=%d", workers), env.adm, gatherOn(t, env, workers), want)
	}
	env.strict = true // skip the walks although arrival does not cover them
	if got := gatherOn(t, env, 1); got.len() <= len(want) {
		t.Fatalf("without the cone walk the gather found %d candidates, want more than %d: the fallback is untested",
			got.len(), len(want))
	}
}

// TestIncrementalConeWalkFallback runs the incremental flow under the
// non-strict library with the per-iteration cross-check on, so the
// cache's transitive-fanin fallback is compared against a full gather
// every iteration.
func TestIncrementalConeWalkFallback(t *testing.T) {
	golden, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := Run(golden, Config{
			Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05, NumPatterns: 1000, Seed: 3,
				Library: zeroDelayNotLibrary()},
			Workers:           workers,
			CheckInvariants:   true,
			verifyIncremental: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.NumIterations < 2 {
			t.Fatalf("workers=%d: %d iterations; the cache update never ran", workers, res.NumIterations)
		}
	}
}

// TestGatherAdmitsPairsBelowPrefixCap pins the removal of the old prefix
// screen, which judged a pair by its first 256 patterns against a cap of
// 2·SimilarityCap + 0.1 and so dropped admissible pairs whenever the cap
// was below 0.2. Here AND(a, b) differs from a on 100 of 4096 patterns,
// all of them among the first 256: the prefix reads 100/256 ≈ 0.39 > 0.3,
// yet the difference probability 100/4096 ≈ 0.024 is well inside the cap.
func TestGatherAdmitsPairsBelowPrefixCap(t *testing.T) {
	net := circuit.New("and2")
	a := net.AddInput("a")
	b := net.AddInput("b")
	and := net.AddGate(circuit.KindAnd, a, b)
	net.AddOutput("y", and)

	const m = 4096
	patterns := sim.NewPatterns(2, m)
	for i := 0; i < m; i++ {
		patterns.SetBit(i, 0, true)
		patterns.SetBit(i, 1, i >= 100)
	}
	for _, workers := range []int{1, 2, 4} {
		cands, err := EstimateAll(net, net.Clone(), Config{
			Budget:        flow.Budget{Metric: core.MetricER, Threshold: 0.05},
			Patterns:      patterns,
			SimilarityCap: 0.1,
			Workers:       workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range cands {
			if c.Target == and && c.Sub == a && !c.Inverted && !c.Const {
				found = true
				if c.DiffProb != 100.0/m {
					t.Fatalf("workers=%d: AND <- a has DiffProb %v, want %v", workers, c.DiffProb, 100.0/m)
				}
			}
		}
		if !found {
			t.Fatalf("workers=%d: admissible pair AND <- a (DiffProb %v) missing from %+v", workers, 100.0/m, cands)
		}
	}
}

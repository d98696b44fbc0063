package sasimi

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// storeCircuit returns a registered benchmark, or the benchmark's 3000-gate
// synthetic circuit for "synth3k".
func storeCircuit(t testing.TB, name string) *circuit.Network {
	t.Helper()
	if name == "synth3k" {
		return bench.Tiled("synth3k", 64, 64, 3000, 10)
	}
	net, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestStoreGainsMatchOracle holds every stored candidate's derived gain,
// from the segment's base gain or from an exception, to the area an
// oracle walks for the pair: the MFFC of the target with the substitute
// kept alive (circuit.MFFCExcluding), minus the inverter for an inverted
// pair. It also checks the records' exception bits against MFFC
// membership, and that no admissible inverted pair whose gain minus the
// inverter is not positive was stored. Exceptions and such inverted pairs
// must occur, so neither check is vacuous.
func TestStoreGainsMatchOracle(t *testing.T) {
	circuits := []struct {
		name string
		m    int
	}{{"c880", 10000}, {"mul8", 1024}, {"synth3k", 1024}}
	if raceEnabled {
		circuits = circuits[:2]
	}
	var excs, dropped int
	for _, tc := range circuits {
		net := storeCircuit(t, tc.name)
		cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05}}
		vals, arrival, invDelay := gatherFixture(net, tc.m, cfg)
		store := gatherOn(t, newGatherEnv(net, vals, cfg, arrival, invDelay, newAdmission(tc.m, cfg.SimilarityCap)), 2)
		area := func(ids []circuit.NodeID) float64 {
			g := 0.0
			for _, id := range ids {
				g += cfg.Library.GateArea(net.Kind(id), len(net.Fanins(id)))
			}
			return g
		}
		base := map[circuit.NodeID]float64{}
		inMFFC := map[circuit.NodeID]map[circuit.NodeID]bool{}
		stored := map[[2]circuit.NodeID]bool{} // inverted pairs
		for _, c := range choices(store) {
			t0, s := c.target, c.sub()
			if inMFFC[t0] == nil {
				mffc := net.MFFC(t0)
				base[t0] = area(mffc)
				inMFFC[t0] = map[circuit.NodeID]bool{}
				for _, id := range mffc {
					inMFFC[t0][id] = true
				}
			}
			want := base[t0]
			if !c.isConst() {
				if in := inMFFC[t0][s]; in != (c.sk&excBit != 0) {
					t.Fatalf("%s: candidate %+v: exception bit %v, substitute in MFFC %v", tc.name, c, !in, in)
				} else if in {
					want = area(net.MFFCExcluding(t0, s))
					excs++
				}
			}
			if c.kind() == kindInverted {
				want -= store.invArea
				stored[[2]circuit.NodeID{t0, s}] = true
			}
			if c.gain != want || c.gain <= 0 {
				t.Fatalf("%s: candidate %+v: derived gain %v, oracle %v", tc.name, c, c.gain, want)
			}
		}
		// Inverted pairs the admission and delay screens pass, with no
		// positive gain after the inverter, are absent.
		for _, want := range bruteGatherUnfiltered(net, vals, cfg, arrival, invDelay) {
			if want.Inverted && want.AreaGain <= 0 {
				dropped++
				if stored[[2]circuit.NodeID{want.Target, want.Sub}] {
					t.Fatalf("%s: inverted pair %+v with gain %v is stored", tc.name, want, want.AreaGain)
				}
			}
		}
	}
	if excs == 0 || dropped == 0 {
		t.Fatalf("%d exception gains and %d non-positive inverted pairs checked; the test is vacuous", excs, dropped)
	}
	t.Logf("%d exception gains checked, %d non-positive inverted pairs absent", excs, dropped)
}

// bruteGatherUnfiltered lists the inverted pairs the brute-force
// reference admits by similarity, delay and cycle, with their gain after
// the inverter, positive or not.
func bruteGatherUnfiltered(net *circuit.Network, vals *sim.Values, cfg *Config, arrival []float64, invDelay float64) []Candidate {
	m := vals.M
	invArea := cfg.Library.GateArea(circuit.KindNot, 1)
	var out []Candidate
	for _, t0 := range net.LiveNodes() {
		if !net.Kind(t0).IsGate() {
			continue
		}
		mffc := net.MFFC(t0)
		tfo := net.TransitiveFanoutCone(t0)
		tv := vals.Node(t0)
		for _, s := range net.LiveNodes() {
			k := net.Kind(s)
			if s == t0 || tfo[s] || !(k.IsGate() || k == circuit.KindInput) || arrival[s]+invDelay > arrival[t0] {
				continue
			}
			if 1-float64(bitvec.XorCount(tv, vals.Node(s)))/float64(m) > cfg.SimilarityCap {
				continue
			}
			excl := mffc
			for _, id := range mffc {
				if id == s {
					excl = net.MFFCExcluding(t0, s)
				}
			}
			g := 0.0
			for _, id := range excl {
				g += cfg.Library.GateArea(net.Kind(id), len(net.Fanins(id)))
			}
			out = append(out, Candidate{Target: t0, Sub: s, Inverted: true, AreaGain: g - invArea})
		}
	}
	return out
}

// TestStoreFootprint measures what a full synth3k gather retains with its
// ER sums: at most 12 bytes per candidate, 8 of record and 4 of sum, plus
// what each segment costs: its 80-byte header, its target's exceptions
// and its share of the unfilled tails of the bins' last pages, bounded
// here by 160 bytes a segment (about 0.7 bytes per candidate on synth3k,
// whose targets average 230 candidates; on larger networks the share
// falls as the candidates per target grow).
func TestStoreFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap figures")
	}
	net := storeCircuit(t, "synth3k")
	cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05}}
	vals, arrival, invDelay := gatherFixture(net, 1024, cfg)
	env := newGatherEnv(net, vals, cfg, arrival, invDelay, newAdmission(1024, cfg.SimilarityCap))
	pool := par.NewPool(2)
	defer pool.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	store, _, err := gather(context.Background(), env, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.er.forStore(store)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(store)
	runtime.KeepAlive(env)
	n, segs := store.len(), len(store.segs)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("synth3k: %d candidates in %d segments on %d pages retain %d bytes, %.2f per candidate",
		n, segs, len(store.pages), retained, float64(retained)/float64(n))
	if n < 500000 {
		t.Fatalf("%d candidates; the measurement needs the full list", n)
	}
	if bound := int64(12*n + 160*segs); retained > bound {
		t.Fatalf("a full gather retains %d bytes with ER sums, want at most %d (12 per candidate, 160 per segment)",
			retained, bound)
	}
}

// TestStoreUpdateMatchesFullGather drives the gather cache through a
// random sequence of accepted substitutions (any stored candidate, not
// the flow's pick, so edits land all over the network) and holds the
// updated store to a fresh full gather after each: the same candidates,
// record for record, with the same derived gains. Before each update every
// candidate's carried ER sum is set to its list position, so afterwards
// each sum must be stale-marked or name the position its record held
// before the update, with the same target and record: the sums moved with
// their records. A candidate the old list did not hold must be stale,
// every segment with a stale sum must be marked stale, and the pages may
// hold no dead space beyond the unfilled tails of the bins' last pages.
//
// The flips row runs mul8, which has no inverters, under free inverters
// (zeroDelayNotLibrary): an inverted accept adds an inverter, which
// arrives with its fanin and so makes the arrival times non-strict, and
// edits that remove the inverters' readers sweep them, making the times
// strict again. Its edits seek both flips, and both must happen, so the
// update runs on either side of each.
func TestStoreUpdateMatchesFullGather(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     int
		steps int
		flips bool
	}{{"c880", 1000, 10, false}, {"mul8", 512, 10, false}, {"cmp8", 1024, 8, false}, {"mul8", 512, 16, true}} {
		for _, workers := range []int{1, 2} {
			label := tc.name
			if tc.flips {
				label += "-flips"
			}
			t.Run(fmt.Sprintf("%s/workers=%d", label, workers), func(t *testing.T) {
				net := storeCircuit(t, tc.name).Clone()
				cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 1}}
				if tc.flips {
					cfg.Library = zeroDelayNotLibrary()
				}
				cfg.fillDefaults()
				patterns := sim.RandomPatterns(net.NumInputs(), tc.m, 5)
				pool := par.NewPool(workers)
				defer pool.Close()
				eng := core.NewEngine(net, nil, patterns, core.MetricER, pool)
				adm := newAdmission(tc.m, cfg.SimilarityCap)
				invDelay := cfg.Library.GateDelay(circuit.KindNot)
				envOf := func() *gatherEnv {
					return newGatherEnv(net, eng.Vals, cfg, cfg.Library.NodeArrival(net), invDelay, adm)
				}
				var gc gatherCache
				env := envOf()
				store, _, err := gc.full(context.Background(), env, pool)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(int64(len(tc.name) + workers)))
				kept, stale, toLoose, toStrict := 0, 0, 0, 0
				for step := 0; step < tc.steps && store.len() > 0; step++ {
					before := choices(store)
					store.er.forStore(store)
					for k := range store.segs {
						sg := &store.segs[k]
						for j := range store.er.of(sg) {
							store.er.of(sg)[j] = sg.pos + int32(j)
						}
					}
					store.er.valid = true
					c := store.at(r.Intn(store.len()))
					if tc.flips {
						c = flipPick(net, before, env.strict, r, c)
					}
					ed := applyCandidate(net, &c)
					_, changed := eng.Apply(ed)
					wasStrict := env.strict
					env = envOf()
					switch {
					case wasStrict && !env.strict:
						toLoose++
					case !wasStrict && env.strict:
						toStrict++
					}
					if store, _, err = gc.update(context.Background(), env, &ed, changed, pool); err != nil {
						t.Fatal(err)
					}
					if err := crossCheckIncremental(env, pool, store, nil); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					// No dead page piles up: beyond the records, the pages
					// hold at most the unfilled tails of the full gather's
					// bins (at most 4 per worker) and of the last page.
					slack := -store.len()
					for p, recs := range store.pages {
						slack += cap(recs)
						if len(store.er.pages[p]) != len(recs) {
							t.Fatalf("step %d: page %d holds %d records and %d sums", step, p, len(recs), len(store.er.pages[p]))
						}
					}
					if bins := par.PlanBins(net.NumNodes(), workers); slack > (bins+1)*pageRecs {
						t.Fatalf("step %d: the pages hold %d records' worth of dead space", step, slack)
					}
					held := map[choice]bool{}
					for _, b := range before {
						held[b] = true
					}
					for k := range store.segs {
						sg := &store.segs[k]
						for j, s := range store.er.of(sg) {
							now := sg.choice(j, store.invArea)
							switch {
							case s == staleSum:
								stale++
								if !sg.stale {
									t.Fatalf("step %d: candidate %+v is stale in a segment not marked stale", step, now)
								}
							case int(s) >= len(before) || before[s] != now:
								t.Fatalf("step %d: candidate %+v carries the sum of position %d", step, now, s)
							default:
								kept++
							}
							if !held[now] && s != staleSum {
								t.Fatalf("step %d: new candidate %+v carries a sum", step, now)
							}
						}
					}
				}
				if kept == 0 || stale == 0 {
					t.Fatalf("%d carried and %d stale sums checked; the edits exercised no update", kept, stale)
				}
				if tc.flips && (toLoose == 0 || toStrict == 0) {
					t.Fatalf("arrival times turned non-strict %d times and strict %d times; want both", toLoose, toStrict)
				}
			})
		}
	}
}

// flipPick picks the next edit of the flips row among the candidates
// cands: while the arrival times are strict, an inverted one, whose
// inverter makes them non-strict; otherwise one that adds no inverter and
// whose target is an inverter or reads one, so the edit removes an
// inverter's fanout edge and, with its last one, the inverter. It keeps
// the random pick c when no candidate qualifies.
func flipPick(net *circuit.Network, cands []choice, strict bool, r *rand.Rand, c choice) choice {
	readsNot := func(t circuit.NodeID) bool {
		if net.Kind(t) == circuit.KindNot {
			return true
		}
		for _, f := range net.Fanins(t) {
			if net.Kind(f) == circuit.KindNot {
				return true
			}
		}
		return false
	}
	var pick []choice
	for _, x := range cands {
		switch {
		case strict:
			if x.kind() == kindInverted {
				pick = append(pick, x)
			}
		case x.kind() != kindInverted && (x.isConst() || net.Kind(x.sub()) != circuit.KindNot) && readsNot(x.target):
			pick = append(pick, x)
		}
	}
	if len(pick) == 0 {
		return c
	}
	return pick[r.Intn(len(pick))]
}

// TestStoreUpdateAfterNonStrictGather pins the rule that the strict
// substitute rule needs strict arrival times at the previous gather too.
// A buffer with a negative delay arrives before its fanin, so a pair whose
// substitute reads it can pass the arrival guard while the cycle screen
// rejects it. Here t = AND(AND(a, b), AND(a, c)) drives g = BUF(t), and
// s = AND(g, OR(a, b)) equals t on every pattern and arrives with it. The
// edit replaces g by y = AND(a, b, c), which equals it, so s keeps its
// value and its arrival, g is swept, and the arrival times turn strict:
// the pair (t, s), which the previous gather's cycle screen rejected, is
// now a candidate, and only the structural cone of the rewired s puts it
// back into the store.
func TestStoreUpdateAfterNonStrictGather(t *testing.T) {
	net := circuit.New("unstrict")
	a, b, c := net.AddInput("a"), net.AddInput("b"), net.AddInput("c")
	tg := net.AddGate(circuit.KindAnd, net.AddGate(circuit.KindAnd, a, b), net.AddGate(circuit.KindAnd, a, c))
	g := net.AddGate(circuit.KindBuf, tg)
	s := net.AddGate(circuit.KindAnd, g, net.AddGate(circuit.KindOr, a, b))
	y := net.AddGate(circuit.KindAnd, a, b, c)
	net.AddOutput("t", tg)
	net.AddOutput("s", s)
	net.AddOutput("y", y)

	lib := cell.Default()
	lib.Delay[circuit.KindBuf] = -5
	cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 1, Library: lib}}
	cfg.fillDefaults()
	const m = 256
	pool := par.NewPool(1)
	defer pool.Close()
	eng := core.NewEngine(net, nil, sim.RandomPatterns(net.NumInputs(), m, 1), core.MetricER, pool)
	adm := newAdmission(m, cfg.SimilarityCap)
	envOf := func() *gatherEnv {
		return newGatherEnv(net, eng.Vals, cfg, cfg.Library.NodeArrival(net), cfg.Library.GateDelay(circuit.KindNot), adm)
	}
	env := envOf()
	if env.strict {
		t.Fatal("the negative-delay buffer must make the arrival times non-strict")
	}
	var gc gatherCache
	if _, _, err := gc.full(context.Background(), env, pool); err != nil {
		t.Fatal(err)
	}
	edit := choice{target: g, rec: mkRec(y, kindPlain, false, 0)}
	ed := applyCandidate(net, &edit)
	_, changed := eng.Apply(ed)
	for _, id := range changed {
		if id == s {
			t.Fatal("s changed value; the pair would be re-enumerated anyway")
		}
	}
	env = envOf()
	if !env.strict {
		t.Fatal("with the buffer swept the arrival times must be strict")
	}
	store, _, err := gc.update(context.Background(), env, &ed, changed, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheckIncremental(env, pool, store, nil); err != nil {
		t.Fatal(err)
	}
	for _, x := range choices(store) {
		if x.target == tg && !x.isConst() && x.sub() == s {
			return
		}
	}
	t.Fatal("the pair (t, s) is no candidate after the edit; the test is vacuous")
}

// TestGuardBandEdges holds guardBand.flips to the arrival guard itself at
// the band's edges: a substitute arriving exactly at the target's old or
// new arrival, plain (a) and inverted (a + invDelay), with the target's
// arrival rising and falling. A plain guard at the band's low end passes
// at both arrivals, one at its high end passes only at the later one.
func TestGuardBandEdges(t *testing.T) {
	const d = 0.25
	x, y := 0.1, 0.2 // x + y rounds to just above 0.3
	for _, arr := range [][2]float64{{3, 5}, {5, 3}, {x + y, 0.3}, {0.3, x + y}} {
		a0, a1 := arr[0], arr[1]
		bd := guardBand{min(a0, a1), max(a0, a1)}
		for _, a := range []float64{a0, a1, a0 - d, a1 - d, a0 + d, a1 + d, (a0 + a1) / 2, (a0+a1)/2 - d, -1, 9} {
			p0, i0 := arrivalGuard(a, d, a0)
			p1, i1 := arrivalGuard(a, d, a1)
			if want := p0 != p1 || i0 != i1; bd.flips(a, d) != want {
				t.Fatalf("target arrival %v -> %v, substitute at %v: flips %v, guard flips %v", a0, a1, a, !want, want)
			}
		}
		if bd.flips(bd.lo, 0) || !bd.flips(bd.hi, 0) {
			t.Fatalf("band (%v, %v]: plain edges flip %v at lo, %v at hi", bd.lo, bd.hi, bd.flips(bd.lo, 0), bd.flips(bd.hi, 0))
		}
	}
	// Each form alone at each edge: an inverter delay wider than the band
	// (3, 5] keeps a substitute's other form outside it, and every sum is
	// exact.
	bd := guardBand{3, 5}
	const inv = 4
	for _, c := range []struct {
		a    float64
		want bool
	}{{3, false}, {5, true}, {3 - inv, false}, {5 - inv, true}} {
		if bd.flips(c.a, inv) != c.want {
			t.Fatalf("band (3, 5], substitute at %v, inverter delay %v: flips %v, want %v", c.a, inv, !c.want, c.want)
		}
	}
}

// TestSameGainRewalksExceptions pins that a target whose MFFC and base
// gain are unchanged still re-enumerates when an exception gain moved.
// t = OR(w, x) with w = AND(a, b) and x = AND(a, c) has the MFFC
// {t, w, x}. Rewiring w's fanin b to x keeps the MFFC, in the same walk
// order, and its area, but replacing t by w now keeps x alive too.
func TestSameGainRewalksExceptions(t *testing.T) {
	net := circuit.New("exc")
	a, b, c := net.AddInput("a"), net.AddInput("b"), net.AddInput("c")
	w := net.AddGate(circuit.KindAnd, a, b)
	x := net.AddGate(circuit.KindAnd, a, c)
	tg := net.AddGate(circuit.KindOr, w, x)
	net.AddOutput("t", tg)
	cfg := &Config{}
	cfg.fillDefaults()
	env := &gatherEnv{net: net, cfg: cfg}
	var buf binBuf
	td := env.target(&buf, tg, true)
	td.exc = []excGain{{sub: w, gain: env.excGain(&buf, tg, w)}}
	if !env.sameGain(&buf, &td, tg) {
		t.Fatal("nothing changed, yet sameGain reports moved gain figures")
	}
	net.ReplaceFanin(w, b, x)
	if nd := env.target(&buf, tg, true); nd.baseGain != td.baseGain || !slices.Equal(nd.mffc, td.mffc) {
		t.Fatalf("the rewire moved the MFFC %v -> %v or the base gain; the test is vacuous", td.mffc, nd.mffc)
	}
	if env.sameGain(&buf, &td, tg) {
		t.Fatal("w's exception gain moved, yet sameGain reports the gain figures unchanged")
	}
}

package sasimi

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
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
	store, err := gather(context.Background(), env, pool, nil)
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
func TestStoreUpdateMatchesFullGather(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     int
		steps int
	}{{"c880", 1000, 10}, {"mul8", 512, 10}, {"cmp8", 1024, 8}} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				net := storeCircuit(t, tc.name).Clone()
				cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 1}}
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
				store, err := gc.full(context.Background(), envOf(), pool)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(int64(len(tc.name) + workers)))
				kept, stale := 0, 0
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
					ed := applyCandidate(net, &c)
					_, changed := eng.Apply(ed)
					env := envOf()
					if store, err = gc.update(context.Background(), env, &ed, changed, pool); err != nil {
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
			})
		}
	}
}

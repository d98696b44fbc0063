package sim

import (
	"math/rand"
	"testing"

	"batchals/internal/circuit"
	"batchals/internal/par"
)

// vecsEqual compares two value tables bit for bit over every live node.
func vecsEqual(t *testing.T, n *circuit.Network, a, b *Values) {
	t.Helper()
	if a.M != b.M {
		t.Fatalf("pattern counts differ: %d vs %d", a.M, b.M)
	}
	for _, id := range n.TopoOrder() {
		if !a.Node(id).Equal(b.Node(id)) {
			t.Fatalf("node %d differs:\n seq %s\n par %s", id, a.Node(id), b.Node(id))
		}
	}
}

// TestSimulateParallelBitIdentical holds the sharded evaluator to the
// sequential Simulate at every worker count, one included.
func TestSimulateParallelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	// Pattern counts straddle word boundaries to exercise tail masking and
	// the shard planner's clamping.
	for _, m := range []int{1, 63, 64, 65, 200, 1000} {
		for trial := 0; trial < 4; trial++ {
			n := randomNetwork(t, r, 8, 60)
			p := RandomPatterns(8, m, int64(m)*10+int64(trial))
			want := Simulate(n, p)
			for _, workers := range []int{1, 2, 4, 7} {
				pool := par.NewPool(workers)
				got := SimulateParallel(n, p, pool)
				pool.Close()
				vecsEqual(t, n, want, got)
			}
		}
	}
}

// TestSimulateParallelNilPoolMatchesSimulate holds the sharded evaluator
// on a nil pool, which runs it as one shard inline, to the sequential
// Simulate.
func TestSimulateParallelNilPoolMatchesSimulate(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := randomNetwork(t, r, 6, 30)
	p := RandomPatterns(6, 300, 3)
	vecsEqual(t, n, Simulate(n, p), SimulateParallel(n, p, nil))
}

// TestRaceSimulateParallel drives the sharded simulator with several
// workers under the race detector: any write outside a shard's word range
// trips -race. CI runs this at GOMAXPROCS=2 as well.
func TestRaceSimulateParallel(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	n := randomNetwork(t, r, 8, 120)
	p := RandomPatterns(8, 4096, 7)
	pool := par.NewPool(8)
	defer pool.Close()
	want := Simulate(n, p)
	for round := 0; round < 3; round++ {
		vecsEqual(t, n, want, SimulateParallel(n, p, pool))
	}
}

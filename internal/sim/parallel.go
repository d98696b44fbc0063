package sim

import (
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// SimulateParallel evaluates the whole network on the pattern set with the
// pattern axis sharded across the pool's workers, and returns per-node
// value vectors bit-identical to Simulate's.
//
// Patterns are independent, so each worker walks the full topological
// order restricted to its word-aligned shard of every value vector: writes
// of different workers land in disjoint uint64 words of shared vectors,
// and each gate word is computed by exactly the same EvalWord call as in
// Simulate — the result does not depend on the worker count or the
// schedule. A nil or single-worker pool runs the same kernel as one
// shard.
func SimulateParallel(n *circuit.Network, p *Patterns, pool *par.Pool) *Values {
	if p.NumInputs() != n.NumInputs() {
		panic("sim: pattern set input count mismatch")
	}
	start := time.Now()
	m := p.NumPatterns()
	v := &Values{M: m, vecs: make([]*bitvec.Vec, n.NumSlots())}
	for k, in := range n.Inputs() {
		v.vecs[in] = p.InputRow(k).Clone()
	}
	// Allocate every gate vector before the fan-out: workers share the
	// order and the vector table read-only, and write only their own word
	// ranges.
	order := n.TopoOrder()
	gates := 0
	for _, id := range order {
		if n.Kind(id) != circuit.KindInput {
			gates++
			v.vecs[id] = bitvec.New(m)
		}
	}
	pool.Label("sim.simulate", obs.PhaseSimulate)
	evalSharded(n, v, order, pool, nil)
	statSimulations.Inc()
	statGateEvals.Add(int64(gates))
	statSimNS.Add(int64(time.Since(start)))
	return v
}

// evalSharded re-evaluates the gates of list, which is in topological
// order and whose gate vectors exist, in place, pattern-sharded over the
// pool; primary inputs in list are skipped. Word w of a gate is EvalWord
// over word w of its fanins, with the bits past M cleared in the last
// word, so every word gets Simulate's value at any worker count. With diff
// non-nil (len(list)), diff[i] is set iff list[i]'s vector changed in some
// word. Every worker writes only its shard's words and its shard's
// difference flags, which are OR-combined after the join.
func evalSharded(n *circuit.Network, v *Values, list []circuit.NodeID, pool *par.Pool, diff []bool) {
	last := bitvec.Words(v.M) - 1
	tail := bitvec.TailMask(v.M)
	shards := par.Shards(v.M, pool.Workers())
	var shardDiff [][]bool
	if diff != nil {
		shardDiff = make([][]bool, len(shards))
		for i := range shardDiff {
			shardDiff[i] = make([]bool, len(list))
		}
	}
	pool.Do(len(shards), func(_, si int) {
		sh := shards[si]
		buf := make([]uint64, 8)
		for li, id := range list {
			kind := n.Kind(id)
			if kind == circuit.KindInput {
				continue
			}
			fanins := n.Fanins(id)
			if cap(buf) < len(fanins) {
				buf = make([]uint64, len(fanins))
			}
			b := buf[:len(fanins)]
			out := v.vecs[id].WordsSlice()
			changed := false
			for w := sh.W0; w < sh.W1; w++ {
				for j, f := range fanins {
					b[j] = v.vecs[f].WordsSlice()[w]
				}
				nw := kind.EvalWord(b)
				if w == last {
					nw &= tail
				}
				if out[w] != nw {
					changed = true
					out[w] = nw
				}
			}
			if changed && shardDiff != nil {
				shardDiff[si][li] = true
			}
		}
	})
	for si := range shardDiff {
		for li, d := range shardDiff[si] {
			if d {
				diff[li] = true
			}
		}
	}
}

package sim

import (
	"fmt"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/obs"
)

// Always-on substrate counters on the default metrics registry. Each is
// resolved once here, so the per-call cost is a handful of atomic adds —
// nothing allocates and nothing branches on configuration.
var (
	statSimulations = obs.Default().Counter("sim_simulations_total")
	statSimNS       = obs.Default().Counter("sim_wall_ns_total")
	statGateEvals   = obs.Default().Counter("sim_gate_evals_total")
	statConeResims  = obs.Default().Counter("sim_cone_resims_total")
)

// Values holds the simulated M-bit value vector of every node of a network
// for one pattern set, indexed by NodeID.
type Values struct {
	M    int
	vecs []*bitvec.Vec // indexed by NodeID; nil for dead slots
}

// Node returns the value vector of node id. Shared, not copied.
func (v *Values) Node(id circuit.NodeID) *bitvec.Vec { return v.vecs[id] }

// Bit reports the simulated value of node id under pattern i.
func (v *Values) Bit(id circuit.NodeID, i int) bool { return v.vecs[id].Get(i) }

// Clone returns a deep copy of the value table.
func (v *Values) Clone() *Values {
	c := &Values{M: v.M, vecs: make([]*bitvec.Vec, len(v.vecs))}
	for i, x := range v.vecs {
		if x != nil {
			c.vecs[i] = x.Clone()
		}
	}
	return c
}

// Compact returns the value table restricted to the patterns set in sel,
// an M-bit mask, in pattern order: pattern k of the result is the k-th
// pattern sel sets. It holds a vector for every node v holds one for.
func (v *Values) Compact(sel *bitvec.Vec) *Values {
	return v.CompactInto(nil, sel, bitvec.NewArena(sel.Count(), len(v.vecs)))
}

// CompactInto is Compact into dst, a table Compact or CompactInto made
// that nothing reads any more (nil for a new one), with the vectors
// handed out by arena after a Reset: an owner that compacts again and
// again refills one table's storage. It returns dst.
func (v *Values) CompactInto(dst *Values, sel *bitvec.Vec, arena *bitvec.Arena) *Values {
	if dst == nil {
		dst = &Values{}
	}
	dst.M = sel.Count()
	arena.Reset(dst.M)
	if cap(dst.vecs) < len(v.vecs) {
		dst.vecs = make([]*bitvec.Vec, len(v.vecs))
	}
	dst.vecs = dst.vecs[:len(v.vecs)]
	for id, x := range v.vecs {
		dst.vecs[id] = nil
		if x != nil {
			dst.vecs[id] = arena.New()
			bitvec.Compact(dst.vecs[id].WordsSlice(), x.WordsSlice(), sel.WordsSlice())
		}
	}
	return dst
}

// Recompact brings a table that Compact made from src under sel up to
// date after the vectors of ids changed in src: each is compacted again,
// or dropped where src no longer holds one. The table grows to src's node
// slots.
func (v *Values) Recompact(src *Values, sel *bitvec.Vec, ids []circuit.NodeID) {
	v.Grow(len(src.vecs))
	for _, id := range ids {
		x := src.vecs[id]
		if x == nil {
			v.vecs[id] = nil
			continue
		}
		if v.vecs[id] == nil {
			v.vecs[id] = bitvec.New(v.M)
		}
		bitvec.Compact(v.vecs[id].WordsSlice(), x.WordsSlice(), sel.WordsSlice())
	}
}

// Simulate evaluates the whole network on the pattern set and returns the
// per-node value vectors. The pattern set must match the network's input
// count.
func Simulate(n *circuit.Network, p *Patterns) *Values {
	if p.NumInputs() != n.NumInputs() {
		panic(fmt.Sprintf("sim: pattern set has %d inputs, network has %d",
			p.NumInputs(), n.NumInputs()))
	}
	start := time.Now()
	v := &Values{M: p.NumPatterns(), vecs: make([]*bitvec.Vec, n.NumSlots())}
	for k, in := range n.Inputs() {
		v.vecs[in] = p.InputRow(k).Clone()
	}
	words := bitvec.Words(p.NumPatterns())
	gates := 0
	var operands [][]uint64
	for _, id := range n.TopoOrder() {
		kind := n.Kind(id)
		if kind == circuit.KindInput {
			continue
		}
		gates++
		out := bitvec.New(p.NumPatterns())
		fanins := n.Fanins(id)
		operands = operands[:0]
		for _, f := range fanins {
			operands = append(operands, v.vecs[f].WordsSlice())
		}
		ow := out.WordsSlice()
		buf := make([]uint64, len(fanins))
		for w := 0; w < words; w++ {
			for j := range operands {
				buf[j] = operands[j][w]
			}
			ow[w] = kind.EvalWord(buf)
		}
		out.MaskTail()
		v.vecs[id] = out
	}
	statSimulations.Inc()
	statGateEvals.Add(int64(gates))
	statSimNS.Add(int64(time.Since(start)))
	return v
}

// OutputMatrix extracts the primary output values from a value table as an
// O x M bit matrix (one row per output, in output order).
func OutputMatrix(n *circuit.Network, v *Values) *bitvec.Matrix {
	m := bitvec.NewMatrix(n.NumOutputs(), v.M)
	for o, out := range n.Outputs() {
		m.Row(o).CopyFrom(v.Node(out.Node))
	}
	return m
}

// EvalOne evaluates the network on a single input assignment using the
// scalar reference semantics, returning the output values in output order.
// It is the slow path the word simulator is validated against.
func EvalOne(n *circuit.Network, inputs []bool) []bool {
	if len(inputs) != n.NumInputs() {
		panic("sim: EvalOne input width mismatch")
	}
	val := make([]bool, n.NumSlots())
	for k, in := range n.Inputs() {
		val[in] = inputs[k]
	}
	var buf []bool
	for _, id := range n.TopoOrder() {
		kind := n.Kind(id)
		if kind == circuit.KindInput {
			continue
		}
		buf = buf[:0]
		for _, f := range n.Fanins(id) {
			buf = append(buf, val[f])
		}
		val[id] = kind.Eval(buf)
	}
	outs := make([]bool, n.NumOutputs())
	for o, out := range n.Outputs() {
		outs[o] = val[out.Node]
	}
	return outs
}

// ResimulateCone recomputes values for the transitive fanout cone of root,
// assuming root's value vector in v has been overwritten with a new vector,
// and writes the updated vectors into v. It returns the list of node ids
// whose vectors were recomputed (excluding root). This is the workhorse of
// the full-simulation baseline estimator: its cost is proportional to the
// cone, not the whole network.
func ResimulateCone(n *circuit.Network, v *Values, root circuit.NodeID) []circuit.NodeID {
	inCone := n.TransitiveFanoutCone(root)
	var updated []circuit.NodeID
	words := bitvec.Words(v.M)
	buf := make([]uint64, 8)
	for _, id := range n.TopoOrder() {
		if !inCone[id] || id == root {
			continue
		}
		kind := n.Kind(id)
		fanins := n.Fanins(id)
		if cap(buf) < len(fanins) {
			buf = make([]uint64, len(fanins))
		}
		b := buf[:len(fanins)]
		out := v.vecs[id].WordsSlice()
		for w := 0; w < words; w++ {
			for j, f := range fanins {
				b[j] = v.vecs[f].WordsSlice()[w]
			}
			out[w] = kind.EvalWord(b)
		}
		v.vecs[id].MaskTail()
		updated = append(updated, id)
	}
	statConeResims.Inc()
	statGateEvals.Add(int64(len(updated)))
	return updated
}

// ConeSnapshot saves the value vectors of root and its transitive fanout
// cone so a speculative resimulation can be rolled back cheaply.
type ConeSnapshot struct {
	ids  []circuit.NodeID
	vals []*bitvec.Vec
}

// SnapshotCone copies the current value vectors of root's fanout cone
// (including root).
func SnapshotCone(n *circuit.Network, v *Values, root circuit.NodeID) *ConeSnapshot {
	inCone := n.TransitiveFanoutCone(root)
	s := &ConeSnapshot{}
	for _, id := range n.TopoOrder() {
		if inCone[id] {
			s.ids = append(s.ids, id)
			s.vals = append(s.vals, v.vecs[id].Clone())
		}
	}
	return s
}

// Restore writes the snapshot back into v.
func (s *ConeSnapshot) Restore(v *Values) {
	for i, id := range s.ids {
		v.vecs[id].CopyFrom(s.vals[i])
	}
}

package analyze

import "batchals/internal/circuit"

// Stem describes one multi-fanout signal (a "stem" in testability
// terminology) and whether its branches reconverge.
type Stem struct {
	Node        circuit.NodeID
	NumBranches int // distinct fanout nodes
	// Reconvergent is set when at least two distinct propagation paths
	// from Node meet again at some node; the batch estimator's Boolean
	// differences are heuristic beyond that point.
	Reconvergent bool
	// MergePoint is the topologically first node where paths meet
	// (InvalidNode when not reconvergent).
	MergePoint circuit.NodeID
	// PostDom is the immediate post-dominator of Node toward the primary
	// outputs: every propagation path from Node passes through it (or the
	// virtual sink, reported as InvalidNode). For a reconvergent stem the
	// reconvergence region is bounded by [Node, PostDom].
	PostDom circuit.NodeID
}

// ReconvergentStems finds every multi-fanout stem of the network and
// classifies it, combining post-dominator analysis (for the region bound)
// with in-cone path merging (for the exact verdict). The network must be
// acyclic. Results are in ascending node-id order.
func ReconvergentStems(n *circuit.Network) []Stem {
	ipdom := PostDominators(n)
	w := newConeWalker(n)
	var stems []Stem
	for _, id := range n.LiveNodes() {
		branches := distinctFanouts(n, id)
		if len(branches) < 2 {
			continue
		}
		merge := w.firstMerge(id)
		stems = append(stems, Stem{
			Node:         id,
			NumBranches:  len(branches),
			Reconvergent: merge != circuit.InvalidNode,
			MergePoint:   merge,
			PostDom:      ipdom[id],
		})
	}
	return stems
}

// Certificate is the per-node CPM-exactness certificate: Exact(id) reports
// that the transitive fanout cone of id is reconvergence-free, i.e. every
// node in the cone is reached from id along exactly one path. For such a
// node the batch estimator's change propagation entries P[i,id,o] — and
// therefore DeltaER/DeltaAEM for a transformation injected at id — are
// provably exact on the given pattern set: every gate on the propagation
// path has at most one perturbed fanin signal, so evaluating its Boolean
// difference at the unperturbed side-input values (the paper's admitted
// approximation in Eq. 1–2) introduces no error.
//
// The certificate is sufficient, not necessary: a reconvergent node's
// estimate may still happen to be numerically correct, but only certified
// nodes carry a structural guarantee.
type Certificate struct {
	exact    []bool // indexed by NodeID slot; false for dead slots
	assessed int
	numExact int
}

// ExactnessCertificate computes the certificate for every live node of an
// acyclic network in one reverse-topological pass, so every fanout's
// verdict is known before its fanins'. Two rules settle most nodes
// without a cone walk:
//
//   - a node with a non-exact fanout is non-exact: the fanout's cone lies
//     inside the node's, so its merge point is a merge point of the
//     node's cone too;
//   - a node with one distinct fanout takes that fanout's verdict: its
//     cone is itself plus the fanout's cone, the fanout has exactly one
//     distinct fanin inside it (the node; any other would close a cycle),
//     and no other cone node is fed by the node, so every in-cone fanin
//     count equals the one in the fanout's cone.
//
// Only nodes with two or more distinct fanouts, all exact, walk their
// cone (firstMerge); a node without fanouts is trivially exact.
func ExactnessCertificate(n *circuit.Network) *Certificate {
	c := &Certificate{exact: make([]bool, n.NumSlots())}
	order := n.TopoOrder()
	var w *coneWalker
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		c.assessed++
		fos := n.Fanouts(id)
		exact, branches := true, false
		for _, fo := range fos {
			if !c.exact[fo] {
				exact = false
				break
			}
			if fo != fos[0] {
				branches = true
			}
		}
		if exact && branches {
			if w == nil {
				w = newConeWalker(n)
			}
			exact = w.firstMerge(id) == circuit.InvalidNode
		}
		if exact {
			c.exact[id] = true
			c.numExact++
		}
	}
	return c
}

// Exact reports whether node id carries the exactness certificate.
func (c *Certificate) Exact(id circuit.NodeID) bool {
	return int(id) >= 0 && int(id) < len(c.exact) && c.exact[id]
}

// NumExact returns how many live nodes are certified exact.
func (c *Certificate) NumExact() int { return c.numExact }

// NumNodes returns how many live nodes were assessed.
func (c *Certificate) NumNodes() int { return c.assessed }

// Fraction returns NumExact/NumNodes (1 for an empty network).
func (c *Certificate) Fraction() float64 {
	if c.assessed == 0 {
		return 1
	}
	return float64(c.numExact) / float64(c.assessed)
}

// coneWalker amortises the scratch state of repeated transitive-fanout
// walks: epoch-stamped marks instead of a fresh visited set per query.
type coneWalker struct {
	net   *circuit.Network
	pos   []int32 // topological position per node
	mark  []int32 // mark[id] == epoch iff id is in the current cone
	epoch int32
	cone  []circuit.NodeID // scratch: nodes of the current cone
	stack []circuit.NodeID
}

func newConeWalker(n *circuit.Network) *coneWalker {
	order := n.TopoOrder()
	pos := make([]int32, n.NumSlots())
	for i, id := range order {
		pos[id] = int32(i)
	}
	return &coneWalker{
		net:  n,
		pos:  pos,
		mark: make([]int32, n.NumSlots()),
	}
}

// firstMerge returns the topologically first node in the transitive fanout
// cone of root that is reached along two or more distinct paths from root
// — equivalently, that has two or more distinct fanins inside the cone —
// or InvalidNode when propagation from root is tree-shaped. A node feeding
// several pins of one gate counts as a single path: the estimator's
// generic-cofactor Boolean difference flips all those pins together, which
// is exact.
func (w *coneWalker) firstMerge(root circuit.NodeID) circuit.NodeID {
	w.epoch++
	n := w.net
	w.mark[root] = w.epoch
	w.cone = append(w.cone[:0], root)
	w.stack = append(w.stack[:0], root)
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, fo := range n.Fanouts(id) {
			if w.mark[fo] != w.epoch {
				w.mark[fo] = w.epoch
				w.cone = append(w.cone, fo)
				w.stack = append(w.stack, fo)
			}
		}
	}

	merge := circuit.InvalidNode
	for _, v := range w.cone {
		if v == root {
			continue
		}
		inCone := 0
		fanins := n.Fanins(v)
		for i, f := range fanins {
			if w.mark[f] != w.epoch {
				continue
			}
			dup := false
			for _, g := range fanins[:i] {
				if g == f {
					dup = true
					break
				}
			}
			if !dup {
				inCone++
			}
		}
		if inCone >= 2 && (merge == circuit.InvalidNode || w.pos[v] < w.pos[merge]) {
			merge = v
		}
	}
	return merge
}

// PostDominators computes the immediate post-dominator of every live node
// with respect to a virtual sink fed by all primary outputs, using the
// Cooper–Harvey–Kennedy iterative scheme specialised to a DAG (one reverse
// topological sweep suffices: every fanout is finalised before its
// fanins). ipdom[id] is InvalidNode when the virtual sink itself is the
// immediate post-dominator (the node's branches only meet "after" the
// outputs) or when id is dead.
func PostDominators(n *circuit.Network) []circuit.NodeID {
	order := n.TopoOrder()
	slots := n.NumSlots()
	pos := make([]int32, slots)
	for i, id := range order {
		pos[id] = int32(i)
	}
	sinkPos := int32(len(order)) // the virtual sink is after everything

	isOut := make([]bool, slots)
	for _, o := range n.Outputs() {
		isOut[o.Node] = true
	}

	const sink = circuit.NodeID(-2) // distinct from InvalidNode (-1)
	ipdom := make([]circuit.NodeID, slots)
	for i := range ipdom {
		ipdom[i] = circuit.InvalidNode
	}
	position := func(id circuit.NodeID) int32 {
		if id == sink {
			return sinkPos
		}
		return pos[id]
	}
	// intersect walks the two candidates up the post-dominator tree (which
	// only points toward larger topological positions) until they meet.
	intersect := func(a, b circuit.NodeID) circuit.NodeID {
		for a != b {
			for position(a) < position(b) {
				a = ipdom[a]
			}
			for position(b) < position(a) {
				b = ipdom[b]
			}
		}
		return a
	}

	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var dom circuit.NodeID = circuit.InvalidNode
		first := true
		consider := func(s circuit.NodeID) {
			if first {
				dom = s
				first = false
			} else {
				dom = intersect(dom, s)
			}
		}
		for _, fo := range distinctFanouts(n, id) {
			consider(fo)
		}
		if isOut[id] || first {
			// Drives an output directly, or has no successors at all:
			// only the virtual sink post-dominates.
			consider(sink)
		}
		ipdom[id] = dom
	}

	// Map the sentinel back to InvalidNode for callers.
	for i := range ipdom {
		if ipdom[i] == sink {
			ipdom[i] = circuit.InvalidNode
		}
	}
	return ipdom
}

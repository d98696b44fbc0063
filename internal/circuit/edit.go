package circuit

import (
	"fmt"
	"sync"
)

// removeFanoutEdge deletes one occurrence of fo from the fanout list of id.
func (n *Network) removeFanoutEdge(id, fo NodeID) {
	s := n.nodes[id].fanouts
	for i, x := range s {
		if x == fo {
			s[i] = s[len(s)-1]
			n.nodes[id].fanouts = s[:len(s)-1]
			return
		}
	}
	panic(fmt.Sprintf("circuit: fanout edge %d->%d not found", id, fo))
}

// ReplaceFanin rewires every occurrence of old in the fanin list of node id
// to new, maintaining fanout lists. It panics if old does not appear.
// Unlike ReplaceNode it performs no cycle check: rewiring to a node in the
// transitive fanout cone of id silently creates a combinational cycle,
// which TopoOrder then panics on. Callers that cannot rule this out
// structurally should check analyze.FindCycle afterwards.
func (n *Network) ReplaceFanin(id, old, new NodeID) {
	if !n.IsLive(new) {
		panic(fmt.Sprintf("circuit: ReplaceFanin target %d not live", new))
	}
	found := false
	for i, f := range n.nodes[id].Fanins {
		if f == old {
			n.nodes[id].Fanins[i] = new
			n.removeFanoutEdge(old, id)
			n.nodes[new].fanouts = append(n.nodes[new].fanouts, id)
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("circuit: node %d has no fanin %d", id, old))
	}
	n.markDirty()
}

// ReplaceNode redirects every fanout of old (including primary output
// bindings) to new. old keeps its fanins but becomes fanout-free; callers
// typically follow with SweepFrom(old). It panics if new lies in the
// transitive fanout cone of old, which would create a cycle.
func (n *Network) ReplaceNode(old, new NodeID) {
	if old == new {
		return
	}
	if !n.IsLive(old) || !n.IsLive(new) {
		panic("circuit: ReplaceNode on dead node")
	}
	if n.TransitiveFanoutCone(old)[new] {
		panic(fmt.Sprintf("circuit: ReplaceNode(%d,%d) would create a cycle", old, new))
	}
	// Copy: the fanout list of old is mutated as we rewire.
	fos := append([]NodeID(nil), n.nodes[old].fanouts...)
	for _, fo := range fos {
		for i, f := range n.nodes[fo].Fanins {
			if f == old {
				n.nodes[fo].Fanins[i] = new
				n.removeFanoutEdge(old, fo)
				n.nodes[new].fanouts = append(n.nodes[new].fanouts, fo)
			}
		}
	}
	for i := range n.outputs {
		if n.outputs[i].Node == old {
			n.outputs[i].Node = new
		}
	}
	n.markDirty()
}

// deleteNode frees node id, detaching it from its fanins. The node must
// have no fanouts and not drive an output.
func (n *Network) deleteNode(id NodeID) {
	nd := &n.nodes[id]
	if len(nd.fanouts) != 0 {
		panic(fmt.Sprintf("circuit: deleteNode(%d) still has fanouts", id))
	}
	if n.isOutputDriver(id) {
		panic(fmt.Sprintf("circuit: deleteNode(%d) drives an output", id))
	}
	for _, f := range nd.Fanins {
		n.removeFanoutEdge(f, id)
	}
	if nd.Kind == KindInput {
		for i, in := range n.inputs {
			if in == id {
				n.inputs = append(n.inputs[:i], n.inputs[i+1:]...)
				break
			}
		}
	}
	*nd = Node{Kind: KindFree}
	n.markDirty()
}

// SweepFrom removes node start if it is dead (no fanouts, not an output)
// and recursively removes any fanins that become dead, except primary
// inputs, which are never swept. It returns the number of nodes removed.
func (n *Network) SweepFrom(start NodeID) int {
	removed, _ := n.SweepFromCollect(start)
	return len(removed)
}

// SweepFromCollect is SweepFrom reporting identity, not just count: it
// returns the ids of the removed nodes and the surviving boundary — the
// live nodes that lost at least one fanout edge into the removed set.
// Incremental consumers (the iteration engine's CPM refresh and candidate
// cache) need exactly these two sets to bound their dirty regions.
func (n *Network) SweepFromCollect(start NodeID) (removed, boundary []NodeID) {
	var faninsSeen []NodeID // fanins of removed nodes, captured pre-delete
	stack := []NodeID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.IsLive(id) || n.nodes[id].Kind == KindInput {
			continue
		}
		if len(n.nodes[id].fanouts) != 0 || n.isOutputDriver(id) {
			continue
		}
		fanins := append([]NodeID(nil), n.nodes[id].Fanins...)
		n.deleteNode(id)
		removed = append(removed, id)
		faninsSeen = append(faninsSeen, fanins...)
		stack = append(stack, fanins...)
	}
	// The boundary is every captured fanin that survived the sweep,
	// deduplicated in first-seen order.
	seen := make(map[NodeID]bool, len(faninsSeen))
	for _, f := range faninsSeen {
		if !seen[f] && n.IsLive(f) {
			seen[f] = true
			boundary = append(boundary, f)
		}
	}
	return removed, boundary
}

// Sweep removes all dead gates and constants anywhere in the network
// (nodes with no fanouts that drive no output). Primary inputs are kept.
// It returns the number of nodes removed.
func (n *Network) Sweep() int {
	removed := 0
	for {
		progress := 0
		for i := range n.nodes {
			id := NodeID(i)
			if !n.IsLive(id) || n.nodes[i].Kind == KindInput {
				continue
			}
			if len(n.nodes[i].fanouts) == 0 && !n.isOutputDriver(id) {
				n.deleteNode(id)
				progress++
			}
		}
		removed += progress
		if progress == 0 {
			return removed
		}
	}
}

// MFFC returns the maximum fanout-free cone of root: the set of nodes that
// would become dead if root lost all its fanouts (root included, inputs
// excluded). This is the area that a substitution deleting root reclaims.
func (n *Network) MFFC(root NodeID) []NodeID {
	return n.MFFCExcluding(root, InvalidNode)
}

// MFFCExcluding returns the MFFC of root with node keep pinned alive: keep
// (and everything only it supports) is never included. A substitution that
// replaces root by keep gives keep new fanouts, so the logic it exclusively
// supported stays live — this variant returns exactly the set such a
// substitution deletes. Pass InvalidNode for no pin.
func (n *Network) MFFCExcluding(root, keep NodeID) []NodeID {
	s := mffcScratch.Get().(*MFFCScratch)
	defer mffcScratch.Put(s)
	return n.AppendMFFC(nil, s, root, keep)
}

var mffcScratch = sync.Pool{New: func() any { return new(MFFCScratch) }}

// MFFCScratch is the reusable state of MFFC walks: per node slot, the
// fanout references the simulated deletion has released so far and an
// output-driver mark, plus the walk's stack. A walk clears every slot it
// set before it returns, so one scratch serves call after call, network
// after network, at a cost in the nodes the walk reaches. The zero value
// is ready to use; a scratch must not be shared by concurrent walks.
type MFFCScratch struct {
	drop    []int32  // released fanout references, by slot
	driver  []bool   // output-driver marks, by slot
	touched []NodeID // slots whose drop is nonzero
	stack   []mffcFrame
}

// mffcFrame is a node of the walk's path and the next of its fanins to
// release.
type mffcFrame struct {
	id   NodeID
	next int
}

// AppendMFFC appends MFFCExcluding(root, keep) to dst, in the same order,
// and returns the extended slice: the nodes in depth-first preorder from
// root, each node's fanins in fanin order, a fanin entered when its last
// fanout reference is released (simulated reference-count deletion,
// without touching the network). s is the walk's scratch.
//
//als:allocfree
func (n *Network) AppendMFFC(dst []NodeID, s *MFFCScratch, root, keep NodeID) []NodeID {
	if n.nodes[root].Kind == KindInput || root == keep {
		return dst
	}
	if len(s.drop) < len(n.nodes) {
		s.drop = make([]int32, len(n.nodes))  //als:alloc-ok grown to the network once
		s.driver = make([]bool, len(n.nodes)) //als:alloc-ok grown to the network once
	}
	for _, o := range n.outputs {
		s.driver[o.Node] = true
	}
	dst = append(dst, root)                            //als:alloc-ok the caller's result
	s.stack = append(s.stack[:0], mffcFrame{id: root}) //als:alloc-ok amortised scratch grow
	for len(s.stack) > 0 {
		fr := &s.stack[len(s.stack)-1]
		fanins := n.nodes[fr.id].Fanins
		if fr.next == len(fanins) {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		f := fanins[fr.next]
		fr.next++
		if n.nodes[f].Kind == KindInput || f == keep {
			continue
		}
		if s.drop[f] == 0 {
			s.touched = append(s.touched, f) //als:alloc-ok amortised scratch grow
		}
		s.drop[f]++
		// The count reaches the fanout count once; root, already in the
		// cone, is entered only by a cycle through it.
		if int(s.drop[f]) == len(n.nodes[f].fanouts) && !s.driver[f] && f != root {
			dst = append(dst, f)                        //als:alloc-ok the caller's result
			s.stack = append(s.stack, mffcFrame{id: f}) //als:alloc-ok amortised scratch grow
		}
	}
	for _, id := range s.touched {
		s.drop[id] = 0
	}
	s.touched = s.touched[:0]
	for _, o := range n.outputs {
		s.driver[o.Node] = false
	}
	return dst
}

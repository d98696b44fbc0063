package par

import "sort"

// Overcommit is the default bins-per-worker factor of PlanBins. More bins
// than workers keeps the pool's FIFO queue non-empty while the heaviest
// bins run, so a worker that finishes early steals a remaining bin instead
// of idling at the barrier — the work-stealing fallback for stragglers the
// static plan cannot predict.
const Overcommit = 4

// PlanBins returns the bin count for packing n weighted items onto a pool
// of the given worker count: Overcommit bins per worker, capped at n so no
// bin is empty by construction. A one-worker pool gets one bin: with no
// second worker to steal a queued bin, more bins only add runs to merge.
func PlanBins(n, workers int) int {
	if workers <= 1 {
		return 1
	}
	bins := workers * Overcommit
	if bins > n {
		bins = n
	}
	if bins < 1 {
		bins = 1
	}
	return bins
}

// Planner bin-packs weighted work items into balanced bins using the
// deterministic LPT (longest processing time first) greedy: items sorted
// by descending cost (ties by ascending index) are assigned one by one to
// the currently least-loaded bin (ties by lowest bin index). The result is
// a pure function of (costs, bins) — no randomness, no map iteration — so
// a plan is reproducible run to run, which the determinism contract of the
// gather fan-outs depends on: tasks may land on any worker in any order,
// but the partition itself never varies.
//
// Balance bound: when an item of cost c is placed, its bin is the current
// minimum, and bin loads only grow, so every final load satisfies
// maxLoad − minLoad ≤ max item cost. With per-item costs small relative to
// the total this pins worker idle at the batch barrier to one item's
// worth — the straggler gap the incremental gather's timeline measured.
//
// The zero Planner is ready to use. Plan reuses the planner's internal
// storage: the returned bins (and their backing arrays) are valid only
// until the next Plan call, and a Planner must not be shared by concurrent
// callers.
type Planner struct {
	costs []float64
	order []int
	loads []float64
	sizes []int
	heads []int
	next  []int
	bins  [][]int
	store []int
}

// planSorter sorts a Planner's order slice by descending cost, ties by
// ascending item index. It is a pointer-shaped adapter so sort.Sort gets
// an interface without heap allocation.
type planSorter struct{ p *Planner }

func (s planSorter) Len() int { return len(s.p.order) }
func (s planSorter) Less(i, j int) bool {
	a, b := s.p.order[i], s.p.order[j]
	if s.p.costs[a] != s.p.costs[b] {
		return s.p.costs[a] > s.p.costs[b]
	}
	return a < b
}
func (s planSorter) Swap(i, j int) { s.p.order[i], s.p.order[j] = s.p.order[j], s.p.order[i] }

// binSorter orders bin indices by descending load, ties by ascending index
// of the bin's first (heaviest) item, so the heaviest bins are dispatched
// first — classic LPT scheduling at the dispatch level.
type binSorter struct{ p *Planner }

func (s binSorter) Len() int { return len(s.p.bins) }
func (s binSorter) Less(i, j int) bool {
	a, b := s.p.bins[i], s.p.bins[j]
	la, lb := s.p.loads[i], s.p.loads[j]
	// Note: loads are tracked positionally before the bins slice is
	// reordered, so the sort key must travel with the bins; Swap keeps
	// them paired.
	if la != lb {
		return la > lb
	}
	switch {
	case len(a) == 0:
		return false
	case len(b) == 0:
		return true
	}
	return a[0] < b[0]
}
func (s binSorter) Swap(i, j int) {
	s.p.bins[i], s.p.bins[j] = s.p.bins[j], s.p.bins[i]
	s.p.loads[i], s.p.loads[j] = s.p.loads[j], s.p.loads[i]
}

// Plan partitions the item indices 0..len(costs)-1 into at most bins
// non-overlapping groups whose cost totals are balanced (see the type
// comment for the LPT bound), ordered by descending total cost. Every item
// appears in exactly one group. Negative costs are treated as zero. The
// returned slices are reused by the next Plan call.
//
// Steady state (same item count run to run) performs no heap allocation,
// so per-iteration callers can plan every dispatch without GC pressure.
//
//als:allocfree
func (p *Planner) Plan(costs []float64, bins int) [][]int {
	n := len(costs)
	if n == 0 {
		return p.bins[:0]
	}
	if bins > n {
		bins = n
	}
	if bins < 1 {
		bins = 1
	}

	p.costs = append(p.costs[:0], costs...) //als:alloc-ok amortised scratch grow
	p.order = p.order[:0]
	for i := 0; i < n; i++ {
		p.order = append(p.order, i) //als:alloc-ok amortised scratch grow
	}
	sort.Sort(planSorter{p})

	p.loads = p.loads[:0]
	p.sizes = p.sizes[:0]
	p.heads = p.heads[:0]
	for b := 0; b < bins; b++ {
		p.loads = append(p.loads, 0)  //als:alloc-ok amortised scratch grow
		p.sizes = append(p.sizes, 0)  //als:alloc-ok amortised scratch grow
		p.heads = append(p.heads, -1) //als:alloc-ok amortised scratch grow
	}
	// next forms per-bin linked lists through the items in assignment
	// order; heads/next avoid per-bin slices during the greedy pass.
	p.next = p.next[:0]
	for i := 0; i < n; i++ {
		p.next = append(p.next, -1) //als:alloc-ok amortised scratch grow
	}
	// Greedy LPT assignment. Items are prepended to their bin's list and
	// each list is reversed when materialised, which restores assignment
	// (descending-cost) order without per-bin tail pointers.
	for _, it := range p.order {
		c := p.costs[it]
		if c < 0 {
			c = 0
		}
		min := 0
		for b := 1; b < bins; b++ {
			if p.loads[b] < p.loads[min] {
				min = b
			}
		}
		p.next[it] = p.heads[min]
		p.heads[min] = it
		p.loads[min] += c
		p.sizes[min]++
	}

	// Materialise bins into one backing store, reversing each bin's
	// prepend-list back into assignment (descending-cost) order.
	p.store = p.store[:0]
	for cap(p.store) < n {
		p.store = append(p.store[:cap(p.store)], 0) //als:alloc-ok amortised scratch grow
	}
	p.store = p.store[:n]
	p.bins = p.bins[:0]
	off := 0
	for b := 0; b < bins; b++ {
		sz := p.sizes[b]
		seg := p.store[off : off+sz : off+sz]
		for i, it := sz-1, p.heads[b]; it >= 0; i, it = i-1, p.next[it] {
			seg[i] = it
		}
		off += sz
		p.bins = append(p.bins, seg) //als:alloc-ok amortised scratch grow
	}
	sort.Sort(binSorter{p})
	return p.bins
}

package par

// Overcommit is the default bins-per-worker factor of PlanBins. More bins
// than workers keeps the pool's FIFO queue non-empty while the heaviest
// bins run, so a worker that finishes early steals a remaining bin instead
// of idling at the barrier — the work-stealing fallback for stragglers the
// static plan cannot predict.
const Overcommit = 4

// PlanBins returns the bin count for splitting n weighted items over a
// pool of the given worker count: Overcommit bins per worker, capped at n.
// A one-worker pool gets one bin: with no second worker to steal a queued
// bin, more bins only add dispatches.
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

// Planner splits a sequence of weighted work items into contiguous bins
// of balanced cost: bin k holds the items [b[k], b[k+1]) of the bounds b
// that Plan returns. A bin is a range, so it keeps the items' order: a
// caller whose items are in the order its output must have (the gather's
// targets, ascending) gets each bin's output in that order, and the
// bins' outputs laid end to end in bin order are the whole output in that
// order, with nothing to merge. The plan is a pure function of (costs,
// bins) — no randomness, no map iteration — so it is reproducible run to
// run, though nothing a caller computes may depend on it.
//
// Balance bound: bound k (0 < k < bins) is the first item at which the
// running cost reaches k/bins of the total, so every bin costs less than
// total/bins plus the largest item's cost. With per-item costs small
// relative to the total this pins worker idle at the batch barrier to
// about one item's worth. A bin may be empty when one item outweighs a
// bin's share.
//
// The zero Planner is ready to use. Plan reuses the planner's storage:
// the returned bounds are valid only until the next Plan call, and a
// Planner must not be shared by concurrent callers.
type Planner struct {
	bounds []int
}

// Plan returns the bounds of bins contiguous bins over the items
// 0..len(costs)−1 (bins clamped to [1, len(costs)]): len(bins)+1 entries
// from 0 to len(costs), non-decreasing. Negative costs count as zero; all
// zero costs split the items by count. No items give the one bound 0.
//
// Steady state (the bounds already grown to bins+1) performs no heap
// allocation, so per-iteration callers can plan every dispatch without GC
// pressure.
//
//als:allocfree
func (p *Planner) Plan(costs []float64, bins int) []int {
	n := len(costs)
	p.bounds = append(p.bounds[:0], 0) //als:alloc-ok amortised scratch grow
	if n == 0 {
		return p.bounds
	}
	bins = min(max(bins, 1), n)
	total := 0.0
	for _, c := range costs {
		total += max(c, 0)
	}
	if total == 0 {
		for k := 1; k <= bins; k++ {
			p.bounds = append(p.bounds, k*n/bins) //als:alloc-ok amortised scratch grow
		}
		return p.bounds
	}
	run, i := 0.0, 0
	for k := 1; k < bins; k++ {
		share := total * float64(k) / float64(bins)
		for i < n && run < share {
			run += max(costs[i], 0)
			i++
		}
		p.bounds = append(p.bounds, i) //als:alloc-ok amortised scratch grow
	}
	p.bounds = append(p.bounds, n) //als:alloc-ok amortised scratch grow
	return p.bounds
}

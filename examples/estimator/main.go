// Estimator accuracy: use the internal batch-estimation machinery directly
// (outside the flow) to score every candidate substitution of a circuit,
// then compare the batch estimates against ground-truth full simulation —
// the experiment behind the paper's Fig. 3 and Table 2, in miniature.
//
// This example imports internal packages, which is possible because it
// lives inside the batchals module; it shows the layered API beneath the
// facade.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"batchals/internal/bench"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/sasimi"
)

func main() {
	golden, err := bench.ByName("c880")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %s (%d gates)\n", golden.Name, golden.NumGates())

	cfg := sasimi.Config{
		Budget: flow.Budget{
			Metric:      core.MetricER,
			Threshold:   1, // estimation only
			NumPatterns: 4000,
			Seed:        7,
		},
	}

	// Batch estimation of every candidate: one simulation + one CPM.
	cfgBatch := cfg
	cfgBatch.Estimator = sasimi.EstimatorBatch
	start := time.Now()
	batch, err := sasimi.EstimateAll(golden, golden.Clone(), cfgBatch)
	if err != nil {
		log.Fatal(err)
	}
	batchTime := time.Since(start)

	// Ground truth: resimulate the fanout cone of every candidate.
	cfgFull := cfg
	cfgFull.Estimator = sasimi.EstimatorFull
	start = time.Now()
	full, err := sasimi.EstimateAll(golden, golden.Clone(), cfgFull)
	if err != nil {
		log.Fatal(err)
	}
	fullTime := time.Since(start)

	var sumAbs, worst float64
	exactMatches := 0
	for i := range batch {
		d := math.Abs(batch[i].Delta - full[i].Delta)
		sumAbs += d
		if d > worst {
			worst = d
		}
		if d < 1e-12 {
			exactMatches++
		}
	}
	fmt.Printf("candidates evaluated: %d\n", len(batch))
	fmt.Printf("batch estimation: %8s   full simulation: %8s   speed-up: %.1fx\n",
		batchTime.Round(time.Millisecond), fullTime.Round(time.Millisecond),
		float64(fullTime)/float64(batchTime))
	fmt.Printf("|batch - truth|: mean %.6f, worst %.6f, exact on %d/%d (%.1f%%)\n",
		sumAbs/float64(len(batch)), worst, exactMatches, len(batch),
		100*float64(exactMatches)/float64(len(batch)))

	// Show the ten most attractive candidates by the flow's score. Many
	// candidates tie on the score, so the ranking breaks ties by identity
	// (target, substitute, kind): a total order, so the listing depends
	// neither on EstimateAll's order nor on how the sort treats ties.
	sort.Slice(batch, func(i, j int) bool { return rankBefore(&batch[i], &batch[j]) })
	fmt.Println("\ntop candidates (area gain per unit of estimated error):")
	for i := 0; i < 10 && i < len(batch); i++ {
		c := batch[i]
		fmt.Printf("  %2d. target=%s sub=%s inv=%v gain=%.0f ΔER=%+.5f\n",
			i+1, golden.NameOf(c.Target), subName(golden, c), c.Inverted, c.AreaGain, c.Delta)
	}
}

// rankBefore orders candidates by descending score, then by target,
// substitute and kind (constant 1, constant 0, plain, inverted).
func rankBefore(a, b *sasimi.Candidate) bool {
	switch {
	case a.Score != b.Score:
		return a.Score > b.Score
	case a.Target != b.Target:
		return a.Target < b.Target
	case a.Sub != b.Sub:
		return a.Sub < b.Sub
	}
	return kindRank(a) < kindRank(b)
}

// kindRank numbers a candidate's substitution kind in the order the
// candidate list keeps for one target and substitute.
func kindRank(c *sasimi.Candidate) int {
	switch {
	case c.Const && c.ConstVal:
		return 0
	case c.Const:
		return 1
	case c.Inverted:
		return 3
	}
	return 2
}

// subName renders the substitute of a candidate, including the constant
// cases where no substitute node exists.
func subName(n *circuit.Network, c sasimi.Candidate) string {
	if c.Const {
		if c.ConstVal {
			return "const1"
		}
		return "const0"
	}
	return n.NameOf(c.Sub)
}

package main

import (
	"bytes"
	"fmt"

	"batchals"
	"batchals/internal/bench"
)

// workers is the pool size of every flow and alsd job the benchmark runs:
// a constant, so numbers from machines with more CPUs stay comparable.
const workers = 2

// flowSpec is one flow workload: one circuit and the options every flow
// over it runs with. A run cycles through `distinct` inputs; input i of
// seed s is the circuit approximated with pattern seed 1000·s + i. The
// circuit does not depend on the seed: on a shared host, timings and
// memory already drift by about 10% between runs, and a circuit that
// changes with the seed would add its own spread on top.
type flowSpec struct {
	name     string
	distinct int
	build    func() (*batchals.Network, error) // the golden circuit
	opts     batchals.Options
}

// registry builds a registered benchmark circuit.
func registry(name string) func() (*batchals.Network, error) {
	return func() (*batchals.Network, error) { return batchals.Benchmark(name) }
}

// tiled builds a bench.Tiled circuit of the given size and generator seed.
func tiled(gates int, seed int64) func() (*batchals.Network, error) {
	return func() (*batchals.Network, error) {
		return bench.Tiled(fmt.Sprintf("synth%d_%d", gates, seed), 64, 64, gates, seed), nil
	}
}

// flowWorkloads are sized so that one run (--seconds 15) completes every
// distinct input at least once plus one repetition on a 2-CPU host, and
// so that no run needs more than about 0.5 GB. Why each exists is recorded
// in BENCHMARK.json and README.md.
var flowWorkloads = []flowSpec{
	{
		name:     "c880-er",
		distinct: 8,
		build:    registry("c880"),
		opts: batchals.Options{
			Metric: batchals.ErrorRate, Threshold: 0.01, NumPatterns: 10000, VerifyTopK: 8,
		},
	},
	{
		name:     "mul8-aem",
		distinct: 8,
		build:    registry("mul8"),
		opts: batchals.Options{
			Metric: batchals.AvgErrorMagnitude, Threshold: 64, NumPatterns: 1024, MaxIterations: 12,
		},
	},
	{
		name:     "synth3k-mono",
		distinct: 8,
		build:    tiled(3000, 10),
		// One iteration: the full gather, CPM build and scoring from
		// scratch. Later iterations cost whatever the accepted edit
		// dirtied, which differs so much between pattern seeds that two
		// iterations spread the run's median by 25%.
		opts: batchals.Options{
			Metric: batchals.ErrorRate, Threshold: 0.02, NumPatterns: 1024, MaxIterations: 1,
		},
	},
	{
		name:     "synth20k-part",
		distinct: 4,
		build:    tiled(20000, 50),
		opts: batchals.Options{
			Metric: batchals.ErrorRate, Threshold: 0.02, NumPatterns: 1024, MaxIterations: 2,
			Partition: &batchals.PartitionOptions{TargetCells: 500},
		},
	},
}

// serveJob is the job the alsd workloads submit, and the flow the
// benchmark re-runs in-process to check the daemon's answers and to trace
// the flow layers a job goes through.
var serveJob = flowSpec{
	name:     "alsd-open",
	distinct: 16,
	build:    registry("mul4"),
	opts: batchals.Options{
		Metric: batchals.ErrorRate, Threshold: 0.05, NumPatterns: 512,
	},
}

// workloadNames lists every workload in run order.
func workloadNames() []string {
	var names []string
	for _, w := range flowWorkloads {
		names = append(names, w.name)
	}
	return append(names, serveJob.name)
}

func flowWorkload(name string) (flowSpec, bool) {
	for _, w := range flowWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return flowSpec{}, false
}

// flowInput is one prepared input of a flow workload.
type flowInput struct {
	golden *batchals.Network
	seed   int64 // Options.Seed of flows over this input
}

// prepare builds the workload's inputs for a seed. The circuit is
// generated, written as .bench and parsed back, which is what a user
// loading it from a file pays.
func (w flowSpec) prepare(seed int64) ([]flowInput, error) {
	src, err := w.build()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := batchals.WriteTo(&buf, ".bench", src); err != nil {
		return nil, fmt.Errorf("write %s: %w", src.Name, err)
	}
	g, err := batchals.Read(&buf, ".bench", src.Name)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", src.Name, err)
	}
	inputs := make([]flowInput, w.distinct)
	for i := range inputs {
		inputs[i] = flowInput{golden: g, seed: 1000*seed + int64(i)}
	}
	return inputs, nil
}

// options returns the flow options for one input.
func (w flowSpec) options(in flowInput) batchals.Options {
	o := w.opts
	o.Seed = in.seed
	o.Workers = workers
	if o.Partition != nil {
		p := *o.Partition
		o.Partition = &p
	}
	return o
}

// partCells is the part size of the partition probe: the flow's own for
// a partitioned workload, a quarter of the circuit otherwise.
func (w flowSpec) partCells(g *batchals.Network) int {
	if w.opts.Partition != nil {
		return w.opts.Partition.TargetCells
	}
	return max(g.NumGates()/4, 16)
}

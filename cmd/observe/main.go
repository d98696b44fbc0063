// Command observe inspects ALS observability data. It has two modes:
//
// Circuit mode prints a statistical testability report for a circuit:
// per-gate signal probability, observability (from the change propagation
// matrix's one-row AnyProp fold) and stuck-at impact, under a uniform
// Monte Carlo input distribution. Low-impact nodes are where an ALS flow
// finds its savings; high-impact, low-observability nodes are where a
// test engineer inserts observation points.
//
// Metrics mode renders a metrics snapshot — from a JSON file written by
// alsrun -metrics, or fetched live from a serving process (alsd, alsrun
// -serve) via its /metrics.json endpoint:
//
//	observe -circuit c880 -m 10000 -top 20
//	observe -circuit my.bench
//	observe -metrics run_metrics.json
//	observe -url http://localhost:8415/metrics.json
//
// Malformed metrics input (unreadable file, failed fetch, invalid JSON)
// exits with status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"batchals"
	"batchals/internal/core"
	"batchals/internal/sim"
)

func main() {
	var (
		circuitFlag = flag.String("circuit", "", "benchmark name or .bench/.blif file")
		m           = flag.Int("m", 10000, "Monte Carlo pattern count")
		seed        = flag.Int64("seed", 0, "random seed")
		top         = flag.Int("top", 25, "rows to print (0 = all), least testable first")
		metricsFile = flag.String("metrics", "", "render a metrics snapshot JSON file (from alsrun -metrics or /metrics.json)")
		urlFlag     = flag.String("url", "", "fetch and render live /metrics.json from a serving process")
	)
	flag.Parse()
	if *metricsFile != "" || *urlFlag != "" {
		if err := metricsMode(*metricsFile, *urlFlag); err != nil {
			fmt.Fprintln(os.Stderr, "observe:", err)
			os.Exit(1)
		}
		return
	}
	if *circuitFlag == "" {
		fmt.Fprintln(os.Stderr, "observe: -circuit is required (or -metrics/-url)")
		flag.Usage()
		os.Exit(2)
	}
	var (
		n   *batchals.Network
		err error
	)
	if strings.ContainsAny(*circuitFlag, "/.") {
		n, err = batchals.Load(*circuitFlag)
	} else {
		n, err = batchals.Benchmark(*circuitFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "observe:", err)
		os.Exit(1)
	}
	p := sim.RandomPatterns(n.NumInputs(), *m, *seed)
	vals := sim.Simulate(n, p)
	cpm := core.BuildAnyProp(n, vals, nil)
	rows := core.TestabilityReport(n, vals, cpm)
	bt := cpm.BuildTime()
	unit := time.Millisecond
	if bt < 10*time.Millisecond {
		unit = time.Microsecond
	}
	fmt.Printf("%s: %d gates, M=%d patterns, AnyProp rows built in %v\n",
		n.Name, n.NumGates(), *m, bt.Round(unit))
	fmt.Print(core.RenderTestability(rows, *top))
}

// Command alsd is the ALS service daemon: it executes a bounded queue of
// synthesis jobs while serving live telemetry over HTTP — Prometheus
// /metrics (every run labelled run="name", plus service-level latency
// histograms and queue gauges), /metrics.json, per-job lifecycle traces
// at /jobs/{name}, per-run SSE event streams at /events, flight-recorder
// dumps at /flight, live timelines at /timeline, health and readiness
// probes, and the net/http/pprof surface. Requests are access-logged as
// JSONL when -access-log is set.
//
// Usage:
//
//	alsd -addr :8415
//	alsd -addr 127.0.0.1:0 -repeat 3 -demo mul4 -queue-max 16 -access-log /tmp/alsd.log
//
// The daemon prints "alsd: listening on ADDR" once the listener is bound
// (ADDR carries the real port when :0 requested an ephemeral one — the CI
// smoke tests parse it). Jobs are submitted as JSON:
//
//	curl -X POST localhost:8415/jobs -d '{"circuit":"c880","threshold":0.01}'
//
// and run sequentially; each job gets its own metrics registry, stream
// tracer, flight recorder and lifecycle trace, registered under its run
// name before the 202 returns. Invalid specs are rejected at enqueue time
// with a typed 400 body; a full queue sheds with 429 + Retry-After. On
// SIGTERM the daemon drains: the running job finishes, queued jobs are
// marked canceled, and access logs are flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"batchals"
	"batchals/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8415", "listen address (host:port; :0 picks an ephemeral port)")
		repeat      = flag.Int("repeat", 0, "enqueue this many demo jobs at startup")
		demo        = flag.String("demo", "mul4", "demo job circuit for -repeat")
		demoThr     = flag.Float64("demo-threshold", 0.05, "demo job error threshold")
		demoM       = flag.Int("demo-m", 2000, "demo job Monte Carlo pattern count")
		queueMax    = flag.Int("queue-max", 64, "job queue bound; submissions beyond it are shed with 429")
		runsMax     = flag.Int("runs-max", 512, "retain at most this many finished runs (oldest evicted)")
		accessLog   = flag.String("access-log", "", "write JSONL access logs to this file (\"-\" for stdout)")
		drainWindow = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for the running job before canceling it")
	)
	flag.Parse()

	var logger *serve.AccessLogger
	switch *accessLog {
	case "":
	case "-":
		logger = serve.NewAccessLogger(os.Stdout)
	default:
		f, err := os.Create(*accessLog)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		logger = serve.NewAccessLogger(f)
	}

	d := serve.NewDaemon(serve.DaemonConfig{
		QueueMax:  *queueMax,
		RunsMax:   *runsMax,
		AccessLog: logger,
		Runner:    runJob,
	})

	// The handler goes in before the daemon listens, so that a SIGTERM
	// any time after the listening line — right after the first 200 from
	// /readyz, say — drains instead of killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("alsd: listening on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: d.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()

	d.Start()
	for i := 0; i < *repeat; i++ {
		spec := serve.JobSpec{
			Name:      fmt.Sprintf("demo-%d", i+1),
			Circuit:   *demo,
			Threshold: *demoThr,
			Patterns:  *demoM,
			Seed:      int64(i),
			Timeline:  true, // demo jobs carry the service-lane timeline
		}
		if _, err := d.Enqueue(spec); err != nil {
			fmt.Fprintf(os.Stderr, "alsd: demo job %d: %v\n", i+1, err)
		}
	}
	d.Server().SetReady(true)
	<-sig
	fmt.Println("alsd: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWindow)
	defer cancel()
	if err := d.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "alsd: drain: %v\n", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	_ = httpSrv.Shutdown(httpCtx)
}

// runJob executes one admitted job against its run sinks and prints the
// result line the smoke scripts wait for.
func runJob(ctx context.Context, spec serve.JobSpec, run *serve.Run) error {
	golden, err := loadCircuit(spec.Circuit)
	if err != nil {
		return err
	}
	opts := batchals.Options{
		Threshold:     spec.Threshold,
		NumPatterns:   spec.Patterns,
		Seed:          spec.Seed,
		Workers:       spec.Workers,
		VerifyTopK:    spec.VerifyTopK,
		MaxIterations: spec.MaxIterations,
		Metrics:       run.Registry,
		Tracer:        run.Tracer(),
		Timeline:      run.Timeline(),
	}
	if p := spec.Partition; p != nil {
		opts.Partition = &batchals.PartitionOptions{
			TargetCells:  p.Cells,
			MaxCut:       p.MaxCut,
			BudgetPolicy: strings.ToLower(p.Policy),
			MaxRounds:    p.Rounds,
		}
	}
	switch strings.ToLower(spec.Metric) {
	case "", "er":
		opts.Metric = batchals.ErrorRate
	case "aem":
		opts.Metric = batchals.AvgErrorMagnitude
	default:
		return fmt.Errorf("unknown metric %q", spec.Metric)
	}
	switch strings.ToLower(spec.Estimator) {
	case "", "batch":
		opts.Estimator = batchals.Batch
	case "full":
		opts.Estimator = batchals.Full
	case "local":
		opts.Estimator = batchals.Local
	default:
		return fmt.Errorf("unknown estimator %q", spec.Estimator)
	}
	start := time.Now()
	res, err := batchals.ApproximateContext(ctx, golden, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alsd: run %s failed: %v\n", spec.Name, err)
		return err
	}
	fmt.Printf("alsd: run %s done in %s: area %.0f -> %.0f (ratio %.3f), %d substitutions, error %.5f\n",
		spec.Name, time.Since(start).Round(time.Millisecond),
		res.OriginalArea, res.FinalArea, res.AreaRatio(), res.NumIterations, res.FinalError)
	return nil
}

func loadCircuit(spec string) (*batchals.Network, error) {
	if strings.ContainsAny(spec, "/.") {
		return batchals.Load(spec)
	}
	return batchals.Benchmark(spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alsd:", err)
	os.Exit(1)
}

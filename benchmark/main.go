// Command benchmark is the repository benchmark: five workloads that
// drive the shipped surfaces from outside (batchals.NewFlow(...).Run for
// the flows, the real cmd/alsd binary over HTTP for the service), check
// every result, and report end-to-end metrics from untraced runs and
// per-layer metrics from traced runs. See README.md.
//
// Run it from the repository root through run.sh, which builds this
// program and alsd first:
//
//	bash benchmark/run.sh --workload c880-er --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1 -o results.json     # every workload, untraced and traced
//	bash benchmark/run.sh -compare old.json new.json  # regression table
//
// With one workload it prints `workload metric value unit` lines and, as
// its last line, one JSON object with the keys correct, attempted, failed
// and metrics. It exits non-zero when any check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"batchals/internal/benchmeta"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:]))
}

// specPath is the benchmark declaration, read from the working directory
// (the repository root). The program refuses to run when it disagrees
// with the metrics and workloads declared in metrics.go and workloads.go.
const specPath = "BENCHMARK.json"

// buildCommit is the commit the benchmark was built from, as the go
// command stamped it ("+dirty" when the tree had uncommitted changes), or
// "" when it was built outside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (comma-separated list or empty for all)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Int("seconds", 15, "measurement window of one run, in seconds")
		trace    = fs.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics); default both")
		alsd     = fs.String("alsd", ".bench_build/alsd", "alsd binary")
		traceDir = fs.String("trace-dir", ".bench_build/traces", "directory for the Perfetto traces of traced runs")
		out      = fs.String("o", "", "write every run's results to this JSON file")
		runs     = fs.Int("runs", 1, "repetitions of each workload (all-workload mode)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json (bounds from ./BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec benchSpec
	if err := loadJSON(specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if errs := checkSpec(spec); len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "benchmark: %s disagrees with the program: %v\n", specPath, err)
		}
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs OLD.json and NEW.json")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		alsd:     *alsd,
		traceDir: *traceDir,
	}
	env := benchmeta.CaptureEnv(buildCommit())
	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	if len(names) == 1 && *trace >= 0 && *runs == 1 && *out == "" {
		return runOne(ctx, names[0], cfg, env)
	}
	return runAll(ctx, names, cfg, *trace, *runs, *out, env)
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its result.
func runOne(ctx context.Context, name string, cfg runConfig, env *benchmeta.Env) int {
	envJSON, _ := json.Marshal(env) // a struct of plain fields always marshals
	fmt.Printf("# env %s\n", envJSON)
	o, err := runWorkload(ctx, name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	res := report(name, o, cfg.trace)
	for _, d := range declared(cfg.trace) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%s %s %g %s\n", name, d.name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report turns an outcome into the result a run prints: the metrics the
// run mode declares, each with its unit. A declared metric the run did
// not measure counts as a failure.
func report(name string, o *outcome, trace bool) result {
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared(trace) {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured\n", name, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// nameUnit is a declared metric's name and unit.
type nameUnit struct{ name, unit string }

// declared lists the metrics a run prints: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func declared(trace bool) []nameUnit {
	var out []nameUnit
	if !trace {
		for _, e := range e2eMetrics {
			out = append(out, nameUnit{e.name, e.unit})
		}
		return out
	}
	for _, l := range layerMetrics {
		out = append(out, nameUnit{l.name, l.unit})
	}
	return out
}

// runRecord is one run in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	result
}

// resultsFile is what -o writes and -compare reads.
type resultsFile struct {
	Env     *benchmeta.Env `json:"env"`
	Seconds int            `json:"seconds"`
	Runs    []runRecord    `json:"runs"`
}

// runAll re-executes this program once per workload, run and trace mode,
// so each run's peak RSS is its own process's.
func runAll(ctx context.Context, names []string, cfg runConfig, trace, runs int, outPath string, env *benchmeta.Env) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	modes := []int{0, 1}
	if trace >= 0 {
		modes = []int{trace}
	}
	file := resultsFile{Env: env, Seconds: int(cfg.window / time.Second)}
	status := 0
	for rep := 0; rep < runs; rep++ {
		for _, name := range names {
			for _, mode := range modes {
				rec := runRecord{Workload: name, Trace: mode, Seed: cfg.seed + int64(rep)}
				childArgs := []string{
					"-workload", name, "-seed", fmt.Sprint(rec.Seed), "-trace", fmt.Sprint(mode),
					"-seconds", fmt.Sprint(file.Seconds), "-alsd", cfg.alsd, "-trace-dir", cfg.traceDir,
				}
				r, err := runChild(ctx, self, childArgs)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", name, mode, err)
					status = 1
				}
				if r == nil {
					continue
				}
				rec.result = *r
				if !r.Correct {
					status = 1
				}
				file.Runs = append(file.Runs, rec)
				keys := make([]string, 0, len(r.Metrics))
				for k := range r.Metrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Printf("%s %s %g %s\n", name, k, r.Metrics[k].Value, r.Metrics[k].Unit)
				}
				fmt.Printf("%s fail_frac %g failed/attempted\n", name, ratio(float64(r.Failed), float64(r.Attempted)))
			}
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// runChild runs this program on one workload and parses the JSON object
// it prints last. Its standard error passes through.
func runChild(ctx context.Context, self string, args []string) (*result, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		if err == nil {
			err = fmt.Errorf("no result line: %w", jerr)
		}
		return nil, err
	}
	return &r, err
}

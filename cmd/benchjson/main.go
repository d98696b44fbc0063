// Command benchjson converts `go test -bench -benchmem` output into a
// committed JSON baseline and checks a new bench run against a committed
// baseline.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -benchtime=1x . | benchjson -o BENCH_pr2.json
//	go test -run='^$' -bench=. -benchmem -benchtime=1x . | benchjson -against BENCH_pr2.json
//
// Without -against, benchjson parses the bench lines on stdin and writes
// the baseline JSON to -o (default stdout) in the benchmeta schema
// (schema_version 2: environment metadata — go version, GOMAXPROCS, CPU
// model, commit — alongside the benchmarks). With -against, it instead
// verifies that every benchmark recorded in the baseline still appears in
// the new run (so CI fails when a paper experiment's benchmark silently
// disappears) and prints an ns/op comparison; it does not gate on timing,
// which is hardware-dependent — that is cmd/benchdiff's job, with
// noise-aware thresholds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"batchals/internal/benchmeta"
)

func main() {
	var (
		inFile  = flag.String("in", "", "read bench output from this file instead of stdin")
		outFile = flag.String("o", "", "write the baseline JSON here (default stdout)")
		against = flag.String("against", "", "compare stdin bench output against this committed baseline instead of writing one")
		commit  = flag.String("commit", "", "commit hash to record in env (default: $GITHUB_SHA, then git rev-parse HEAD)")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	benches, err := benchmeta.ParseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *against != "" {
		if err := compare(*against, benches); err != nil {
			fatal(err)
		}
		return
	}

	base := benchmeta.Baseline{
		SchemaVersion: benchmeta.SchemaVersion,
		GeneratedWith: "go test -run='^$' -bench=. -benchmem -benchtime=1x .",
		Env:           benchmeta.CaptureEnv(resolveCommit(*commit)),
		Benchmarks:    benches,
	}

	out := io.Writer(os.Stdout)
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		fatal(err)
	}
}

// resolveCommit picks the commit hash to record: the explicit flag, then
// the CI-provided GITHUB_SHA, then a best-effort git rev-parse (empty if
// git or the work tree is unavailable — the field is metadata, not a
// requirement).
func resolveCommit(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// compare checks the new bench results cover every benchmark in the
// committed baseline and prints an informational ns/op comparison.
func compare(baselinePath string, fresh []benchmeta.Bench) error {
	base, err := benchmeta.Load(baselinePath)
	if err != nil {
		return err
	}
	got := map[string]benchmeta.Bench{}
	for _, b := range fresh {
		got[b.Name] = b
	}
	var missing []string
	names := make([]string, 0, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	byName := map[string]benchmeta.Bench{}
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	for _, name := range names {
		nb, ok := got[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		ob := byName[name]
		if o, n := ob.Metrics["ns/op"], nb.Metrics["ns/op"]; o > 0 && n > 0 {
			fmt.Printf("%-32s ns/op %12.0f -> %12.0f (%+.1f%%)\n",
				name, o, n, 100*(n-o)/o)
		} else {
			fmt.Printf("%-32s present\n", name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("baseline benchmarks missing from this run: %s",
			strings.Join(missing, ", "))
	}
	fmt.Printf("all %d baseline benchmarks present\n", len(names))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

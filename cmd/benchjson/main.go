// Command benchjson converts `go test -bench -benchmem` output into a
// committed JSON baseline.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -benchtime=1x . | benchjson -o BENCH_pr2.json
//
// benchjson parses the bench lines on stdin and writes the baseline JSON
// to -o (default stdout) in the benchmeta schema (schema_version 2:
// environment metadata — go version, GOMAXPROCS, CPU model, commit —
// alongside the benchmarks). Comparing a run against a baseline is
// cmd/benchdiff's job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"batchals/internal/benchmeta"
)

func main() {
	var (
		inFile  = flag.String("in", "", "read bench output from this file instead of stdin")
		outFile = flag.String("o", "", "write the baseline JSON here (default stdout)")
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

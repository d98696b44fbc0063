package sasimi

import (
	"context"
	"fmt"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/par"
)

// BenchmarkGather times one full candidate gather on its own —
// newGatherEnv plus gather on a 2-worker pool — so the gather's ns/op and
// B/op are recorded apart from the flow around it. Simulation, arrival
// times and the admission tables are set up outside the timer. c880 at
// M = 10000 is the paper's setting; synth10k at M = 1024 is the quadratic
// monolithic gather at scale (about 8.4M candidates in 8-byte records,
// about 70 MB per op).
func BenchmarkGather(b *testing.B) {
	for _, tc := range []struct {
		circuit string
		m       int
	}{{"c880", 10000}, {"synth10k", 1024}} {
		b.Run(fmt.Sprintf("%s/M=%d", tc.circuit, tc.m), func(b *testing.B) {
			net, err := bench.ByName(tc.circuit)
			if err != nil {
				b.Fatal(err)
			}
			cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.05}}
			vals, arrival, invDelay := gatherFixture(net, tc.m, cfg)
			adm := newAdmission(tc.m, cfg.SimilarityCap)
			pool := par.NewPool(2)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				cands, _, err := gather(context.Background(), newGatherEnv(net, vals, cfg, arrival, invDelay, adm), pool, nil)
				if err != nil {
					b.Fatal(err)
				}
				n = cands.len()
			}
			b.ReportMetric(float64(n), "cands")
		})
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDueOffsets(t *testing.T) {
	due, stepOf := schedule([]step{
		{label: "a", rate: 10, dur: time.Second},
		{label: "b", rate: 4, dur: time.Second},
	})
	if len(due) != 14 {
		t.Fatalf("%d jobs, want 14", len(due))
	}
	for i, want := range map[int]time.Duration{
		0: 0, 1: 100 * time.Millisecond, 9: 900 * time.Millisecond,
		10: time.Second, 11: 1250 * time.Millisecond, 13: 1750 * time.Millisecond,
	} {
		if due[i] != want {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want)
		}
	}
	if stepOf[9] != 0 || stepOf[10] != 1 {
		t.Errorf("step of jobs 9/10 = %d/%d, want 0/1", stepOf[9], stepOf[10])
	}
}

// TestLatencyFromDueTime: a job sent 5 ms late that the server finished
// 10 ms after receiving it is charged everything since it was due.
func TestLatencyFromDueTime(t *testing.T) {
	due := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s := sent{due: due, late: 5 * time.Millisecond, rtt: time.Millisecond}
	tr := jobTrace{ReceivedAt: due.Add(5*time.Millisecond + 300*time.Microsecond), E2ENS: int64(10 * time.Millisecond)}
	if got, want := latency(s, tr), 15300*time.Microsecond; got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

// TestOpenLoopRecordsLateness: against a server slower than the schedule
// the generator keeps sending every job, never opens more than loadConns
// connections, and reports how late each send was.
func TestOpenLoopRecordsLateness(t *testing.T) {
	var inflight, peak atomic.Int32
	var mu sync.Mutex
	conns := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		mu.Lock()
		conns[r.RemoteAddr] = true
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns}}
	defer client.CloseIdleConnections()

	due, _ := schedule([]step{{rate: 1000, dur: 10 * time.Millisecond}})
	out := submitOpenLoop(context.Background(), client, srv.URL, due,
		func(int) []byte { return []byte("{}") }, func(i int) string { return fmt.Sprint(i) })
	if len(out) != 10 {
		t.Fatalf("%d jobs sent, want 10", len(out))
	}
	for i, s := range out {
		if s.status != http.StatusAccepted {
			t.Errorf("job %d status %d", i, s.status)
		}
		if s.late < 0 {
			t.Errorf("job %d sent %v early", i, -s.late)
		}
	}
	// Two connections at 20 ms per request serve 100 jobs/s against 1000
	// offered: the last job goes out about 80 ms late.
	if last := out[9].late; last < 50*time.Millisecond {
		t.Errorf("last job only %v late; the generator must not hide its backlog", last)
	}
	if p := peak.Load(); p > loadConns {
		t.Errorf("%d requests in flight, want at most %d", p, loadConns)
	}
	if len(conns) > loadConns {
		t.Errorf("%d connections opened, want at most %d", len(conns), loadConns)
	}
}

// TestClosedMetrics: the closed loop's latency runs from the POST to the
// server's done stamp, is scaled by each job's host factor, and leaves
// out the warm-up jobs.
func TestClosedMetrics(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	o := &serveOutcome{
		steps:  []step{{label: "warm"}, {label: "closed", measure: true}},
		traces: map[string]jobTrace{},
	}
	ms := time.Millisecond
	for i := 0; i < 5; i++ {
		name := fmt.Sprint(i)
		sentAt := t0.Add(time.Duration(i) * 100 * ms)
		// Received 1 ms after the POST went out, done 10·(i+1) ms later.
		o.traces[name] = jobTrace{Name: name, State: "done", ReceivedAt: sentAt.Add(ms), E2ENS: int64(time.Duration(10*(i+1)) * ms)}
		o.sent = append(o.sent, sent{name: name, due: sentAt, status: http.StatusAccepted, factor: 0.5})
		o.stepOf = append(o.stepOf, min(i, 1))
	}
	m := map[string]float64{}
	o.closedMetrics(m)
	// Jobs 1..4 measure 21, 31, 41, 51 ms; scaled by 0.5 the nearest-rank
	// median is 15.5.
	if got := m["latency_p50_ms"]; math.Abs(got-15.5) > 1e-9 {
		t.Errorf("latency_p50_ms = %g, want 15.5", got)
	}
}

// TestServeMetrics derives step latencies, the backlog at the end of the
// 80 jobs/s step and the overload completion rate from synthetic traces.
func TestServeMetrics(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	o := &serveOutcome{
		steps: []step{
			{label: "warm", rate: 10, dur: time.Second},
			{label: "r30", rate: 10, dur: time.Second, measure: true},
			{label: "r80", rate: 10, dur: time.Second, measure: true},
			{label: "over", rate: 10, dur: time.Second, measure: true},
		},
		start:  t0,
		traces: map[string]jobTrace{},
	}
	ms := time.Millisecond
	for i := 0; i < 40; i++ {
		due := t0.Add(time.Duration(i) * 100 * ms)
		lat := 10 * ms // warm-up and r30
		switch {
		case i >= 20 && i < 30:
			lat = time.Duration(i-19) * 20 * ms // r80: 20..200 ms
		case i >= 30:
			lat = time.Duration(i-29) * 150 * ms // overload: a growing backlog
		}
		name := fmt.Sprint(i)
		o.sent = append(o.sent, sent{name: name, due: due, late: ms, rtt: 2 * ms, status: http.StatusAccepted})
		o.stepOf = append(o.stepOf, i/10)
		o.traces[name] = jobTrace{Name: name, State: "done", ReceivedAt: due, E2ENS: int64(lat), QueueWaitNS: int64(ms), RunNS: int64(5 * ms)}
	}
	m := map[string]float64{}
	o.serveMetrics(m)
	for name, want := range map[string]float64{
		"serve.job_p50_ms.r30":  10,
		"serve.job_p50_ms.r80":  100,
		"serve.job_p95_ms.r80":  200,
		"serve.submit_p50_ms":   2,
		"serve.run_p50_ms":      5,
		"loadgen.late_p95_ms":   1,
		"serve.backlog_end.r80": 1, // job 29, due at 2.9 s, done at 3.1 s
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
	// Overload job k is done at 0.25·k - 4.35 s. Counting from a quarter
	// into the step (3.25 s), jobs 31..39 complete, the last at 5.4 s.
	if got, want := m["serve.max_jobs_s"], 9/2.15; math.Abs(got-want) > 1e-9 {
		t.Errorf("throughput = %g, want %g", got, want)
	}
}

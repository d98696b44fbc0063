package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"batchals/internal/obs"
)

// testDaemon builds a daemon with an isolated metrics registry, a
// permissive circuit check (every name but "nope" exists) and the given
// runner. Callers own Start/Shutdown.
func testDaemon(t *testing.T, runner Runner, tweak func(*DaemonConfig)) *Daemon {
	t.Helper()
	cfg := DaemonConfig{
		QueueMax: 4,
		Registry: obs.NewRegistry(),
		Runner:   runner,
		CheckCircuit: func(name string) error {
			if name == "nope" {
				return errors.New("no such circuit")
			}
			return nil
		},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return NewDaemon(cfg)
}

// postJob submits a spec through the daemon's full HTTP surface.
func postJob(t *testing.T, h http.Handler, spec map[string]any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if out != nil && rw.Code == http.StatusOK {
		if err := json.Unmarshal(rw.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return rw.Code
}

// waitState polls the job trace until it reaches want or the deadline.
func waitState(t *testing.T, d *Daemon, name string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if run, ok := d.runs.Lookup(name); ok {
			if tr := run.JobTrace(); tr != nil && tr.State() == want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	state := "?"
	if run, ok := d.runs.Lookup(name); ok && run.JobTrace() != nil {
		state = run.JobTrace().State().String()
	}
	t.Fatalf("job %s never reached %s (stuck at %s)", name, want, state)
}

func TestDaemonJobLifecycle(t *testing.T) {
	d := testDaemon(t, func(ctx context.Context, spec JobSpec, run *Run) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}, nil)
	d.Start()
	defer func() { _ = d.Shutdown(context.Background()) }()
	h := d.Handler()

	rw := postJob(t, h, map[string]any{"name": "a", "circuit": "c", "threshold": 0.05})
	if rw.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, body %s", rw.Code, rw.Body.String())
	}
	var accepted map[string]string
	if err := json.Unmarshal(rw.Body.Bytes(), &accepted); err != nil || accepted["run"] != "a" {
		t.Fatalf("202 body = %s", rw.Body.String())
	}

	waitState(t, d, "a", JobDone)

	var doc JobTraceSnapshot
	if code := getJSON(t, h, "/jobs/a", &doc); code != http.StatusOK {
		t.Fatalf("GET /jobs/a = %d", code)
	}
	wantWalk := []string{"received", "queued", "admitted", "running", "done"}
	if len(doc.Transitions) != len(wantWalk) {
		t.Fatalf("transitions = %+v, want %v", doc.Transitions, wantWalk)
	}
	for i, tr := range doc.Transitions {
		if tr.State != wantWalk[i] {
			t.Fatalf("transition %d = %s, want %s", i, tr.State, wantWalk[i])
		}
	}
	if doc.QueueWaitNS <= 0 || doc.RunNS <= 0 || doc.E2ENS < doc.RunNS {
		t.Fatalf("durations not populated: %+v", doc)
	}

	// The job list includes the trace; an unknown job 404s.
	var list []JobTraceSnapshot
	if code := getJSON(t, h, "/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /jobs = %d, %d entries", code, len(list))
	}
	if code := getJSON(t, h, "/jobs/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("GET /jobs/ghost = %d, want 404", code)
	}

	// Latency histograms and counters made it to /metrics with quantiles.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrw := httptest.NewRecorder()
	h.ServeHTTP(mrw, req)
	metrics := mrw.Body.String()
	for _, want := range []string{
		"serve_jobs_received_total 1",
		"serve_jobs_done_total 1",
		"serve_job_e2e_ns_count 1",
		`serve_job_e2e_ns{quantile="0.99"}`,
		`serve_job_queue_wait_ns{quantile="0.5"}`,
		"serve_job_run_ns_bucket",
		"serve_queue_depth",
		"serve_jobs_inflight",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDaemonSpecValidation(t *testing.T) {
	d := testDaemon(t, func(context.Context, JobSpec, *Run) error { return nil }, nil)
	// No Start: validation rejects before the queue is involved.
	h := d.Handler()
	cases := []struct {
		spec  map[string]any
		field string
	}{
		{map[string]any{"threshold": 0.05}, "circuit"},
		{map[string]any{"circuit": "nope", "threshold": 0.05}, "circuit"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "metric": "wat"}, "metric"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "estimator": "wat"}, "estimator"},
		{map[string]any{"circuit": "c"}, "threshold"},
		{map[string]any{"circuit": "c", "threshold": -1}, "threshold"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "m": -5}, "m"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "workers": -1}, "workers"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "partition": map[string]any{}}, "partition.cells"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "partition": map[string]any{"cells": -3}}, "partition.cells"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "partition": map[string]any{"cells": 100, "max_cut": -1}}, "partition.max_cut"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "partition": map[string]any{"cells": 100, "rounds": -2}}, "partition.rounds"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "partition": map[string]any{"cells": 100, "policy": "greedy"}}, "partition.policy"},
		{map[string]any{"circuit": "c", "threshold": 0.05, "metric": "aem", "partition": map[string]any{"cells": 100}}, "partition"},
	}
	for _, c := range cases {
		rw := postJob(t, h, c.spec)
		if rw.Code != http.StatusBadRequest {
			t.Errorf("spec %v: status %d, want 400", c.spec, rw.Code)
			continue
		}
		var e SpecError
		if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil {
			t.Errorf("spec %v: body not a SpecError: %s", c.spec, rw.Body.String())
			continue
		}
		if e.Field != c.field || e.Msg == "" {
			t.Errorf("spec %v: field %q msg %q, want field %q", c.spec, e.Field, e.Msg, c.field)
		}
	}
	// Malformed JSON is a 400 too, not a 500.
	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader("{nope"))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rw.Code)
	}
	if got := d.cfg.Registry.Counter("serve_jobs_received_total").Value(); got != 0 {
		t.Errorf("rejected specs counted as received: %d", got)
	}
}

func TestDaemonDuplicateName(t *testing.T) {
	block := make(chan struct{})
	d := testDaemon(t, func(context.Context, JobSpec, *Run) error {
		<-block
		return nil
	}, nil)
	d.Start()
	defer func() { close(block); _ = d.Shutdown(context.Background()) }()
	h := d.Handler()

	if rw := postJob(t, h, map[string]any{"name": "dup", "circuit": "c", "threshold": 0.1}); rw.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rw.Code)
	}
	rw := postJob(t, h, map[string]any{"name": "dup", "circuit": "c", "threshold": 0.1})
	if rw.Code != http.StatusConflict {
		t.Fatalf("duplicate submit = %d, want 409", rw.Code)
	}
	var e SpecError
	if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || e.Field != "name" {
		t.Fatalf("409 body = %s", rw.Body.String())
	}
}

func TestDaemonShedsWith429(t *testing.T) {
	release := make(chan struct{})
	d := testDaemon(t, func(context.Context, JobSpec, *Run) error {
		<-release
		return nil
	}, func(cfg *DaemonConfig) { cfg.QueueMax = 1 })
	d.Start()
	defer func() { _ = d.Shutdown(context.Background()) }()
	h := d.Handler()

	// First job occupies the worker, second fills the queue of one.
	if rw := postJob(t, h, map[string]any{"name": "running", "circuit": "c", "threshold": 0.1}); rw.Code != http.StatusAccepted {
		t.Fatalf("submit 1 = %d", rw.Code)
	}
	waitState(t, d, "running", JobRunning)
	if rw := postJob(t, h, map[string]any{"name": "waiting", "circuit": "c", "threshold": 0.1}); rw.Code != http.StatusAccepted {
		t.Fatalf("submit 2 = %d", rw.Code)
	}

	// The third submission must shed.
	rw := postJob(t, h, map[string]any{"name": "extra", "circuit": "c", "threshold": 0.1})
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("submit 3 = %d, want 429 (body %s)", rw.Code, rw.Body.String())
	}
	if ra := rw.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive second count", ra)
	}
	var body struct {
		Error      string `json:"error"`
		Run        string `json:"run"`
		RetryAfter int    `json:"retry_after_s"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil || body.Run != "extra" || body.RetryAfter < 1 {
		t.Fatalf("429 body = %s", rw.Body.String())
	}
	if got := d.cfg.Registry.Counter("serve_jobs_shed_total").Value(); got != 1 {
		t.Fatalf("serve_jobs_shed_total = %d, want 1", got)
	}

	// The shed job's trace records the shed state…
	var doc JobTraceSnapshot
	if code := getJSON(t, h, "/jobs/extra", &doc); code != http.StatusOK || doc.State != "shed" {
		t.Fatalf("GET /jobs/extra = %d, state %q", code, doc.State)
	}
	// …and a retry under the same name is NOT a 409: the shed record is
	// replaced, and once capacity frees up the retry is accepted.
	close(release)
	waitState(t, d, "running", JobDone)
	waitState(t, d, "waiting", JobDone)
	rw = postJob(t, h, map[string]any{"name": "extra", "circuit": "c", "threshold": 0.1})
	if rw.Code != http.StatusAccepted {
		t.Fatalf("retry of shed name = %d, want 202 (body %s)", rw.Code, rw.Body.String())
	}
	waitState(t, d, "extra", JobDone)
}

func TestDaemonAutoNamesJobs(t *testing.T) {
	d := testDaemon(t, func(context.Context, JobSpec, *Run) error { return nil }, nil)
	d.Start()
	defer func() { _ = d.Shutdown(context.Background()) }()
	name, err := d.Enqueue(JobSpec{Circuit: "c", Threshold: 0.1})
	if err != nil || !strings.HasPrefix(name, "job-") {
		t.Fatalf("Enqueue = %q, %v", name, err)
	}
}

func TestDaemonFailedJob(t *testing.T) {
	d := testDaemon(t, func(context.Context, JobSpec, *Run) error {
		return errors.New("synthesis exploded")
	}, nil)
	d.Start()
	defer func() { _ = d.Shutdown(context.Background()) }()
	if _, err := d.Enqueue(JobSpec{Name: "f", Circuit: "c", Threshold: 0.1}); err != nil {
		t.Fatal(err)
	}
	waitState(t, d, "f", JobFailed)
	var doc JobTraceSnapshot
	if code := getJSON(t, d.Handler(), "/jobs/f", &doc); code != http.StatusOK {
		t.Fatalf("GET /jobs/f = %d", code)
	}
	if doc.Error != "synthesis exploded" {
		t.Fatalf("trace error = %q", doc.Error)
	}
	run, _ := d.runs.Lookup("f")
	if run.State() != RunFailed {
		t.Fatalf("run state = %s, want failed", run.State())
	}
	if got := d.cfg.Registry.Counter("serve_jobs_failed_total").Value(); got != 1 {
		t.Fatalf("serve_jobs_failed_total = %d, want 1", got)
	}
}

func TestDaemonTimelineServiceLane(t *testing.T) {
	d := testDaemon(t, func(ctx context.Context, spec JobSpec, run *Run) error {
		time.Sleep(time.Millisecond)
		return nil
	}, nil)
	d.Start()
	defer func() { _ = d.Shutdown(context.Background()) }()
	if _, err := d.Enqueue(JobSpec{Name: "tl", Circuit: "c", Threshold: 0.1, Workers: 1, Timeline: true}); err != nil {
		t.Fatal(err)
	}
	waitState(t, d, "tl", JobDone)
	run, _ := d.runs.Lookup("tl")
	rec := run.Timeline()
	if rec == nil {
		t.Fatalf("timeline recorder not attached")
	}
	// The daemon bridges the lifecycle onto the timeline after the job
	// turns done (the running span needs the terminal stamp), so wait for
	// the spans themselves, not just the state.
	wants := []string{`"service"`, "service.queued", "service.running"}
	var missing []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		missing = missing[:0]
		for _, want := range wants {
			if !strings.Contains(buf.String(), want) {
				missing = append(missing, want)
			}
		}
		if len(missing) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range missing {
		t.Errorf("timeline export missing %q", want)
	}
}

// TestDaemonGracefulShutdown is the drain contract: SIGTERM (modeled by
// Shutdown) lets the running job finish, marks still-queued jobs canceled
// in their lifecycle traces, and flushes the access log.
func TestDaemonGracefulShutdown(t *testing.T) {
	var logBuf bytes.Buffer
	logger := NewAccessLogger(&logBuf)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	d := testDaemon(t, func(ctx context.Context, spec JobSpec, run *Run) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}, func(cfg *DaemonConfig) {
		cfg.AccessLog = logger
	})
	d.Start()
	h := d.Handler()

	requests := 0
	for _, name := range []string{"first", "second", "third"} {
		if rw := postJob(t, h, map[string]any{"name": name, "circuit": "c", "threshold": 0.1}); rw.Code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", name, rw.Code)
		}
		requests++
	}
	<-started // the first job is inside the runner

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- d.Shutdown(context.Background()) }()

	// Draining: new submissions are refused with 503 (not logged as
	// accepted work), then the running job is released and must complete.
	deadline := time.Now().Add(5 * time.Second)
	for !d.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if rw := postJob(t, h, map[string]any{"name": "late", "circuit": "c", "threshold": 0.1}); rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", rw.Code)
	}
	requests++
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The running job finished; the queued jobs were canceled.
	first, _ := d.runs.Lookup("first")
	if first.JobTrace().State() != JobDone || first.State() != RunDone {
		t.Fatalf("running job: trace %s run %s, want done/done",
			first.JobTrace().State(), first.State())
	}
	for _, name := range []string{"second", "third"} {
		run, ok := d.runs.Lookup(name)
		if !ok {
			t.Fatalf("queued job %s vanished", name)
		}
		if got := run.JobTrace().State(); got != JobCanceled {
			t.Errorf("queued job %s trace = %s, want canceled", name, got)
		}
		if run.State() != RunCanceled {
			t.Errorf("queued job %s run state = %s, want canceled", name, run.State())
		}
	}
	if got := d.cfg.Registry.Counter("serve_jobs_canceled_total").Value(); got != 2 {
		t.Errorf("serve_jobs_canceled_total = %d, want 2", got)
	}

	// Shutdown flushed the access log: every request is on disk as JSONL.
	lines := bytes.Count(logBuf.Bytes(), []byte("\n"))
	if lines != requests {
		t.Errorf("flushed access-log lines = %d, want %d", lines, requests)
	}

	// After drain, further submissions fail fast.
	if _, err := d.Enqueue(JobSpec{Circuit: "c", Threshold: 0.1}); !errors.Is(err, ErrDraining) {
		t.Errorf("Enqueue after shutdown = %v, want ErrDraining", err)
	}
}

// TestDaemonShutdownDeadlineCancelsRunner: when the drain context expires
// the running job's context is canceled and the drain still completes.
func TestDaemonShutdownDeadlineCancelsRunner(t *testing.T) {
	d := testDaemon(t, func(ctx context.Context, spec JobSpec, run *Run) error {
		<-ctx.Done() // runs until the drain deadline cancels it
		return ctx.Err()
	}, nil)
	d.Start()
	if _, err := d.Enqueue(JobSpec{Name: "stuck", Circuit: "c", Threshold: 0.1}); err != nil {
		t.Fatal(err)
	}
	waitState(t, d, "stuck", JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	waitState(t, d, "stuck", JobFailed)
}

func TestDaemonTrimsTerminalRuns(t *testing.T) {
	d := testDaemon(t, func(context.Context, JobSpec, *Run) error { return nil }, func(cfg *DaemonConfig) {
		cfg.RunsMax = 3
	})
	d.Start()
	defer func() { _ = d.Shutdown(context.Background()) }()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t-%d", i)
		if _, err := d.Enqueue(JobSpec{Name: name, Circuit: "c", Threshold: 0.1}); err != nil {
			t.Fatal(err)
		}
		waitState(t, d, name, JobDone)
	}
	if got := len(d.runs.Names()); got > 3 {
		t.Fatalf("retained runs = %d, want <= 3", got)
	}
	// The newest run survives.
	if _, ok := d.runs.Lookup("t-7"); !ok {
		t.Fatalf("newest run was evicted")
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one alsd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// results holds the "run NAME done" lines alsd prints, by job name;
	// waiters the channels to close when a job's line arrives; lines is
	// closed when alsd's standard output ends.
	mu      sync.Mutex
	results map[string]jobResult
	waiters map[string]chan struct{}
	lines   chan struct{}
	stderr  bytes.Buffer
}

// jobResult is what alsd reports for a finished job.
type jobResult struct {
	area, origArea string // areas as alsd prints them (%.0f)
	iters          int
	err            string // final error as alsd prints it (%.5f)
}

var (
	listenLine = regexp.MustCompile(`^alsd: listening on (\S+)$`)
	doneLine   = regexp.MustCompile(`^alsd: run (\S+) done in \S+: area (\S+) -> (\S+) \(ratio \S+\), (\d+) substitutions, error (\S+)$`)
)

// startDaemon execs alsd on an ephemeral port with a queue for 4096 jobs
// and room for runsMax finished runs, and waits until /readyz answers
// 200. It returns the time from exec to ready.
func startDaemon(ctx context.Context, bin string, runsMax int) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d := &daemon{results: map[string]jobResult{}, waiters: map[string]chan struct{}{}, lines: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-queue-max", "4096", "-runs-max", strconv.Itoa(runsMax))
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("alsd stdout: %w", err)
	}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start alsd: %w", err)
	}
	addr := make(chan string, 1)
	go d.read(out, addr)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.lines:
		_, _ = d.stop()
		return nil, 0, fmt.Errorf("alsd exited before listening: %s", d.stderr.String())
	case <-time.After(30 * time.Second):
		_, _ = d.stop()
		return nil, 0, fmt.Errorf("alsd did not start listening")
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			_, _ = d.stop()
			return nil, 0, fmt.Errorf("alsd never became ready")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// read consumes alsd's standard output until it closes.
func (d *daemon) read(out io.Reader, addr chan<- string) {
	defer close(d.lines)
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if m := listenLine.FindStringSubmatch(line); m != nil {
			addr <- m[1]
			continue
		}
		if m := doneLine.FindStringSubmatch(line); m != nil {
			iters, _ := strconv.Atoi(m[4]) // the pattern admits digits only
			d.mu.Lock()
			d.results[m[1]] = jobResult{origArea: m[2], area: m[3], iters: iters, err: m[5]}
			if ch, ok := d.waiters[m[1]]; ok {
				close(ch)
				delete(d.waiters, m[1])
			}
			d.mu.Unlock()
		}
	}
}

// expect returns a channel that is closed when alsd reports job name
// done. Call it before submitting the job.
func (d *daemon) expect(name string) <-chan struct{} {
	ch := make(chan struct{})
	d.mu.Lock()
	d.waiters[name] = ch
	d.mu.Unlock()
	return ch
}

func (d *daemon) result(name string) (jobResult, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.results[name]
	return r, ok
}

// stop drains alsd with SIGTERM and waits for it and its output reader
// to finish. It returns the process's resource usage. alsd answers
// /readyz before it installs its SIGTERM handler, so a daemon stopped
// right after start-up may die of the signal instead of draining; with
// nothing queued that is a clean stop too.
func (d *daemon) stop() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Process.Kill()
	}
	err := d.cmd.Wait()
	<-d.lines
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		return ru, fmt.Errorf("alsd: %w: %s", err, d.stderr.String())
	}
	return ru, nil
}

// step is one constant-rate segment of an open-loop schedule.
type step struct {
	label   string // metric suffix, e.g. "r80"
	rate    float64
	dur     time.Duration
	measure bool // false for warm-up
}

// schedule returns the due offsets of every job, and the step of each.
func schedule(steps []step) (due []time.Duration, stepOf []int) {
	var t0 time.Duration
	for k, s := range steps {
		n := int(s.rate*s.dur.Seconds() + 0.5)
		for j := 0; j < n; j++ {
			due = append(due, t0+time.Duration(float64(j)/s.rate*float64(time.Second)))
			stepOf = append(stepOf, k)
		}
		t0 += s.dur
	}
	return due, stepOf
}

// sent records one submission.
type sent struct {
	name   string
	due    time.Time // when the job was due (wall clock)
	late   time.Duration
	rtt    time.Duration
	status int
	factor float64 // closed loop: the host factor around the job
}

// loadConns is the number of HTTP connections (and submitting
// goroutines) of the load generator: no more than the host's CPUs.
const loadConns = 2

// submitOpenLoop posts one job per due offset, each at its due time,
// regardless of how earlier jobs fare: an open loop, as independent users
// make. Two submitters share loadConns connections; a submitter that
// falls behind sends late, and the lateness is recorded.
func submitOpenLoop(ctx context.Context, client *http.Client, base string, due []time.Duration, spec func(i int) []byte, name func(i int) string) []sent {
	out := make([]sent, len(due))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				t := time.Now()
				status := post(ctx, client, base+"/jobs", spec(i))
				out[i] = sent{name: name(i), due: at, late: t.Sub(at), rtt: time.Since(t), status: status}
			}
		}()
	}
	wg.Wait()
	return out
}

// post sends body and returns the HTTP status (0 when the request failed).
func post(ctx context.Context, client *http.Client, url string, body []byte) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// jobTrace is the part of alsd's /jobs lifecycle document the benchmark
// reads.
type jobTrace struct {
	Name        string    `json:"name"`
	State       string    `json:"state"`
	ReceivedAt  time.Time `json:"received_at"`
	QueueWaitNS int64     `json:"queue_wait_ns"`
	RunNS       int64     `json:"run_ns"`
	E2ENS       int64     `json:"e2e_ns"`
}

// doneAt is when the server finished the job, on the server's clock.
func (t jobTrace) doneAt() time.Time { return t.ReceivedAt.Add(time.Duration(t.E2ENS)) }

// latency is the job's latency from its due time: a job sent late, or
// queued behind a stall, is charged the whole delay.
func latency(s sent, t jobTrace) time.Duration { return t.doneAt().Sub(s.due) }

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "shed", "canceled":
		return true
	}
	return false
}

// awaitJob polls one job's lifecycle every interval until it is terminal
// and returns it.
func awaitJob(ctx context.Context, client *http.Client, base, name string, interval time.Duration, deadline time.Time) (jobTrace, error) {
	for {
		var t jobTrace
		if err := getJSON(ctx, client, base+"/jobs/"+name, &t); err != nil {
			return t, err
		}
		if terminal(t.State) {
			return t, nil
		}
		if time.Now().After(deadline) {
			return t, fmt.Errorf("job %s still %s", name, t.State)
		}
		time.Sleep(interval)
	}
}

// drain waits until every named job is terminal and returns every job's
// lifecycle trace. The daemon runs jobs in the order they arrived, which
// two submitters can make differ from the order they were due in, so
// after the last job it waits for any earlier one still pending.
func drain(ctx context.Context, client *http.Client, base string, names []string) (map[string]jobTrace, error) {
	deadline := time.Now().Add(2 * time.Minute)
	pending := names[len(names)-1:]
	for {
		for _, name := range pending {
			if _, err := awaitJob(ctx, client, base, name, 20*time.Millisecond, deadline); err != nil {
				return nil, err
			}
		}
		var list []jobTrace
		if err := getJSON(ctx, client, base+"/jobs", &list); err != nil {
			return nil, err
		}
		traces := make(map[string]jobTrace, len(list))
		for _, t := range list {
			traces[t.Name] = t
		}
		pending = pending[:0]
		for _, name := range names {
			if !terminal(traces[name].State) {
				pending = append(pending, name)
			}
		}
		if len(pending) == 0 {
			return traces, nil
		}
	}
}

// serveOutcome is one run of load against alsd.
type serveOutcome struct {
	steps  []step
	sent   []sent
	stepOf []int
	traces map[string]jobTrace
	start  time.Time // due time of job 0 minus its offset
	rusage *syscall.Rusage
	failed int
}

// load puts jobs on a started daemon and returns what was sent and every
// accepted job's lifecycle trace.
type load func(d *daemon, client *http.Client) (*serveOutcome, error)

// serveRun starts alsd with room for runsMax finished runs, applies the
// load, stops the daemon, and counts every job that was not accepted or
// did not end done.
func serveRun(ctx context.Context, bin string, runsMax int, apply load) (*serveOutcome, *daemon, error) {
	d, _, err := startDaemon(ctx, bin, runsMax)
	if err != nil {
		return nil, nil, err
	}
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns},
	}
	defer client.CloseIdleConnections()
	o, err := apply(d, client)
	ru, stopErr := d.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, nil, err
	}
	o.rusage = ru
	for _, s := range o.sent {
		if s.status != http.StatusAccepted {
			o.failed++
			fmt.Fprintf(os.Stderr, "alsd: job %s answered %d, want 202\n", s.name, s.status)
		} else if t := o.traces[s.name]; t.State != "done" {
			o.failed++
			fmt.Fprintf(os.Stderr, "alsd: job %s ended %q, want done\n", s.name, t.State)
		}
	}
	return o, d, nil
}

// jobName is the name of job i.
func jobName(seed int64, i int) string { return fmt.Sprintf("b%d-%d", seed, i) }

// jobBody is the submission of job i.
func jobBody(seed int64, i int) []byte {
	b, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
		"name":      jobName(seed, i),
		"circuit":   "mul4",
		"threshold": serveJob.opts.Threshold,
		"m":         serveJob.opts.NumPatterns,
		"seed":      jobSeed(seed, i),
		"workers":   workers,
	})
	return b
}

// jobSeed is the pattern seed of job i.
func jobSeed(seed int64, i int) int64 { return 100_000*seed + int64(i) }

// openLoop submits the schedule open loop, waits for the backlog to
// drain and collects every job's lifecycle trace. The daemon must retain
// every run, since the traces are read after the drain.
func openLoop(ctx context.Context, seed int64, steps []step) load {
	return func(d *daemon, client *http.Client) (*serveOutcome, error) {
		o := &serveOutcome{steps: steps}
		due, stepOf := schedule(steps)
		o.stepOf = stepOf
		name := func(i int) string { return jobName(seed, i) }
		body := func(i int) []byte { return jobBody(seed, i) }
		o.sent = submitOpenLoop(ctx, client, d.base, due, body, name)
		if len(o.sent) > 0 {
			o.start = o.sent[0].due.Add(-due[0])
		}
		var accepted []string
		for _, s := range o.sent {
			if s.status == http.StatusAccepted {
				accepted = append(accepted, s.name)
			}
		}
		var err error
		if len(accepted) > 0 {
			o.traces, err = drain(ctx, client, d.base, accepted)
		}
		return o, err
	}
}

// closedLoop submits one job at a time for the window: each job is posted
// when alsd reports the previous one done, so no job waits behind another
// and a job's latency (from the POST to done, on the server's stamps) is
// what one job costs the daemon, HTTP included. It neither queues nor
// depends on the host keeping up with a rate, so a host a little slower
// reads a little slower, and the quick calibrations just before and just
// after each job (calib.go) scale that back to the reference speed. Jobs
// sent in the first warm of the window are the warm-up step.
func closedLoop(ctx context.Context, seed int64, window, warm time.Duration) load {
	return func(d *daemon, client *http.Client) (*serveOutcome, error) {
		o := &serveOutcome{
			steps:  []step{{label: "warm", dur: warm}, {label: "closed", dur: window - warm, measure: true}},
			traces: map[string]jobTrace{},
			start:  time.Now(),
		}
		for i := 0; time.Since(o.start) < window && ctx.Err() == nil; i++ {
			// The calibration before job i is also the one after job i-1.
			factor := quickFactor()
			if i > 0 {
				o.sent[i-1].factor = bracket(o.sent[i-1].factor, factor)
			}
			name := jobName(seed, i)
			done := d.expect(name)
			t := time.Now()
			status := post(ctx, client, d.base+"/jobs", jobBody(seed, i))
			o.sent = append(o.sent, sent{name: name, due: t, rtt: time.Since(t), status: status, factor: factor})
			o.stepOf = append(o.stepOf, min(int(t.Sub(o.start)/warm), 1))
			if status != http.StatusAccepted {
				continue
			}
			select {
			case <-done:
			case <-d.lines:
				return o, fmt.Errorf("alsd exited while job %s ran", name)
			case <-time.After(30 * time.Second):
				// A failed job prints no done line; its trace tells.
			}
			// alsd prints the line just before the job's trace turns done.
			tr, err := awaitJob(ctx, client, d.base, name, 100*time.Microsecond, time.Now().Add(30*time.Second))
			if err != nil {
				return o, err
			}
			o.traces[name] = tr
		}
		if n := len(o.sent); n > 0 {
			o.sent[n-1].factor = bracket(o.sent[n-1].factor, quickFactor())
		}
		return o, nil
	}
}

// closedMetrics reports the median latency of the closed loop's measured
// jobs at the reference speed, and the daemon's memory.
func (o *serveOutcome) closedMetrics(m map[string]float64) {
	var lat, scaled, factor []float64
	for i, s := range o.sent {
		if tr, ok := o.traces[s.name]; ok && tr.State == "done" && o.steps[o.stepOf[i]].measure {
			lat = append(lat, ms(latency(s, tr)))
			scaled = append(scaled, ms(latency(s, tr))*s.factor)
			factor = append(factor, s.factor)
		}
	}
	m["latency_p50_ms"] = percentile(scaled, 50)
	o.memory(m)
	fmt.Printf("# alsd closed loop: %d jobs, latency p50 %.2f ms at reference speed, tail %s; measured p50 %.2f ms, host factor %.3f; peak RSS %.1f MB\n",
		len(scaled), m["latency_p50_ms"], tail(scaled), percentile(lat, 50), percentile(factor, 50), m["peak_rss_mb"])
}

// memory reports the daemon's CPU per job and its peak RSS.
func (o *serveOutcome) memory(m map[string]float64) {
	if o.rusage == nil {
		return
	}
	cpu := time.Duration(o.rusage.Utime.Nano() + o.rusage.Stime.Nano())
	m["serve.cpu_ms_per_job"] = ratio(ms(cpu), float64(len(o.traces)))
	m["peak_rss_mb"] = float64(o.rusage.Maxrss) / 1024
}

// serveMetrics derives the service metrics of an outcome: latency from
// due time per step, submission round trips, server-side queue wait and
// run time, the backlog left when the 80 jobs/s step ends, generator
// lateness, CPU per job, and the completion rate while the overload step
// keeps a backlog.
func (o *serveOutcome) serveMetrics(m map[string]float64) {
	lat := map[string][]float64{}
	var rtt, qwait, run, late []float64
	stepEnd := make([]time.Time, len(o.steps))
	t := o.start
	for k, s := range o.steps {
		t = t.Add(s.dur)
		stepEnd[k] = t
	}
	backlog80 := 0
	r80 := stepIndex(o.steps, "r80")
	var done []time.Time
	for i, s := range o.sent {
		st := o.steps[o.stepOf[i]]
		tr, ok := o.traces[s.name]
		if !st.measure || !ok || tr.State != "done" {
			continue
		}
		lat[st.label] = append(lat[st.label], ms(latency(s, tr)))
		rtt = append(rtt, ms(s.rtt))
		qwait = append(qwait, float64(tr.QueueWaitNS)/1e6)
		run = append(run, float64(tr.RunNS)/1e6)
		late = append(late, ms(s.late))
		done = append(done, tr.doneAt())
		if r80 >= 0 && o.stepOf[i] <= r80 && tr.doneAt().After(stepEnd[r80]) {
			backlog80++
		}
	}
	m["serve.job_p50_ms.r30"] = percentile(lat["r30"], 50)
	m["serve.job_p50_ms.r80"] = percentile(lat["r80"], 50)
	m["serve.job_p95_ms.r80"] = percentile(lat["r80"], 95)
	m["serve.submit_p50_ms"] = percentile(rtt, 50)
	m["serve.submit_p95_ms"] = percentile(rtt, 95)
	m["serve.queue_wait_p50_ms"] = percentile(qwait, 50)
	m["serve.queue_wait_p95_ms"] = percentile(qwait, 95)
	m["serve.run_p50_ms"] = percentile(run, 50)
	m["serve.run_p95_ms"] = percentile(run, 95)
	m["serve.backlog_end.r80"] = float64(backlog80)
	m["loadgen.late_p95_ms"] = percentile(late, 95)
	o.memory(m)
	if k := stepIndex(o.steps, "over"); k >= 0 {
		m["serve.max_jobs_s"] = capacity(done, stepEnd[k].Add(-o.steps[k].dur*3/4))
	}
	for _, s := range o.steps {
		if xs := lat[s.label]; len(xs) > 0 {
			fmt.Printf("# alsd %s: %d jobs, latency p50 %.2f ms, tail %s\n", s.label, len(xs), percentile(xs, 50), tail(xs))
		}
	}
	fmt.Printf("# alsd: run p50 %.2f ms, cpu %.2f ms/job, capacity %.1f jobs/s\n",
		m["serve.run_p50_ms"], m["serve.cpu_ms_per_job"], m["serve.max_jobs_s"])
}

// capacity is the completion rate from `from` to the last completion:
// with the overload step offering more than the daemon serves, the queue
// stays non-empty until the drain ends, so this is the highest rate the
// daemon sustains.
func capacity(done []time.Time, from time.Time) float64 {
	var last time.Time
	n := 0
	for _, t := range done {
		if t.After(from) {
			n++
			if t.After(last) {
				last = t
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / last.Sub(from).Seconds()
}

func stepIndex(steps []step, label string) int {
	for k, s := range steps {
		if s.label == label {
			return k
		}
	}
	return -1
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tail describes the highest percentile a sample supports.
func tail(xs []float64) string {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return "none (n < 20)"
	}
	return fmt.Sprintf("p%g %.2f ms", p, percentile(xs, p))
}

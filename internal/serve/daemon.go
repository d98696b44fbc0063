package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batchals/internal/bench"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
)

// JobSpec is the wire format of one queued synthesis job (POST /jobs).
type JobSpec struct {
	Name          string  `json:"name,omitempty"` // run name (default job-N)
	Circuit       string  `json:"circuit"`        // benchmark name or file path
	Metric        string  `json:"metric,omitempty"`
	Threshold     float64 `json:"threshold"`
	Estimator     string  `json:"estimator,omitempty"`
	Patterns      int     `json:"m,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	VerifyTopK    int     `json:"verify,omitempty"`
	MaxIterations int     `json:"max_iters,omitempty"` // accept cap; with "partition", per part
	// Timeline attaches a causal span recorder to the job, so
	// /timeline?run=NAME exports the service lane (queue wait) next to the
	// flow's synthesis phases. Off by default: a recorder costs memory per
	// job, which a load test multiplies by thousands.
	Timeline bool `json:"timeline,omitempty"`
	// Partition, when non-nil, routes the job through the partitioned
	// flow (ER metric only).
	Partition *PartitionSpec `json:"partition,omitempty"`
}

// PartitionSpec is the wire form of the partitioned-flow knobs; zero
// fields select the library defaults.
type PartitionSpec struct {
	Cells  int    `json:"cells"`             // target gates per part (required, positive)
	MaxCut int    `json:"max_cut,omitempty"` // advisory cut-width bound
	Policy string `json:"policy,omitempty"`  // "observability" (default) or "uniform"
	Rounds int    `json:"rounds,omitempty"`  // budget reclaim rounds
}

// SpecError is the typed 4xx error body of a rejected job submission:
// which field was wrong, what value it carried, and why. It reaches the
// client as {"error": ..., "field": ..., "value": ...}.
type SpecError struct {
	Field string `json:"field"`
	Value string `json:"value,omitempty"`
	Msg   string `json:"error"`
}

// Error implements error.
func (e *SpecError) Error() string {
	if e.Value != "" {
		return fmt.Sprintf("job spec: %s %q: %s", e.Field, e.Value, e.Msg)
	}
	return fmt.Sprintf("job spec: %s: %s", e.Field, e.Msg)
}

// Submission failure sentinels, mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull means the bounded queue shed the job (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the daemon is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: daemon draining")
	// ErrDuplicateName means a run by that name already exists (HTTP 409).
	ErrDuplicateName = errors.New("serve: duplicate job name")
)

// knownMetrics and knownEstimators are the spec vocabulary the wire
// protocol accepts; the empty string selects the default.
var (
	knownMetrics           = map[string]bool{"": true, "er": true, "aem": true}
	knownEstimators        = map[string]bool{"": true, "batch": true, "full": true, "local": true}
	knownPartitionPolicies = map[string]bool{"": true, "observability": true, "uniform": true}
)

// CheckCircuitExists is the default circuit validator: benchmark names
// must be registered, file paths (anything with a '/' or '.') must exist.
func CheckCircuitExists(circuit string) error {
	if strings.ContainsAny(circuit, "/.") {
		if _, err := os.Stat(circuit); err != nil {
			return err
		}
		return nil
	}
	_, err := bench.ByName(circuit)
	return err
}

// ValidateSpec rejects specs that would fail inside the run: unknown
// circuit, metric or estimator, and non-positive or non-finite
// thresholds. Validation happens at enqueue time so the client gets a
// 400 with a typed body instead of a queued job that dies later.
func (d *Daemon) ValidateSpec(spec JobSpec) *SpecError {
	if spec.Circuit == "" {
		return &SpecError{Field: "circuit", Msg: "required"}
	}
	if err := d.cfg.CheckCircuit(spec.Circuit); err != nil {
		return &SpecError{Field: "circuit", Value: spec.Circuit, Msg: "unknown circuit: " + err.Error()}
	}
	if m := strings.ToLower(spec.Metric); !knownMetrics[m] {
		return &SpecError{Field: "metric", Value: spec.Metric, Msg: `unknown metric (want "er" or "aem")`}
	}
	if e := strings.ToLower(spec.Estimator); !knownEstimators[e] {
		return &SpecError{Field: "estimator", Value: spec.Estimator, Msg: `unknown estimator (want "batch", "full" or "local")`}
	}
	if !(spec.Threshold > 0) { // catches 0, negatives and NaN in one test
		return &SpecError{Field: "threshold", Value: fmt.Sprint(spec.Threshold), Msg: "must be positive"}
	}
	if spec.Patterns < 0 {
		return &SpecError{Field: "m", Value: strconv.Itoa(spec.Patterns), Msg: "must be non-negative"}
	}
	if spec.Workers < 0 {
		return &SpecError{Field: "workers", Value: strconv.Itoa(spec.Workers), Msg: "must be non-negative"}
	}
	if p := spec.Partition; p != nil {
		if strings.ToLower(spec.Metric) == "aem" {
			return &SpecError{Field: "partition", Value: "aem", Msg: "partitioned runs support the er metric only"}
		}
		if p.Cells <= 0 {
			return &SpecError{Field: "partition.cells", Value: strconv.Itoa(p.Cells), Msg: "must be positive"}
		}
		if p.MaxCut < 0 {
			return &SpecError{Field: "partition.max_cut", Value: strconv.Itoa(p.MaxCut), Msg: "must be non-negative"}
		}
		if p.Rounds < 0 {
			return &SpecError{Field: "partition.rounds", Value: strconv.Itoa(p.Rounds), Msg: "must be non-negative"}
		}
		if pol := strings.ToLower(p.Policy); !knownPartitionPolicies[pol] {
			return &SpecError{Field: "partition.policy", Value: p.Policy, Msg: `unknown policy (want "observability" or "uniform")`}
		}
	}
	return nil
}

// Runner executes one admitted job against its run's sinks (registry,
// tracer, timeline). cmd/alsd supplies the batchals synthesis runner;
// tests stub it. The ctx is canceled only when a drain deadline forces
// the running job to abort.
type Runner func(ctx context.Context, spec JobSpec, run *Run) error

// DaemonConfig configures a Daemon. The zero value is usable with a
// Runner set.
type DaemonConfig struct {
	// QueueMax bounds the job queue; a submission beyond it is shed with
	// HTTP 429 + Retry-After. Default 64.
	QueueMax int
	// RunsMax bounds the run registry: oldest terminal runs are evicted
	// beyond it. Default 512; 0 keeps the default, negative disables.
	RunsMax int
	// Registry collects the daemon's service metrics (queue depth,
	// in-flight, shed, latency histograms). Default obs.Default().
	Registry *obs.Registry
	// AccessLog, when non-nil, logs every HTTP request as JSONL.
	AccessLog *AccessLogger
	// Runner executes admitted jobs. Required.
	Runner Runner
	// CheckCircuit validates a spec's circuit at enqueue time.
	// Default CheckCircuitExists.
	CheckCircuit func(string) error
	// TimelineLaneCap sizes per-job timeline recorders (spans per lane).
	// Default 4096.
	TimelineLaneCap int
}

// Daemon is the job-queue service behind cmd/alsd: a bounded queue of
// synthesis jobs executed sequentially, each with a JobTrace lifecycle
// record, latency histograms (queue-wait, run-wall, end-to-end), queue
// gauges, structured access logs, and the full Server observability
// surface mounted under the same handler.
type Daemon struct {
	cfg  DaemonConfig
	runs *RunRegistry
	srv  *Server
	mux  *http.ServeMux

	mu       sync.Mutex // guards queue sends vs draining flip
	queue    chan *queuedJob
	draining atomic.Bool
	drainCh  chan struct{}
	wg       sync.WaitGroup
	seq      atomic.Int64
	runCtx   context.Context
	runStop  context.CancelFunc

	received *obs.Counter
	done     *obs.Counter
	failed   *obs.Counter
	canceled *obs.Counter
	shed     *obs.Counter
	depth    *obs.Gauge
	inflight *obs.Gauge
	hQueue   *obs.Histogram
	hRun     *obs.Histogram
	hE2E     *obs.Histogram
}

// queuedJob is one queue entry: the spec plus the run and trace that were
// registered at submission time (so observers can attach before the job
// starts).
type queuedJob struct {
	spec  JobSpec
	run   *Run
	trace *JobTrace
}

// NewDaemon builds a daemon over a fresh run registry and Server. Call
// Start to begin executing jobs and Shutdown to drain.
func NewDaemon(cfg DaemonConfig) *Daemon {
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = 64
	}
	if cfg.RunsMax == 0 {
		cfg.RunsMax = 512
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.CheckCircuit == nil {
		cfg.CheckCircuit = CheckCircuitExists
	}
	if cfg.TimelineLaneCap <= 0 {
		cfg.TimelineLaneCap = 4096
	}
	d := &Daemon{
		cfg:     cfg,
		runs:    NewRunRegistry(),
		queue:   make(chan *queuedJob, cfg.QueueMax),
		drainCh: make(chan struct{}),
	}
	d.runCtx, d.runStop = context.WithCancel(context.Background())
	d.srv = New(d.runs)
	d.srv.Process = cfg.Registry
	reg := cfg.Registry
	d.received = reg.Counter("serve_jobs_received_total")
	d.done = reg.Counter("serve_jobs_done_total")
	d.failed = reg.Counter("serve_jobs_failed_total")
	d.canceled = reg.Counter("serve_jobs_canceled_total")
	d.shed = reg.Counter("serve_jobs_shed_total")
	d.depth = reg.Gauge("serve_queue_depth")
	d.inflight = reg.Gauge("serve_jobs_inflight")
	d.hQueue = reg.Histogram("serve_job_queue_wait_ns", obs.LatencyBounds)
	d.hRun = reg.Histogram("serve_job_run_ns", obs.LatencyBounds)
	d.hE2E = reg.Histogram("serve_job_e2e_ns", obs.LatencyBounds)
	cfg.AccessLog.CountIn(reg, "serve_access_log_entries_total")

	mux := http.NewServeMux()
	mux.Handle("/", d.srv.Handler())
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleJobList)
	mux.HandleFunc("GET /jobs/{name}", d.handleJobTrace)
	d.mux = mux
	return d
}

// Server exposes the underlying observability server (readiness probe,
// SSE heartbeat tuning).
func (d *Daemon) Server() *Server { return d.srv }

// Runs exposes the daemon's run registry.
func (d *Daemon) Runs() *RunRegistry { return d.runs }

// Handler returns the daemon's full HTTP surface — the Server endpoints
// plus the job API — wrapped in the access-log middleware (a no-op
// pass-through when no logger is configured).
func (d *Daemon) Handler() http.Handler { return d.cfg.AccessLog.Wrap(d.mux) }

// Start launches the job worker. The daemon executes jobs sequentially,
// like the single synthesis lane it fronts; the queue provides the
// elasticity.
func (d *Daemon) Start() {
	d.wg.Add(1)
	go d.worker()
}

// Enqueue validates and queues a job, returning its run name. The run
// (and its lifecycle trace) is registered before Enqueue returns, so a
// client can subscribe to /events?run=NAME or poll /jobs/NAME
// immediately. Returns *SpecError for invalid specs, ErrDuplicateName,
// ErrQueueFull (the job is registered in the shed state) or ErrDraining.
func (d *Daemon) Enqueue(spec JobSpec) (string, error) {
	if d.draining.Load() {
		return "", ErrDraining
	}
	if specErr := d.ValidateSpec(spec); specErr != nil {
		return "", specErr
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("job-%d", d.seq.Add(1))
	}
	if existing, exists := d.runs.Lookup(spec.Name); exists {
		// A shed job never ran; the client was told to retry, so a
		// resubmission under the same name replaces the shed record.
		if existing.State() != RunShed || !d.runs.Evict(spec.Name) {
			return spec.Name, ErrDuplicateName
		}
	}
	d.received.Inc()
	run := d.runs.Get(spec.Name)
	trace := NewJobTrace(spec.Name)
	run.SetJobTrace(trace)
	if spec.Timeline {
		lanes := spec.Workers + 2 // driver lane + one per worker (0 => NumCPU-sized default)
		if spec.Workers <= 0 {
			lanes = 0
		}
		run.SetTimeline(timeline.NewRecorder(lanes, d.cfg.TimelineLaneCap))
	}

	d.mu.Lock()
	if d.draining.Load() {
		d.mu.Unlock()
		trace.To(JobCanceled)
		run.SetState(RunCanceled, "daemon draining")
		return spec.Name, ErrDraining
	}
	// The queued stamp lands before the channel send: the worker may
	// dequeue (and stamp admitted) the instant the send completes.
	trace.To(JobQueued)
	select {
	case d.queue <- &queuedJob{spec: spec, run: run, trace: trace}:
		d.mu.Unlock()
		d.depth.Set(float64(len(d.queue)))
		return spec.Name, nil
	default:
		d.mu.Unlock()
		trace.To(JobShed)
		run.SetState(RunShed, "queue full")
		d.shed.Inc()
		d.runs.Trim(d.cfg.RunsMax)
		return spec.Name, ErrQueueFull
	}
}

// RetryAfter estimates how long a shed client should back off: the
// median run wall time times the queue depth, clamped to [1s, 60s]. With
// no completed jobs yet it answers 1s.
func (d *Daemon) RetryAfter() time.Duration {
	p50 := d.hRun.Snapshot().P50
	est := time.Duration(p50 * float64(len(d.queue)+1))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est.Round(time.Second)
}

// worker executes queued jobs until Shutdown drains the queue. The
// running job always completes (unless the drain deadline cancels its
// context); jobs still queued at drain time are marked canceled.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		if d.draining.Load() {
			d.cancelQueued()
			return
		}
		select {
		case j := <-d.queue:
			// Re-check: when the drain raced the dequeue, this job was
			// still queued at shutdown time and must not start.
			if d.draining.Load() {
				j.trace.To(JobCanceled)
				j.run.SetState(RunCanceled, "daemon shutdown")
				d.canceled.Inc()
				continue
			}
			d.process(j)
		case <-d.drainCh:
		}
	}
}

// cancelQueued marks every remaining queued job canceled.
func (d *Daemon) cancelQueued() {
	for {
		select {
		case j := <-d.queue:
			j.trace.To(JobCanceled)
			j.run.SetState(RunCanceled, "daemon shutdown")
			d.canceled.Inc()
		default:
			d.depth.Set(0)
			return
		}
	}
}

// process runs one job end to end: lifecycle transitions, the runner,
// latency observations, and the service-lane timeline bridge.
func (d *Daemon) process(j *queuedJob) {
	d.depth.Set(float64(len(d.queue)))
	j.trace.To(JobAdmitted)
	d.inflight.Set(1)
	j.run.SetState(RunActive, "")
	defer j.run.Flight.DumpOnPanic(os.Stderr)
	j.trace.To(JobRunning)
	err := d.cfg.Runner(d.runCtx, j.spec, j.run)
	if err != nil {
		j.trace.Fail(err.Error())
		j.run.SetState(RunFailed, err.Error())
		d.failed.Inc()
	} else {
		j.trace.To(JobDone)
		j.run.SetState(RunDone, "")
		d.done.Inc()
	}
	if w, ok := j.trace.QueueWait(); ok {
		d.hQueue.Observe(float64(w.Nanoseconds()))
	}
	if w, ok := j.trace.RunWall(); ok {
		d.hRun.Observe(float64(w.Nanoseconds()))
	}
	if w, ok := j.trace.E2E(); ok {
		d.hE2E.Observe(float64(w.Nanoseconds()))
	}
	j.trace.EmitService(j.run.Timeline())
	d.inflight.Set(0)
	d.runs.Trim(d.cfg.RunsMax)
}

// Shutdown drains the daemon: new submissions are refused, the running
// job finishes, queued jobs are marked canceled, and the access log is
// flushed. If ctx expires before the running job completes, its context
// is canceled and the drain waits for it to unwind.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	already := d.draining.Swap(true)
	d.mu.Unlock()
	if !already {
		close(d.drainCh)
	}
	d.srv.SetReady(false)

	waited := make(chan struct{})
	go func() { d.wg.Wait(); close(waited) }()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = ctx.Err()
		d.runStop() // cancel the running job's flow and wait for unwind
		<-waited
	}
	if flushErr := d.cfg.AccessLog.Flush(); err == nil {
		err = flushErr
	}
	return err
}

// writeJSONStatus writes v as JSON with the given status code.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSubmit is POST /jobs: decode, validate, enqueue, and answer 202
// with the run name — or a typed error body with the precise status: 400
// invalid spec, 409 duplicate name, 429 shed (with Retry-After), 503
// draining.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSONStatus(w, http.StatusBadRequest,
			&SpecError{Field: "body", Msg: "bad job spec: " + err.Error()})
		return
	}
	name, err := d.Enqueue(spec)
	var specErr *SpecError
	switch {
	case err == nil:
		writeJSONStatus(w, http.StatusAccepted, map[string]string{"run": name, "state": "queued"})
	case errors.As(err, &specErr):
		writeJSONStatus(w, http.StatusBadRequest, specErr)
	case errors.Is(err, ErrDuplicateName):
		writeJSONStatus(w, http.StatusConflict,
			&SpecError{Field: "name", Value: name, Msg: "a run by this name already exists"})
	case errors.Is(err, ErrQueueFull):
		retry := d.RetryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		writeJSONStatus(w, http.StatusTooManyRequests, map[string]any{
			"error":         "job queue full",
			"run":           name,
			"retry_after_s": int(retry.Seconds()),
		})
	case errors.Is(err, ErrDraining):
		writeJSONStatus(w, http.StatusServiceUnavailable,
			map[string]string{"error": "daemon is shutting down"})
	default:
		writeJSONStatus(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// handleJobTrace is GET /jobs/{name}: the job's lifecycle trace.
func (d *Daemon) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	run, ok := d.runs.Lookup(name)
	if !ok || run.JobTrace() == nil {
		writeJSONStatus(w, http.StatusNotFound,
			map[string]string{"error": "unknown job " + name})
		return
	}
	writeJSON(w, run.JobTrace().Snapshot())
}

// handleJobList is GET /jobs: every retained job's lifecycle trace, in
// submission order.
func (d *Daemon) handleJobList(w http.ResponseWriter, r *http.Request) {
	names := d.runs.Names()
	out := make([]JobTraceSnapshot, 0, len(names))
	for _, name := range names {
		if run, ok := d.runs.Lookup(name); ok {
			if t := run.JobTrace(); t != nil {
				out = append(out, t.Snapshot())
			}
		}
	}
	writeJSON(w, out)
}

// Package par provides the pattern-sharded parallel execution engine of
// the batch estimator: a reusable worker pool plus a word-aligned sharding
// of the M-pattern Monte Carlo axis.
//
// The design contract, relied on by internal/sim, internal/core and
// internal/sasimi, is *bit-identical determinism*: a computation sharded
// across any number of workers, one included, must produce exactly the
// result of its sequential reference (sim.Simulate, core.Build, the
// DeltaER/DeltaAEM queries, core.ExactDelta). The pool guarantees the
// scheduling half of that contract — every task writes only to slots
// owned by its task index, and Do establishes a happens-before edge
// between all task bodies and its return — while Shards guarantees the
// data half: shards are contiguous, word-aligned, non-overlapping ranges
// of the pattern space, so concurrent writers touch disjoint uint64 words
// and per-shard partial results can be combined in fixed shard order. See
// DESIGN.md §10 for the full determinism argument.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
)

// Always-on substrate counters on the default metrics registry, matching
// the pre-resolved-atomics idiom of internal/sim and internal/core.
var (
	statPoolRuns  = obs.Default().Counter("par_pool_runs_total")
	statPoolTasks = obs.Default().Counter("par_pool_tasks_total")
)

// maxWorkerCounters bounds the per-worker labelled counter series so a
// pathological Workers value cannot flood the registry with label
// cardinality.
const maxWorkerCounters = 64

// Pool is a reusable fixed-size worker pool. Workers are started once at
// construction and fed task batches through Do; a pool with one worker
// (or a nil pool) runs each batch inline on the calling goroutine, so the
// sharded kernels run there as one shard.
//
// A Pool is driven from one goroutine at a time: Do blocks until the
// whole batch completes, and concurrent Do calls are not supported.
type Pool struct {
	workers int
	tasks   chan task
	wg      sync.WaitGroup // worker goroutines, for Close

	// busyNS and wallNS feed the parallel_speedup gauge: busy is the sum
	// of task execution times across workers, wall the sum of Do call
	// durations. busy/wall is the realised speedup of the pooled sections.
	busyNS atomic.Int64
	wallNS atomic.Int64

	// Per-worker shard counters, pre-resolved on the default registry at
	// construction so each task completion costs two atomic adds.
	workerTasks []*obs.Counter
	workerBusy  []*obs.Counter

	// Live telemetry, per pool (the registry counters above are shared by
	// name across pools). inflight counts tasks currently executing;
	// perBusyNS / lastTaskNS feed the SampleInto utilization gauges and are
	// capped at maxWorkerCounters entries to bound label cardinality.
	inflight   atomic.Int64
	perBusyNS  []atomic.Int64
	lastTaskNS []atomic.Int64

	// Timeline recording (AttachTimeline). All fields below are touched
	// only when rec is non-nil, so the nil-recorder dispatch path keeps
	// its zero-allocation guarantee (one pointer test per dispatch/task).
	//
	// tlT0..tlShard are per-worker per-dispatch scratch: reset by the
	// dispatching goroutine before any task is enqueued, written by worker
	// w at index w while its tasks run, and read by the dispatcher after
	// the batch barrier. The channel send (reset→task) and WaitGroup.Wait
	// (task→read) edges make the plain slices race-free.
	rec         *timeline.Recorder
	pprofLabels bool
	labelName   string
	labelPhase  obs.Phase
	tlT0        []int64
	tlT1        []int64
	tlBusy      []int64
	tlTasks     []int32
	tlShard     []int32
}

type task struct {
	fn   func(worker, task int)
	idx  int
	done *sync.WaitGroup
	// labels, when non-nil, carries the dispatch's pprof label set
	// (als_dispatch / als_phase); workers apply it to their goroutine so
	// CPU profiles attribute samples to the dispatch site.
	labels context.Context
}

// NewPool returns a pool with the given number of workers. workers <= 0
// selects runtime.NumCPU(). A one-worker pool starts no goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{workers: workers}
	nc := workers
	if nc > maxWorkerCounters {
		nc = maxWorkerCounters
	}
	p.workerTasks = obs.PerWorkerCounters(obs.Default(), "par_worker_tasks_total", nc)
	p.workerBusy = obs.PerWorkerCounters(obs.Default(), "par_worker_busy_ns_total", nc)
	p.perBusyNS = make([]atomic.Int64, nc)
	p.lastTaskNS = make([]atomic.Int64, nc)
	if workers == 1 {
		return p
	}
	p.tasks = make(chan task, workers)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

func (p *Pool) worker(w int) {
	defer p.wg.Done()
	var curLabels context.Context
	for t := range p.tasks {
		if t.labels != nil && t.labels != curLabels {
			pprof.SetGoroutineLabels(t.labels)
			curLabels = t.labels
		}
		p.inflight.Add(1)
		start := time.Now()
		t.fn(w, t.idx)
		p.finishTask(w, start, time.Since(start), t.idx)
		t.done.Done()
	}
}

func (p *Pool) finishTask(w int, start time.Time, d time.Duration, idx int) {
	p.busyNS.Add(int64(d))
	p.inflight.Add(-1)
	statPoolTasks.Inc()
	if w < len(p.workerTasks) {
		p.workerTasks[w].Inc()
		p.workerBusy[w].Add(int64(d))
	}
	if w < len(p.perBusyNS) {
		p.perBusyNS[w].Add(int64(d))
		p.lastTaskNS[w].Store(int64(d))
	}
	if p.rec != nil && w < len(p.tlTasks) {
		// Fold this task into worker w's per-dispatch window. Writing
		// before done.Done() keeps the dispatcher's post-Wait read ordered
		// after every task's update.
		t0 := p.rec.Rel(start)
		if p.tlTasks[w] == 0 {
			p.tlT0[w] = t0
			p.tlShard[w] = int32(idx)
		} else {
			p.tlShard[w] = -1
		}
		p.tlT1[w] = t0 + int64(d)
		p.tlBusy[w] += int64(d)
		p.tlTasks[w]++
	}
}

// AttachTimeline wires a span recorder into the pool: every subsequent
// Do/DoCtx dispatch emits one driver-lane dispatch span plus one span per
// participating worker (busy/idle/barrier-wait attributable per worker).
// When pprofLabels is set, worker goroutines additionally carry
// als_dispatch/als_phase pprof labels for the duration of each dispatch,
// so CPU profiles attribute samples to dispatch sites.
//
// A nil rec detaches. AttachTimeline must not be called concurrently
// with Do/DoCtx.
func (p *Pool) AttachTimeline(rec *timeline.Recorder, pprofLabels bool) {
	if p == nil {
		return
	}
	p.rec = rec
	p.pprofLabels = pprofLabels && rec != nil
	if rec != nil && p.tlT0 == nil {
		n := p.workers
		p.tlT0 = make([]int64, n)
		p.tlT1 = make([]int64, n)
		p.tlBusy = make([]int64, n)
		p.tlTasks = make([]int32, n)
		p.tlShard = make([]int32, n)
	}
	if p.labelName == "" {
		p.labelName = "par.do"
		p.labelPhase = obs.NumPhases // "unknown" until a call site labels
	}
}

// Timeline returns the attached recorder (nil when detached or p is nil).
func (p *Pool) Timeline() *timeline.Recorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Label names subsequent dispatches for the timeline (sticky until the
// next call). Call sites label just before their Do/DoCtx; the no-op on
// an unattached pool keeps the hot path free of recording cost.
func (p *Pool) Label(name string, phase obs.Phase) {
	if p == nil || p.rec == nil {
		return
	}
	p.labelName = name
	p.labelPhase = phase
}

// beginDispatch resets the per-worker scratch and opens the dispatch
// window. The bool reports whether recording is active for this dispatch.
func (p *Pool) beginDispatch() (int64, bool) {
	if p == nil || p.rec == nil {
		return 0, false
	}
	for w := range p.tlTasks {
		p.tlTasks[w] = 0
		p.tlBusy[w] = 0
	}
	return p.rec.Now(), true
}

// endDispatch emits the dispatch span and the per-worker spans gathered
// since beginDispatch. Runs on the dispatching goroutine after the batch
// barrier, so it is the single writer of every lane it touches.
func (p *Pool) endDispatch(t0 int64, n int) {
	rec := p.rec
	t1 := rec.Now()
	iter := rec.Iter()
	var busy int64
	for w := range p.tlBusy {
		busy += p.tlBusy[w]
	}
	id := rec.Emit(0, timeline.Span{
		Name:   p.labelName,
		Phase:  p.labelPhase,
		Worker: -1,
		Shard:  -1,
		Iter:   iter,
		T0:     t0,
		T1:     t1,
		Busy:   busy,
		Tasks:  int32(n),
	})
	for w := range p.tlTasks {
		if p.tlTasks[w] == 0 {
			continue
		}
		rec.Emit(w+1, timeline.Span{
			Parent: id,
			Name:   p.labelName,
			Phase:  p.labelPhase,
			Worker: int32(w),
			Shard:  p.tlShard[w],
			Iter:   iter,
			T0:     p.tlT0[w],
			T1:     p.tlT1[w],
			Busy:   p.tlBusy[w],
			Tasks:  p.tlTasks[w],
		})
	}
}

// dispatchLabels builds the pprof label context for one dispatch, derived
// from base (the caller's ctx in DoCtx, Background in Do).
func (p *Pool) dispatchLabels(base context.Context) context.Context {
	if !p.pprofLabels {
		return nil
	}
	return pprof.WithLabels(base, pprof.Labels(
		"als_dispatch", p.labelName,
		"als_phase", p.labelPhase.String(),
	))
}

// Workers returns the pool's worker count; a nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Do runs fn(worker, i) for every i in [0, n) and returns when all calls
// have completed. Task bodies run concurrently across the pool's workers;
// all their writes happen-before Do returns. Each task must confine its
// writes to state owned by its task index — the pool makes no ordering
// promises between tasks of one batch.
//
// On a nil or single-worker pool, Do runs the tasks inline in index
// order on the calling goroutine.
func (p *Pool) Do(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers == 1 || n == 1 {
		dispT0, tl := p.beginDispatch()
		start := time.Now()
		for i := 0; i < n; i++ {
			if p != nil {
				p.inflight.Add(1)
			}
			ts := time.Now()
			fn(0, i)
			if p != nil {
				p.finishTask(0, ts, time.Since(ts), i)
			}
		}
		if p != nil {
			p.wallNS.Add(int64(time.Since(start)))
			statPoolRuns.Inc()
			if tl {
				p.endDispatch(dispT0, n)
			}
		}
		return
	}
	dispT0, tl := p.beginDispatch()
	var labels context.Context
	if tl {
		labels = p.dispatchLabels(context.Background())
	}
	start := time.Now()
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- task{fn: fn, idx: i, done: &done, labels: labels}
	}
	done.Wait()
	p.wallNS.Add(int64(time.Since(start)))
	statPoolRuns.Inc()
	if tl {
		p.endDispatch(dispT0, n)
	}
}

// DoCtx is Do with cooperative cancellation: it stops dispatching new
// tasks once ctx is cancelled and returns ctx.Err() (nil if the whole
// batch ran). Tasks already handed to workers run to completion — DoCtx
// waits for them, so the happens-before guarantee of Do still holds for
// every task that executed. The result state may therefore be partially
// written on a non-nil return; callers are expected to abandon it.
//
// On a nil or single-worker pool, cancellation is checked before each
// inline task.
func (p *Pool) DoCtx(ctx context.Context, n int, fn func(worker, task int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p == nil || p.workers == 1 || n == 1 {
		dispT0, tl := p.beginDispatch()
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if p != nil {
					p.wallNS.Add(int64(time.Since(start)))
					statPoolRuns.Inc()
					if tl {
						p.endDispatch(dispT0, i)
					}
				}
				return err
			}
			if p != nil {
				p.inflight.Add(1)
			}
			ts := time.Now()
			fn(0, i)
			if p != nil {
				p.finishTask(0, ts, time.Since(ts), i)
			}
		}
		if p != nil {
			p.wallNS.Add(int64(time.Since(start)))
			statPoolRuns.Inc()
			if tl {
				p.endDispatch(dispT0, n)
			}
		}
		return nil
	}
	dispT0, tl := p.beginDispatch()
	var labels context.Context
	if tl {
		labels = p.dispatchLabels(ctx)
	}
	start := time.Now()
	var done sync.WaitGroup
	var err error
	enqueued := 0
	for i := 0; i < n; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		done.Add(1)
		select {
		case p.tasks <- task{fn: fn, idx: i, done: &done, labels: labels}:
			enqueued++
		case <-ctx.Done():
			done.Done() // the task was never enqueued
			err = ctx.Err()
		}
		if err != nil {
			break
		}
	}
	done.Wait()
	p.wallNS.Add(int64(time.Since(start)))
	statPoolRuns.Inc()
	if tl {
		p.endDispatch(dispT0, enqueued)
	}
	return err
}

// BusyNS returns the accumulated task execution time across all workers.
func (p *Pool) BusyNS() int64 {
	if p == nil {
		return 0
	}
	return p.busyNS.Load()
}

// Speedup returns the realised parallel speedup of the pooled sections:
// total task execution time divided by total Do wall time. It is 1.0 for
// a sequential pool and approaches Workers() under perfect scaling.
func (p *Pool) Speedup() float64 {
	if p == nil {
		return 1
	}
	wall := p.wallNS.Load()
	if wall <= 0 {
		return 1
	}
	return float64(p.busyNS.Load()) / float64(wall)
}

// Close shuts the worker goroutines down. The pool must be idle (no Do in
// flight). Close is idempotent on a single-worker pool (which has no
// goroutines); a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	close(p.tasks)
	p.wg.Wait()
	p.tasks = nil
}

// String describes the pool for diagnostics.
func (p *Pool) String() string {
	return fmt.Sprintf("par.Pool{workers=%d}", p.Workers())
}

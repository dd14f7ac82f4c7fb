package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locmap/internal/metrics"
)

// Runner executes Jobs on a bounded worker pool with single-flight
// deduplication and an in-process memo table keyed by Job.Fingerprint.
// Each distinct job simulates exactly once per Runner lifetime no matter
// how many figures request it: concurrent duplicates wait for the
// in-flight execution, later duplicates are answered from memory.
// Because jobs are pure, results are identical at any pool width — only
// wall-clock changes.
//
// All methods are safe for concurrent use.
type Runner struct {
	sem chan struct{}

	mu        sync.Mutex
	calls     map[string]*call
	requested uint64
	executed  uint64

	// queueWaitNanos accumulates time spent waiting for a worker slot
	// across all executed jobs (never part of the results — jobs are
	// pure — only of the observability surface).
	queueWaitNanos atomic.Int64
}

// call is one distinct job execution; ready is closed once m is final.
type call struct {
	ready chan struct{}
	m     AppMetrics
}

// NewRunner builds a runner simulating at most jobs Jobs concurrently
// (jobs < 1 selects runtime.NumCPU()).
func NewRunner(jobs int) *Runner {
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	return &Runner{
		sem:   make(chan struct{}, jobs),
		calls: make(map[string]*call),
	}
}

// Parallelism reports the worker-pool width.
func (r *Runner) Parallelism() int { return cap(r.sem) }

// RunJob returns the job's metrics. The first request for a fingerprint
// executes it on the pool; every other request — concurrent or later —
// shares that single execution's result.
func (r *Runner) RunJob(j Job) AppMetrics {
	key := j.Fingerprint()
	r.mu.Lock()
	r.requested++
	if c, ok := r.calls[key]; ok {
		r.mu.Unlock()
		<-c.ready
		return c.m
	}
	c := &call{ready: make(chan struct{})}
	r.calls[key] = c
	r.executed++
	r.mu.Unlock()

	enqueued := time.Now()
	r.sem <- struct{}{}
	r.queueWaitNanos.Add(int64(time.Since(enqueued)))
	c.m = j.run()
	<-r.sem
	close(c.ready)
	return c.m
}

// Collect runs jobs concurrently (bounded by the pool) and returns their
// results in input order regardless of completion order. onDone, when
// non-nil, is invoked from worker goroutines as each job finishes; it
// must be safe for concurrent use.
func (r *Runner) Collect(jobs []Job, onDone func(i int, m AppMetrics)) []AppMetrics {
	out := make([]AppMetrics, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		go func(i int) {
			defer wg.Done()
			out[i] = r.RunJob(jobs[i])
			if onDone != nil {
				onDone(i, out[i])
			}
		}(i)
	}
	wg.Wait()
	return out
}

// Counters is a point-in-time snapshot of the runner's dedup accounting.
type Counters struct {
	// Requested counts every RunJob call.
	Requested uint64
	// Executed counts distinct fingerprints actually simulated.
	Executed uint64
	// Memoized counts requests answered without simulating (joined an
	// in-flight execution or hit the memo table).
	Memoized uint64
	// QueueWait is the total time executed jobs spent waiting for a
	// worker slot before starting.
	QueueWait time.Duration
}

// Counters reports how many jobs were requested, simulated and served
// from the memo table so far, and the accumulated queue wait.
func (r *Runner) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Counters{
		Requested: r.requested,
		Executed:  r.executed,
		Memoized:  r.requested - r.executed,
		QueueWait: time.Duration(r.queueWaitNanos.Load()),
	}
}

// Register exports the runner's accounting into reg as scrape-time
// counter families, so a service hosting a Runner (or a long
// paperbench sweep) surfaces its dedup behavior on the same /metrics
// exposition as the rest of the stack.
func (r *Runner) Register(reg *metrics.Registry) {
	reg.CounterFunc("locmap_runner_jobs_requested_total",
		"Jobs requested from the experiment runner (RunJob calls).", nil,
		func() float64 { return float64(r.Counters().Requested) })
	reg.CounterFunc("locmap_runner_jobs_executed_total",
		"Distinct jobs actually simulated (post single-flight dedup).", nil,
		func() float64 { return float64(r.Counters().Executed) })
	reg.CounterFunc("locmap_runner_jobs_memoized_total",
		"Jobs answered from the memo table or a joined in-flight execution.", nil,
		func() float64 { return float64(r.Counters().Memoized) })
	reg.CounterFunc("locmap_runner_queue_wait_seconds_total",
		"Total time executed jobs waited for a worker slot.", nil,
		func() float64 { return r.Counters().QueueWait.Seconds() })
}

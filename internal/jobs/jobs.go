// Package jobs is the gmpd service's job engine: a FIFO queue of
// long-running work items executed by a bounded worker pool, with
// per-job status tracking, cooperative cancellation, panic containment
// (via internal/runner's capture semantics), and graceful drain on
// shutdown.
//
// Lifecycle: Submit places a job at the tail of the queue in state
// Queued and returns its handle; the queue keeps no index, so callers
// that look jobs up keep their own. A free worker moves the job to
// Running and invokes its function with a per-job context. The
// function's return decides the terminal state: nil → Done; the job
// context's error (after Cancel) → Cancelled; anything else (including
// a captured panic) → Failed. Cancel on a queued job takes effect
// immediately without occupying a worker. Drain stops intake and
// dispatch, cancels everything still queued with the typed
// ReasonShutdown, and waits for running jobs to finish — the running
// set is *drained*, not killed.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gmp/internal/runner"
)

// Status is a job's lifecycle state.
type Status int

// The job lifecycle. Queued and Running are transient; Done, Failed and
// Cancelled are terminal.
const (
	Queued Status = iota + 1
	Running
	Done
	Failed
	Cancelled
)

// Terminal reports whether s is Done, Failed or Cancelled.
func (s Status) Terminal() bool { return s >= Done }

// String names the status as in the HTTP API.
func (s Status) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// CancelReason types a cancellation: an explicit user request (the
// DELETE endpoint) or the queue draining at shutdown.
type CancelReason string

// Cancellation reasons.
const (
	ReasonRequested CancelReason = "requested"
	ReasonShutdown  CancelReason = "shutdown"
)

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("jobs: queue is draining")

// Job is one tracked work item, the handle Submit returns.
type Job struct {
	q   *Queue
	run func(context.Context) error

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	status Status
	err    error
	reason CancelReason

	done chan struct{}
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the job's terminal error (nil unless Failed, or Cancelled
// with a context error).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Reason returns the typed cancellation reason ("" unless Cancelled).
func (j *Job) Reason() CancelReason {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reason
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// and returns the terminal status (0 on ctx expiry).
func (j *Job) Wait(ctx context.Context) (Status, error) {
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(s Status, err error, reason CancelReason) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = s
	j.err = err
	j.reason = reason
	j.mu.Unlock()
	close(j.done)
}

// Cancel cancels the job and reports whether it was still live. A
// queued job is finalized immediately; a running job's context is
// cancelled and the job reaches Cancelled when its function returns
// (cooperative, like gmp.RunContext).
func (j *Job) Cancel(reason CancelReason) bool {
	j.mu.Lock()
	switch j.status {
	case Done, Failed, Cancelled:
		j.mu.Unlock()
		return false
	case Queued:
		j.status = Cancelled
		j.err = context.Canceled
		j.reason = reason
		j.mu.Unlock()
		j.cancel()
		close(j.done)
		j.q.mu.Lock()
		j.q.cancelled++
		j.q.mu.Unlock()
		return true
	default: // Running: the worker finalizes when run returns.
		j.mu.Unlock()
		j.cancel()
		return true
	}
}

// Stats are the queue's monotonic counters plus current occupancy.
type Stats struct {
	Submitted int64
	Done      int64
	Failed    int64
	Cancelled int64
	// Depth is the number of jobs waiting; Running the number
	// currently executing.
	Depth   int
	Running int
}

// Queue is a FIFO job queue with a bounded worker pool.
type Queue struct {
	workers int
	timeout time.Duration

	mu       sync.Mutex
	fifo     []*Job
	draining bool
	wake     *sync.Cond
	wg       sync.WaitGroup

	submitted, finished, failed, cancelled int64
	running                                int
}

// NewQueue starts a queue with the given worker-pool size (minimum 1)
// and optional per-job timeout (0 = unbounded).
func NewQueue(workers int, timeout time.Duration) *Queue {
	if workers < 1 {
		workers = 1
	}
	q := &Queue{workers: workers, timeout: timeout}
	q.wake = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit enqueues a job and returns its handle. Fails with ErrDraining
// after Drain began.
func (q *Queue) Submit(run func(context.Context) error) (*Job, error) {
	if run == nil {
		return nil, errors.New("jobs: job has no function")
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		q:      q,
		run:    run,
		ctx:    ctx,
		cancel: cancel,
		status: Queued,
		done:   make(chan struct{}),
	}
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	q.fifo = append(q.fifo, j)
	q.submitted++
	q.wake.Signal()
	q.mu.Unlock()
	return j, nil
}

// Drain performs a graceful shutdown: new submissions fail, jobs still
// queued are cancelled with ReasonShutdown, and running jobs are waited
// for until they finish or ctx expires. Idempotent.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	pending := q.fifo
	q.fifo = nil
	q.wake.Broadcast()
	q.mu.Unlock()

	for _, j := range pending {
		j.Cancel(ReasonShutdown)
	}

	workersDone := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain interrupted with jobs still running: %w", ctx.Err())
	}
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Submitted: q.submitted,
		Done:      q.finished,
		Failed:    q.failed,
		Cancelled: q.cancelled,
		Depth:     len(q.fifo),
		Running:   q.running,
	}
}

// worker pops jobs in FIFO order until the queue drains.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.fifo) == 0 && !q.draining {
			q.wake.Wait()
		}
		if len(q.fifo) == 0 {
			// Draining with nothing queued: exit.
			q.mu.Unlock()
			return
		}
		j := q.fifo[0]
		q.fifo = q.fifo[1:]
		q.mu.Unlock()

		q.execute(j)
	}
}

// execute runs one job with panic containment and finalizes its state.
func (q *Queue) execute(j *Job) {
	j.mu.Lock()
	if j.status != Queued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.status = Running
	j.mu.Unlock()

	q.mu.Lock()
	q.running++
	q.mu.Unlock()

	// runner.Run contains panics (a corrupt job costs one job, not the
	// service) and applies the per-job timeout.
	res := runner.Run(j.ctx, func(ctx context.Context) (struct{}, error) {
		return struct{}{}, j.run(ctx)
	}, q.timeout)

	var status Status
	var reason CancelReason
	switch {
	case res.Err == nil:
		status = Done
	case j.ctx.Err() != nil && errors.Is(res.Err, j.ctx.Err()):
		status = Cancelled
		reason = ReasonRequested
	default:
		status = Failed
	}
	j.finish(status, res.Err, reason)

	q.mu.Lock()
	q.running--
	switch status {
	case Done:
		q.finished++
	case Failed:
		q.failed++
	case Cancelled:
		q.cancelled++
	}
	q.mu.Unlock()
}

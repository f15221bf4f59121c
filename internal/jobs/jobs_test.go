package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gmp/internal/runner"
)

func waitStatus(t *testing.T, j *Job) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	return s
}

func TestSubmitRunsFIFO(t *testing.T) {
	q := NewQueue(1, 0) // one worker => strict FIFO execution order
	var order []string
	ch := make(chan string, 3)
	var last *Job
	for _, id := range []string{"a", "b", "c"} {
		id := id
		j, err := q.Submit(func(ctx context.Context) error {
			ch <- id
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	for i := 0; i < 3; i++ {
		order = append(order, <-ch)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("execution order %v, want [a b c]", order)
	}
	if s := waitStatus(t, last); s != Done {
		t.Fatalf("job c finished %v, want done", s)
	}
	if st := q.Stats(); st.Submitted != 3 || st.Done != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailedJob(t *testing.T) {
	q := NewQueue(1, 0)
	boom := errors.New("boom")
	j, err := q.Submit(func(context.Context) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if s := waitStatus(t, j); s != Failed {
		t.Fatalf("status %v, want failed", s)
	}
	if !errors.Is(j.Err(), boom) {
		t.Fatalf("err = %v, want boom", j.Err())
	}
}

func TestPanicCapture(t *testing.T) {
	q := NewQueue(1, 0)
	j, err := q.Submit(func(context.Context) error { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	if s := waitStatus(t, j); s != Failed {
		t.Fatalf("status %v, want failed", s)
	}
	var pe *runner.PanicError
	if !errors.As(j.Err(), &pe) || pe.Value != "kaboom" {
		t.Fatalf("err = %v, want PanicError(kaboom)", j.Err())
	}
	// The worker survived the panic.
	j2, err := q.Submit(func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if s := waitStatus(t, j2); s != Done {
		t.Fatalf("post-panic job finished %v, want done", s)
	}
}

func TestCancelQueued(t *testing.T) {
	q := NewQueue(1, 0)
	gate := make(chan struct{})
	blocker, err := q.Submit(func(ctx context.Context) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Bool
	j, err := q.Submit(func(ctx context.Context) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Cancel(ReasonRequested) {
		t.Fatal("Cancel reported the queued job as not live")
	}
	if s := j.Status(); s != Cancelled {
		t.Fatalf("queued job cancel is not immediate: %v", s)
	}
	if r := j.Reason(); r != ReasonRequested {
		t.Fatalf("reason %q, want %q", r, ReasonRequested)
	}
	if st := q.Stats(); st.Cancelled != 1 {
		t.Fatalf("cancelled queued job not counted: %+v", st)
	}
	if j.Cancel(ReasonRequested) {
		t.Fatal("second Cancel reported the cancelled job as live")
	}
	close(gate)
	waitStatus(t, blocker)
	if ran.Load() {
		t.Fatal("cancelled queued job still executed")
	}
}

func TestCancelRunning(t *testing.T) {
	q := NewQueue(1, 0)
	started := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !j.Cancel(ReasonRequested) {
		t.Fatal("Cancel reported the running job as not live")
	}
	if s := waitStatus(t, j); s != Cancelled {
		t.Fatalf("status %v, want cancelled", s)
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", j.Err())
	}
}

func TestDrain(t *testing.T) {
	q := NewQueue(1, 0)
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	running, err := q.Submit(func(ctx context.Context) error {
		close(started)
		<-release
		finished.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit(func(ctx context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- q.Drain(ctx)
	}()

	// The queued job is cancelled with the typed shutdown reason
	// without waiting for the running one.
	if s := waitStatus(t, queued); s != Cancelled {
		t.Fatalf("queued job drained as %v, want cancelled", s)
	}
	if r := queued.Reason(); r != ReasonShutdown {
		t.Fatalf("queued job reason %q, want %q", r, ReasonShutdown)
	}

	// New submissions are refused while draining.
	if _, err := q.Submit(func(context.Context) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}

	// The running job is drained, not killed.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) before the running job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if s := running.Status(); s != Done || !finished.Load() {
		t.Fatalf("running job drained as %v (finished=%v), want done", s, finished.Load())
	}
}

func TestDrainTimeout(t *testing.T) {
	q := NewQueue(1, 0)
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Submit(func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a job still running")
	}
	close(release)
}

func TestManyWorkers(t *testing.T) {
	q := NewQueue(4, 0)
	var n atomic.Int64
	for i := 0; i < 32; i++ {
		if _, err := q.Submit(func(ctx context.Context) error {
			n.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Done+st.Cancelled != 32 || st.Done != n.Load() {
		t.Fatalf("stats = %+v with %d executions", st, n.Load())
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// kernel is the API the differential test exercises. *Scheduler
// provides it through schedKernel; refQueue is the brute-force reference.
type kernel interface {
	Now() time.Duration
	At(t time.Duration, fn func()) timer
	After(d time.Duration, fn func()) timer
	Step() bool
	Run(until time.Duration)
	Stop()
	Pending() int
}

type timer interface {
	Cancel() bool
	Pending() bool
}

type schedKernel struct{ *Scheduler }

func (k schedKernel) At(t time.Duration, fn func()) timer    { return k.Scheduler.At(t, fn) }
func (k schedKernel) After(d time.Duration, fn func()) timer { return k.Scheduler.After(d, fn) }

// refQueue is the reference kernel: an unordered slice of live events,
// scanned in full for the minimum (timestamp, sequence) at every step.
type refQueue struct {
	now     time.Duration
	seq     uint64
	stopped bool
	live    []*refEvent
}

type refEvent struct {
	q       *refQueue
	at      time.Duration
	seq     uint64
	fn      func()
	pending bool
}

func (q *refQueue) Now() time.Duration { return q.now }
func (q *refQueue) Pending() int       { return len(q.live) }
func (q *refQueue) Stop()              { q.stopped = true }

func (q *refQueue) At(t time.Duration, fn func()) timer {
	ev := &refEvent{q: q, at: t, seq: q.seq, fn: fn, pending: true}
	q.seq++
	q.live = append(q.live, ev)
	return ev
}

func (q *refQueue) After(d time.Duration, fn func()) timer { return q.At(q.now+d, fn) }

func (q *refQueue) min() int {
	best := -1
	for i, ev := range q.live {
		if best < 0 || ev.at < q.live[best].at || ev.at == q.live[best].at && ev.seq < q.live[best].seq {
			best = i
		}
	}
	return best
}

func (q *refQueue) drop(i int) *refEvent {
	ev := q.live[i]
	q.live = append(q.live[:i], q.live[i+1:]...)
	ev.pending = false
	return ev
}

func (q *refQueue) Step() bool {
	i := q.min()
	if i < 0 {
		return false
	}
	ev := q.drop(i)
	q.now = ev.at
	ev.fn()
	return true
}

func (q *refQueue) Run(until time.Duration) {
	q.stopped = false
	for !q.stopped {
		i := q.min()
		if i < 0 || q.live[i].at > until {
			break
		}
		ev := q.drop(i)
		q.now = ev.at
		ev.fn()
	}
	if !q.stopped && q.now < until {
		q.now = until
	}
}

func (ev *refEvent) Pending() bool { return ev.pending }

func (ev *refEvent) Cancel() bool {
	if !ev.pending {
		return false
	}
	for i, e := range ev.q.live {
		if e == ev {
			ev.q.drop(i)
			return true
		}
	}
	panic("refQueue: pending event not in the live set")
}

// step is one entry of a program log: an operation or a callback firing,
// with the clock and pending count it left behind.
type step struct {
	op      string
	id      int
	now     time.Duration
	pending int
}

func (s step) String() string {
	return fmt.Sprintf("%s id=%d now=%d pending=%d", s.op, s.id, s.now, s.pending)
}

// drive runs a seeded random program against k and returns its log. The
// program's choices depend only on the seed and on what k reported
// before, so two correct kernels produce identical logs.
func drive(k kernel, seed int64, ops int) []step {
	rng := rand.New(rand.NewSource(seed))
	const span = wheelBuckets << bucketShift
	var (
		log    []step
		timers []timer         // every handle ever returned, live or not
		times  []time.Duration // instants already scheduled, for ties
		fire   func(id int) func()
	)
	record := func(op string, id int) {
		log = append(log, step{op, id, k.Now(), k.Pending()})
	}
	// delay draws an offset from Now covering every queue path: zero,
	// within one bucket, in the horizon, either side of the horizon
	// boundary, far past it, and instants already in use.
	delay := func() time.Duration {
		now := k.Now()
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Intn(1 << bucketShift))
		case 2, 3:
			return time.Duration(rng.Int63n(span))
		case 4:
			edge := (now>>bucketShift + wheelBuckets) << bucketShift
			return edge - now + time.Duration(rng.Intn(3)-1)
		case 5:
			return time.Duration(rng.Int63n(8 * span))
		default:
			if len(times) > 0 {
				if t := times[rng.Intn(len(times))]; t >= now {
					return t - now
				}
			}
			return time.Duration(rng.Intn(50)) * time.Microsecond
		}
	}
	schedule := func() {
		id := len(timers)
		d := delay()
		times = append(times, k.Now()+d)
		if rng.Intn(2) == 0 {
			timers = append(timers, k.After(d, fire(id)))
		} else {
			timers = append(timers, k.At(k.Now()+d, fire(id)))
		}
		record("schedule", id)
	}
	cancel := func() {
		if len(timers) == 0 {
			return
		}
		id := rng.Intn(len(timers))
		tm := timers[id]
		was := tm.Pending()
		op := "cancel-dead"
		if tm.Cancel() {
			op = "cancel-live"
		}
		if was != (op == "cancel-live") || tm.Pending() {
			op = "cancel-inconsistent"
		}
		record(op, id)
	}
	fire = func(id int) func() {
		return func() {
			record("fire", id)
			switch r := rng.Intn(20); {
			case r < 6:
				schedule()
			case r < 8:
				cancel()
			case r < 9:
				k.Stop()
				record("stop", id)
			}
		}
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 8:
			schedule()
		case r < 11:
			cancel()
		case r < 14:
			record(fmt.Sprintf("step=%v", k.Step()), -1)
		case r < 18:
			k.Run(k.Now() + time.Duration(rng.Int63n(span/4)))
			record("run", -1)
		default:
			// Jump the clock several wheel spans, idle or not.
			k.Run(k.Now() + time.Duration(rng.Intn(5))*span + time.Duration(rng.Int63n(span)))
			record("run-far", -1)
		}
	}
	// Bounded, so a kernel that loses track of its events fails the
	// comparison instead of looping.
	for i := 0; i < 100 && k.Pending() > 0; i++ {
		k.Run(k.Now() + 16*span)
		record("drain", -1)
	}
	return log
}

// TestSchedulerMatchesOracle runs seeded random programs of schedules,
// cancels, steps, runs and callback-issued stops against the scheduler
// and against a brute-force reference queue, and requires the exact same
// firing sequence, clock and pending count after every operation.
func TestSchedulerMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := drive(schedKernel{NewScheduler()}, seed, 3000)
		want := drive(&refQueue{}, seed, 3000)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d, log entry %d: scheduler %v, reference %v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: scheduler log has %d entries, reference %d", seed, len(got), len(want))
		}
	}
}

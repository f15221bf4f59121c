// Package sim implements the discrete-event simulation kernel used by the
// wireless network simulator: a virtual clock, a pending-event queue with
// stable FIFO ordering among simultaneous events, and cancellable timers.
//
// The kernel is single-threaded by design. All protocol state machines run
// as event callbacks on one goroutine, which makes simulations fully
// deterministic for a given seed.
//
// Events are pooled: fired and cancelled events return to a free list and
// are recycled by later schedules, so steady-state timer churn (the MAC
// layer arms and cancels several timers per frame exchange) allocates
// nothing.
//
// The pending queue is a timing wheel backed by an overflow heap. Almost
// every event an 802.11 exchange schedules lies at most a few milliseconds
// ahead: SIFS (10 µs), slot (20 µs) and DIFS (50 µs) timers, frame
// airtimes (861 µs for a 1024-byte data frame at 11 Mbps), the CTS/ACK
// timeouts (≈260 µs), NAV expiries (≈1.3 ms after an RTS) and the backoffs
// of the first contention windows. The wheel has wheelBuckets buckets of
// 2^bucketShift ns, a horizon of ≈4.2 ms that covers all of them, and
// schedules, fires and cancels such an event in O(1). Each bucket is an
// intrusive circular doubly-linked list kept in (timestamp, sequence)
// order, so the wheel itself is one pointer per bucket (32 KiB), and an
// occupancy bitmap finds the next non-empty bucket a word at a time.
// Events at or past the horizon (flow generation, measurement periods,
// backoffs after repeated retries: a few percent) go to an indexed 4-ary
// min-heap, and the next event to fire is the earlier of the wheel's first
// event and the heap's top.
//
// Window invariant: an event enters the wheel only when its bucket lies
// less than one wheel span past the bucket of Now. The clock never moves
// backwards and no pending event is earlier than Now, so every wheel event
// stays within one span of the current bucket. Its slot therefore names a
// unique bucket, and a cyclic bitmap scan from the current slot visits
// buckets in time order, without ever migrating or rebucketing an event,
// even when Run advances an idle clock by many spans.
//
// Both queues order events by (timestamp, schedule sequence), a strict
// total order, so the firing order is exactly that of any other correct
// priority queue: the choice of queue cannot change a simulation.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

const (
	// bucketShift sets the bucket width to 2^10 ns ≈ 1 µs, below the
	// 10 µs SIFS, so a bucket rarely holds more than a few events.
	bucketShift = 10
	// wheelBuckets is the number of buckets. With 1 µs buckets the wheel
	// spans ≈4.2 ms, beyond the longest airtime and exchange timeout.
	wheelBuckets = 1 << 12
	bucketMask   = wheelBuckets - 1
	bitmapWords  = wheelBuckets / 64
)

// Scheduler owns the virtual clock and the pending event queue.
//
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	stopped bool
	free    []*event // recycled events

	// The timing wheel: buckets[slot] heads the circular list of events
	// whose bucket number at>>bucketShift is congruent to slot, and bit
	// slot of occupied is set exactly when that list is non-empty.
	buckets  [wheelBuckets]*event
	occupied [bitmapWords]uint64
	wheelLen int

	overflow []*event // 4-ary min-heap of events beyond the horizon
}

// NewScheduler returns a scheduler with the clock at zero and no pending
// events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration {
	return s.now
}

// Pending returns the number of scheduled events that have not yet fired
// or been cancelled. O(1): cancelled events leave the queue immediately.
func (s *Scheduler) Pending() int {
	return s.wheelLen + len(s.overflow)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t earlier than Now) is a programming error and panics. Events scheduled
// for the same instant fire in scheduling order.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v in the past (now %v)", t, s.now))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{sched: s}
	}
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	// The window invariant: the wheel takes only buckets less than one
	// span past the current one.
	if uint64(t>>bucketShift)-uint64(s.now>>bucketShift) < wheelBuckets {
		s.link(ev)
	} else {
		s.push(ev)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time. Negative
// durations panic.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// release returns a dequeued event to the free list. Bumping the
// generation invalidates every Timer handle still pointing at it.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn = nil
	s.free = append(s.free, ev)
}

// next returns the earliest pending event, or nil when none remain.
func (s *Scheduler) next() *event {
	ev := s.wheelMin()
	if len(s.overflow) > 0 && (ev == nil || less(s.overflow[0], ev)) {
		return s.overflow[0]
	}
	return ev
}

// fire dequeues ev, advances the clock to it and runs its callback.
func (s *Scheduler) fire(ev *event) {
	s.remove(ev)
	s.now = ev.at
	fn := ev.fn
	s.release(ev)
	fn()
}

// Step fires the earliest pending event and advances the clock to its
// timestamp. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	ev := s.next()
	if ev == nil {
		return false
	}
	s.fire(ev)
	return true
}

// Run fires events in timestamp order until the queue drains or the next
// event lies beyond until. The clock finishes exactly at until (if events
// drained earlier the clock is still advanced to until).
func (s *Scheduler) Run(until time.Duration) {
	if until < s.now {
		panic(fmt.Sprintf("sim: Run until %v is before now %v", until, s.now))
	}
	s.stopped = false
	for !s.stopped {
		ev := s.next()
		if ev == nil || ev.at > until {
			break
		}
		s.fire(ev)
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// Stop aborts a Run in progress after the current event callback returns.
func (s *Scheduler) Stop() {
	s.stopped = true
}

// Timer is a handle to a scheduled event that allows cancellation. The
// zero Timer is valid and behaves like an already-fired timer. Handles
// stay safe after their event fires and is recycled: a generation
// counter distinguishes the original event from its reincarnations.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from firing. Cancelling an already
// fired or already cancelled timer is a no-op. It reports whether the
// callback was still pending.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	t.ev.sched.remove(t.ev)
	t.ev.sched.release(t.ev)
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// NewRand returns a deterministic pseudo-random source for the simulation.
// Every stochastic component of the simulator draws from a *rand.Rand so
// that runs are reproducible for a given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// index is the event's overflow-heap slot, or inWheel while it sits
	// in a wheel bucket between prev and next.
	index      int
	prev, next *event
	gen        uint64
	sched      *Scheduler
}

const inWheel = -1

// less orders events by (timestamp, schedule sequence): FIFO among
// simultaneous events.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) remove(ev *event) {
	if ev.index == inWheel {
		s.unlink(ev)
	} else {
		s.removeAt(ev.index)
	}
}

func slotOf(at time.Duration) int {
	return int(uint64(at)>>bucketShift) & bucketMask
}

// link inserts ev into its wheel bucket, walking back from the tail
// (the head's prev): a new event carries the largest sequence number
// yet, so it almost always goes last.
func (s *Scheduler) link(ev *event) {
	ev.index = inWheel
	s.wheelLen++
	slot := slotOf(ev.at)
	head := s.buckets[slot]
	if head == nil {
		ev.prev, ev.next = ev, ev
		s.buckets[slot] = ev
		s.occupied[slot>>6] |= 1 << (slot & 63)
		return
	}
	p := head.prev
	for less(ev, p) {
		if p == head {
			// ev precedes every event in the bucket.
			s.buckets[slot] = ev
			p = head.prev
			break
		}
		p = p.prev
	}
	ev.prev, ev.next = p, p.next
	p.next.prev = ev
	p.next = ev
}

// unlink removes ev from its wheel bucket.
func (s *Scheduler) unlink(ev *event) {
	s.wheelLen--
	slot := slotOf(ev.at)
	if ev.next == ev {
		s.buckets[slot] = nil
		s.occupied[slot>>6] &^= 1 << (slot & 63)
	} else {
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
		if s.buckets[slot] == ev {
			s.buckets[slot] = ev.next
		}
	}
}

// wheelMin returns the wheel's earliest event, or nil when it is empty:
// the head of the first occupied bucket at or cyclically after the
// current one. By the window invariant that is the earliest bucket.
func (s *Scheduler) wheelMin() *event {
	if s.wheelLen == 0 {
		return nil
	}
	slot := slotOf(s.now)
	w := slot >> 6
	word := s.occupied[w] &^ (1<<(slot&63) - 1)
	for word == 0 {
		// Wrapping back to the first word, the bits below the current
		// slot are buckets almost one span ahead.
		w = (w + 1) & (bitmapWords - 1)
		word = s.occupied[w]
	}
	return s.buckets[w<<6|bits.TrailingZeros64(word)]
}

// The overflow queue is a 4-ary heap: children of slot i live at
// 4i+1..4i+4.

func (s *Scheduler) push(ev *event) {
	ev.index = len(s.overflow)
	s.overflow = append(s.overflow, ev)
	s.up(ev.index)
}

// removeAt deletes the event at heap slot i, preserving heap order.
func (s *Scheduler) removeAt(i int) {
	last := len(s.overflow) - 1
	s.overflow[i] = s.overflow[last]
	s.overflow[i].index = i
	s.overflow[last] = nil
	s.overflow = s.overflow[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
}

func (s *Scheduler) up(i int) {
	ev := s.overflow[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := s.overflow[parent]
		if !less(ev, p) {
			break
		}
		s.overflow[i] = p
		p.index = i
		i = parent
	}
	s.overflow[i] = ev
	ev.index = i
}

func (s *Scheduler) down(i int) {
	n := len(s.overflow)
	ev := s.overflow[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(s.overflow[c], s.overflow[best]) {
				best = c
			}
		}
		if !less(s.overflow[best], ev) {
			break
		}
		s.overflow[i] = s.overflow[best]
		s.overflow[i].index = i
		i = best
	}
	s.overflow[i] = ev
	ev.index = i
}

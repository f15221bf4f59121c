package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestPendingMatchesBruteForce drives the scheduler through a random
// interleaving of schedules, cancellations, and clock advances, checking
// Pending() after every operation against an independently maintained
// count of live events.
func TestPendingMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var live []Timer // timers believed pending
		fired := 0

		check := func(op string) {
			// Brute force: a timer is pending iff its handle says so, and
			// the scheduler's count must equal the number of such handles.
			n := 0
			for _, tm := range live {
				if tm.Pending() {
					n++
				}
			}
			if got := s.Pending(); got != n {
				t.Fatalf("seed %d after %s: Pending() = %d, brute force count = %d", seed, op, got, n)
			}
		}

		for op := 0; op < 500; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				live = append(live, s.After(time.Duration(rng.Intn(100))*time.Microsecond, func() { fired++ }))
				check("schedule")
			case r < 8: // cancel a random timer (possibly already dead)
				if len(live) > 0 {
					tm := live[rng.Intn(len(live))]
					was := tm.Pending()
					if got := tm.Cancel(); got != was {
						t.Fatalf("seed %d: Cancel() = %v on timer with Pending() = %v", seed, got, was)
					}
					check("cancel")
				}
			default: // advance the clock, firing some events
				s.Run(s.Now() + time.Duration(rng.Intn(50))*time.Microsecond)
				check("run")
			}
		}
		s.Run(s.Now() + time.Millisecond)
		check("drain")
		if s.Pending() != 0 {
			t.Fatalf("seed %d: queue not drained: %d left", seed, s.Pending())
		}
	}
}

// TestSchedulerSteadyStateAllocs pins the event-pool behavior: once the
// free list is primed, the arm/fire and arm/cancel cycles allocate
// nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}

	// Prime the pool.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	s.Run(s.Now() + time.Millisecond)

	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i)*time.Microsecond, fn)
		}
		s.Run(s.Now() + time.Millisecond)
	}); avg > 0 {
		t.Errorf("arm/fire cycle allocates %.1f objects per run, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		var tms [32]Timer
		for i := range tms {
			tms[i] = s.After(time.Duration(i+1)*time.Microsecond, fn)
		}
		for _, tm := range tms {
			tm.Cancel()
		}
	}); avg > 0 {
		t.Errorf("arm/cancel cycle allocates %.1f objects per run, want 0", avg)
	}

	// Events spread over four wheel spans: the near ones fill many
	// distinct buckets, the rest wait in the overflow heap.
	span := time.Duration(wheelBuckets << bucketShift)
	if avg := testing.AllocsPerRun(200, func() {
		var tms [64]Timer
		for i := range tms {
			tms[i] = s.After(time.Duration(i)*span/16+time.Duration(i), fn)
		}
		for i := 0; i < len(tms); i += 3 {
			tms[i].Cancel()
		}
		s.Run(s.Now() + 4*span)
	}); avg > 0 {
		t.Errorf("multi-span arm/cancel/fire cycle allocates %.1f objects per run, want 0", avg)
	}
}

// BenchmarkSchedulerTimers measures the MAC-like timer churn pattern:
// arm a handful of timers, cancel some, fire the rest.
func BenchmarkSchedulerTimers(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tms [4]Timer
		for j := range tms {
			tms[j] = s.After(time.Duration(j+1)*time.Microsecond, fn)
		}
		tms[1].Cancel()
		tms[3].Cancel()
		s.Run(s.Now() + 10*time.Microsecond)
	}
}

// BenchmarkSchedulerHold is the classic hold model: n events stay
// pending, and each step fires the earliest, whose callback schedules its
// replacement at now plus a random delay. Delays are uniform over 2 ms,
// inside the wheel's horizon, except that one in 20 is uniform over
// 20 ms, so about the share of events the simulator sends past the
// horizon lands in the overflow heap.
func BenchmarkSchedulerHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var delays [1024]time.Duration
	for i := range delays {
		if i%20 == 0 {
			delays[i] = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		} else {
			delays[i] = time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		}
	}
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewScheduler()
			next := 0
			var fn func()
			fn = func() {
				s.After(delays[next%len(delays)], fn)
				next++
			}
			for i := 0; i < n; i++ {
				fn()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

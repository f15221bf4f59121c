package radio

import (
	"math"
	"sync"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// trianglePositions places three mutually in-range nodes, so every
// transmission reaches two receivers.
func trianglePositions() []geom.Point {
	return []geom.Point{{X: 0}, {X: 200}, {X: 100, Y: 150}}
}

// TestInjectedLossCountsPerReceiver pins the documented semantics of
// Stats.InjectedLosses: it counts corruption events at individual
// receivers, not lost frames. With two in-range receivers and lossy
// delivery, one frame can contribute two InjectedLosses, and the
// counter must equal the per-receiver failure count exactly.
func TestInjectedLossCountsPerReceiver(t *testing.T) {
	topo, err := topology.New(trianglePositions(), topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	par := DefaultParams()
	par.LossProb = 0.5
	m := NewMedium(sched, topo, par, sim.NewRand(7))
	recorders := make([]*recorder, 3)
	for _, id := range topo.Nodes() {
		recorders[id] = &recorder{}
		m.Register(id, recorders[id])
	}

	const n = 300
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 10 * time.Millisecond // spaced: no collisions
		sched.At(at, func() { m.Transmit(0, dataFrame(0, 1), nil) })
	}
	sched.Run(10 * time.Second)

	failures := int64(0)
	for _, r := range []*recorder{recorders[1], recorders[2]} {
		if len(r.frames) != n {
			t.Fatalf("receiver saw %d frames, want %d", len(r.frames), n)
		}
		for _, ok := range r.oks {
			if !ok {
				failures++
			}
		}
	}
	st := m.Stats()
	if st.InjectedLosses != failures {
		t.Errorf("InjectedLosses = %d, want the per-receiver failure count %d", st.InjectedLosses, failures)
	}
	// Two receivers per frame: the counter must be able to exceed the
	// frame count, which it will at p=0.5 with 2n delivery events.
	if st.InjectedLosses <= n/2 {
		t.Errorf("InjectedLosses = %d suspiciously low for %d deliveries at p=0.5", st.InjectedLosses, 2*n)
	}
	if st.Delivered+st.Corrupted != 2*n {
		t.Errorf("Delivered+Corrupted = %d, want %d", st.Delivered+st.Corrupted, 2*n)
	}
}

// TestLinkLossIsPerLink injects loss on the 0→1 link only: node 1 must
// lose frames while node 2, overhearing the same transmissions, loses
// none (the rng is only consulted where effective loss is positive).
func TestLinkLossIsPerLink(t *testing.T) {
	h := newHarness(t, trianglePositions())
	h.medium.SetLinkLoss(0, 1, 0.9)

	const n = 100
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		h.sched.At(at, func() { h.medium.Transmit(0, dataFrame(0, 1), nil) })
	}
	h.sched.Run(5 * time.Second)

	lost := 0
	for _, ok := range h.nodes[1].oks {
		if !ok {
			lost++
		}
	}
	if lost < n/2 {
		t.Errorf("node 1 lost %d/%d frames on a 0.9-loss link", lost, n)
	}
	for i, ok := range h.nodes[2].oks {
		if !ok {
			t.Fatalf("node 2 lost frame %d despite no loss on 0→2", i)
		}
	}
	if got := h.medium.Stats().InjectedLosses; got != int64(lost) {
		t.Errorf("InjectedLosses = %d, want %d", got, lost)
	}

	// Clearing the loss restores lossless delivery.
	h.medium.SetLinkLoss(0, 1, 0)
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(6 * time.Second)
	if ok := h.nodes[1].oks[len(h.nodes[1].oks)-1]; !ok {
		t.Error("frame lost after link loss cleared")
	}
}

// TestLossComposition checks lossAt's independent composition of
// global, per-link, and per-receiver probabilities.
func TestLossComposition(t *testing.T) {
	topo, err := topology.New(trianglePositions(), topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	par.LossProb = 0.2
	m := NewMedium(sim.NewScheduler(), topo, par, sim.NewRand(1))
	m.SetLinkLoss(0, 1, 0.5)
	m.SetNodeLoss(1, 0.5)

	want := 1 - (1-0.2)*(1-0.5)*(1-0.5) // 0.8
	if got := m.lossAt(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("lossAt(0,1) = %v, want %v", got, want)
	}
	// Other receivers see only the global probability.
	if got := m.lossAt(0, 2); got != 0.2 {
		t.Errorf("lossAt(0,2) = %v, want 0.2", got)
	}
	// The link entry is directional.
	if got := m.lossAt(1, 0); math.Abs(got-(1-(1-0.2)*(1-0.0))) > 1e-12 {
		t.Errorf("lossAt(1,0) = %v, want 0.2", got)
	}
}

func TestSetLossValidation(t *testing.T) {
	topo, err := topology.New(trianglePositions(), topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMedium(sim.NewScheduler(), topo, DefaultParams(), sim.NewRand(1))
	for _, p := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLinkLoss accepted %v", p)
				}
			}()
			m.SetLinkLoss(0, 1, p)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetNodeLoss accepted %v", p)
				}
			}()
			m.SetNodeLoss(0, p)
		}()
	}
}

// TestDownNodeReceivesNothing crashes a receiver: frames that would
// reach it are suppressed entirely (no OnFrame, counted in DownSkipped)
// while other receivers are unaffected, and recovery restores delivery.
func TestDownNodeReceivesNothing(t *testing.T) {
	h := newHarness(t, trianglePositions())
	h.medium.SetNodeDown(1, true)
	if !h.medium.NodeDown(1) {
		t.Fatal("NodeDown not reported")
	}

	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(time.Second)
	if len(h.nodes[1].frames) != 0 {
		t.Error("down node received a frame")
	}
	if len(h.nodes[2].frames) != 1 || !h.nodes[2].oks[0] {
		t.Error("live node's overhearing was affected by the crash")
	}
	if got := h.medium.Stats().DownSkipped; got != 1 {
		t.Errorf("DownSkipped = %d, want 1", got)
	}

	h.medium.SetNodeDown(1, false)
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(2 * time.Second)
	if len(h.nodes[1].frames) != 1 || !h.nodes[1].oks[0] {
		t.Error("recovered node did not receive")
	}
}

func TestDownNodeTransmitPanics(t *testing.T) {
	h := newHarness(t, trianglePositions())
	h.medium.SetNodeDown(0, true)
	defer func() {
		if recover() == nil {
			t.Error("transmit from a down node did not panic")
		}
	}()
	h.medium.Transmit(0, dataFrame(0, 1), nil)
}

// TestStatsConcurrentReads polls Stats from other goroutines while the
// simulation transmits. Run with -race (as CI does) this pins the
// satellite requirement: stats retrieval without data races.
func TestStatsConcurrentReads(t *testing.T) {
	h := newHarness(t, trianglePositions())
	const n = 200
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		h.sched.At(at, func() { h.medium.Transmit(0, dataFrame(0, 1), nil) })
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := h.medium.Stats()
					if st.Transmissions < 0 || st.Transmissions > n {
						t.Errorf("implausible snapshot %+v", st)
						return
					}
				}
			}
		}()
	}
	h.sched.Run(5 * time.Second)
	close(stop)
	wg.Wait()
	if got := h.medium.Stats().Transmissions; got != n {
		t.Errorf("Transmissions = %d, want %d", got, n)
	}
}

package radio

import (
	"fmt"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// deliverOne transmits a unicast data frame on a two-node link and runs
// the clock past its airtime, exercising carrier sense, occupancy
// accounting, delivery, and the idle transition.
func deliverOne(h *harness, f *Frame) {
	h.medium.Transmit(0, f, nil)
	h.sched.Run(h.sched.Now() + 2*time.Millisecond)
}

// TestDeliveryAllocs pins the steady-state allocation count of the frame
// delivery hot path. The transmission record, its end-of-air closure, and
// the scheduler event are all pooled, so a warm medium allocates nothing
// per frame; the pre-optimization kernel allocated on every layer.
func TestDeliveryAllocs(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	f := dataFrame(0, 1)

	// Warm the pools.
	for i := 0; i < 16; i++ {
		deliverOne(h, f)
	}

	if avg := testing.AllocsPerRun(200, func() { deliverOne(h, f) }); avg != 0 {
		t.Errorf("frame delivery allocates %.1f objects per frame, want 0", avg)
	}
	if got := h.nodes[1].frames; len(got) == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestDeliveryAllocsNilRecorder pins the telemetry layer's zero-cost
// contract on the frame-delivery hot path: with the recorder explicitly
// nil (the disabled state every untelemetered run uses), delivery
// allocates no more than the pre-telemetry baseline measured alongside.
func TestDeliveryAllocsNilRecorder(t *testing.T) {
	baseline := newHarness(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	disabled := newHarness(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	disabled.medium.SetProbe(nil)
	f := dataFrame(0, 1)

	for i := 0; i < 16; i++ {
		deliverOne(baseline, f)
		deliverOne(disabled, f)
	}
	base := testing.AllocsPerRun(200, func() { deliverOne(baseline, f) })
	got := testing.AllocsPerRun(200, func() { deliverOne(disabled, f) })
	if got > base {
		t.Errorf("delivery with nil recorder allocates %.1f objects per frame, baseline %.1f", got, base)
	}
}

// TestCollidingDeliveryAllocs extends the allocation pin to frames that
// collide: on the hidden-terminal chain 0–1–2 both senders' frames
// overlap at node 1, so every round fills a jammed list and trips a
// carrier stamp. Warm records reuse their lists, so this path must
// allocate nothing either.
func TestCollidingDeliveryAllocs(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	a, b := dataFrame(0, 1), dataFrame(2, 1)
	round := func() {
		h.medium.Transmit(0, a, nil)
		h.medium.Transmit(2, b, nil)
		h.sched.Run(h.sched.Now() + 2*time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("colliding delivery allocates %.1f objects per round, want 0", avg)
	}
	if oks := h.nodes[1].oks; len(oks) == 0 || oks[len(oks)-1] {
		t.Fatal("hidden-terminal frames were not corrupted at node 1")
	}
}

// TestPooledFrameRecycling pins the frame pool's ownership rules. A frame
// from NewFrame returns to the pool once delivered, zeroed so the pool
// keeps no packet or control payload alive, with an empty States that
// keeps its capacity. A frame the caller built stays the caller's and can
// be transmitted again and again.
func TestPooledFrameRecycling(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 100}})
	states := []packet.QueueState{{Queue: 3, Free: true}, {Queue: 4}}

	data := h.medium.NewFrame()
	data.Kind, data.To, data.LinkFrom, data.LinkTo = FrameData, 1, 0, 1
	data.Data = &packet.Packet{Src: 0, Dst: 1, SizeBytes: 1024}
	data.States = append(data.States, states...)
	bcast := h.medium.NewFrame()
	bcast.Kind, bcast.To, bcast.LinkFrom, bcast.LinkTo = FrameBroadcast, Broadcast, 0, 0
	bcast.Control, bcast.ControlBytes = "link-state", 64
	bcast.States = append(bcast.States, states...)

	for _, f := range []*Frame{data, bcast} {
		kind := f.Kind
		deliverOne(h, f)
		if got := h.nodes[1].oks; len(got) == 0 || !got[len(got)-1] {
			t.Fatalf("%v frame not delivered", kind)
		}
		if f.Data != nil || f.Control != nil {
			t.Errorf("recycled %v frame keeps its payload: Data %v, Control %v", kind, f.Data, f.Control)
		}
		if f.Kind != 0 || f.ID != 0 || f.ControlBytes != 0 || f.To != 0 {
			t.Errorf("recycled %v frame not zeroed: %+v", kind, *f)
		}
		if len(f.States) != 0 || cap(f.States) < len(states) {
			t.Errorf("recycled %v frame States len %d cap %d, want empty with cap >= %d", kind, len(f.States), cap(f.States), len(states))
		}
		if g := h.medium.NewFrame(); g != f {
			t.Errorf("%v frame did not return to the pool", kind)
		}
	}

	own := dataFrame(0, 1)
	pkt := own.Data
	for i := 0; i < 3; i++ {
		deliverOne(h, own)
		if own.Kind != FrameData || own.Data != pkt || own.To != 1 {
			t.Fatalf("round %d: medium reset a caller-built frame: %+v", i, *own)
		}
	}
	if oks := h.nodes[1].oks; len(oks) != 5 || !oks[4] {
		t.Fatalf("deliveries at node 1 = %v, want 5 ok", oks)
	}
	if g := h.medium.NewFrame(); g == own {
		t.Error("caller-built frame entered the pool")
	}
}

// BenchmarkTransmitInFlight measures one clean frame exchange while k
// other frames are on the air far away. Interference marking consults
// only the transmitter's neighborhood, so ns/op should not grow with k.
func BenchmarkTransmitInFlight(b *testing.B) {
	for _, k := range []int{0, 16, 256, 1024} {
		b.Run(fmt.Sprintf("inflight=%d", k), func(b *testing.B) {
			// A two-node probe link at the origin, then k isolated
			// transmitters 1 km apart, out of range of everything.
			pos := []geom.Point{{X: 0}, {X: 100}}
			for i := 0; i < k; i++ {
				pos = append(pos, geom.Point{X: float64(1+i%32) * 1000, Y: float64(1+i/32) * 1000})
			}
			topo, err := topology.New(pos, topology.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			sched := sim.NewScheduler()
			m := NewMedium(sched, topo, DefaultParams(), sim.NewRand(1))
			rx := &recorder{}
			for _, id := range topo.Nodes() {
				if id == 1 {
					m.Register(id, rx)
				} else {
					m.Register(id, &recorder{})
				}
			}
			// Broadcasts of 2^36 bytes stay on the air for days of
			// simulated time, far beyond any benchmark's horizon.
			for i := 0; i < k; i++ {
				src := topology.NodeID(2 + i)
				m.Transmit(src, &Frame{Kind: FrameBroadcast, To: Broadcast, LinkFrom: src, LinkTo: src, ControlBytes: 1 << 36}, nil)
			}
			f := dataFrame(0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Transmit(0, f, nil)
				sched.Run(sched.Now() + 2*time.Millisecond)
				if i%1024 == 0 {
					rx.frames, rx.oks = rx.frames[:0], rx.oks[:0]
				}
			}
		})
	}
}

// BenchmarkMediumDelivery measures the per-frame cost of the medium in
// isolation: one data frame across a two-node link, including carrier
// sense, busy/idle callbacks, and occupancy accounting.
func BenchmarkMediumDelivery(b *testing.B) {
	topo, err := topology.New([]geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	m := NewMedium(sched, topo, DefaultParams(), sim.NewRand(1))
	h := &harness{sched: sched, medium: m}
	for _, id := range topo.Nodes() {
		r := &recorder{}
		m.Register(id, r)
		h.nodes = append(h.nodes, r)
	}
	f := dataFrame(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(0, f, nil)
		sched.Run(sched.Now() + 2*time.Millisecond)
		if i%1024 == 0 {
			// Keep the recorder slices from growing without bound.
			h.nodes[1].frames = h.nodes[1].frames[:0]
			h.nodes[1].oks = h.nodes[1].oks[:0]
		}
	}
}

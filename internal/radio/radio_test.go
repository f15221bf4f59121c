package radio

import (
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// recorder is a minimal Station that logs channel events.
type recorder struct {
	busy    int
	idle    int
	frames  []*Frame
	oks     []bool
	busyNow bool
}

func (r *recorder) OnBusy() { r.busy++; r.busyNow = true }
func (r *recorder) OnIdle() { r.idle++; r.busyNow = false }
func (r *recorder) OnFrame(f *Frame, ok bool) {
	r.frames = append(r.frames, f)
	r.oks = append(r.oks, ok)
}

type harness struct {
	sched  *sim.Scheduler
	medium *Medium
	nodes  []*recorder
}

func newHarness(t *testing.T, pos []geom.Point) *harness {
	t.Helper()
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	m := NewMedium(sched, topo, DefaultParams(), sim.NewRand(1))
	h := &harness{sched: sched, medium: m}
	for _, id := range topo.Nodes() {
		r := &recorder{}
		m.Register(id, r)
		h.nodes = append(h.nodes, r)
	}
	return h
}

func dataFrame(from, to topology.NodeID) *Frame {
	return &Frame{
		Kind:     FrameData,
		To:       to,
		LinkFrom: from,
		LinkTo:   to,
		Data:     &packet.Packet{Flow: 0, Src: from, Dst: to, SizeBytes: 1024},
	}
}

func TestAirtimeValues(t *testing.T) {
	p := DefaultParams()
	rts := p.Airtime(FrameRTS, 0)
	cts := p.Airtime(FrameCTS, 0)
	data := p.Airtime(FrameData, 1024)
	if rts <= p.Preamble || cts <= p.Preamble {
		t.Error("control airtime should exceed the preamble")
	}
	if data <= rts {
		t.Error("1024-byte data frame should outlast an RTS")
	}
	// 1052 bytes at 11 Mbps is ~765 us plus 96 us preamble.
	bits := float64((1024 + 28) * 8)
	want := 96*time.Microsecond + time.Duration(bits/11)*time.Microsecond
	if data != want {
		t.Errorf("data airtime = %v, want %v", data, want)
	}
}

func TestAirtimePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown frame kind")
		}
	}()
	DefaultParams().Airtime(FrameKind(0), 0)
}

func TestSingleTransmissionDelivery(t *testing.T) {
	// 0 --- 1 --- 2: node 0 transmits to 1; node 2 overhears nothing
	// (out of 0's range) but is out of range, node 1 decodes.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(time.Second)

	if len(h.nodes[1].frames) != 1 || !h.nodes[1].oks[0] {
		t.Fatalf("node 1: frames=%d", len(h.nodes[1].frames))
	}
	if len(h.nodes[2].frames) != 0 {
		t.Error("node 2 decoded a frame from out of range")
	}
	st := h.medium.Stats()
	if st.Transmissions != 1 || st.Delivered != 1 || st.Corrupted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBusyIdleTransitions(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(time.Second)
	if h.nodes[1].busy != 1 || h.nodes[1].idle != 1 {
		t.Errorf("node 1 busy/idle = %d/%d, want 1/1", h.nodes[1].busy, h.nodes[1].idle)
	}
	// Node 2 is 400 m from node 0: outside carrier sense.
	if h.nodes[2].busy != 0 {
		t.Error("node 2 sensed an out-of-range carrier")
	}
	if h.medium.BusyAt(1) {
		t.Error("medium still busy after transmission end")
	}
}

func TestOverhearingDelivery(t *testing.T) {
	// Both 1 and 2 are in range of 0; frame addressed to 1 is also
	// delivered (as overheard) to 2.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 100, Y: 150}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(time.Second)
	if len(h.nodes[2].frames) != 1 {
		t.Fatal("in-range node did not overhear")
	}
	if h.nodes[2].frames[0].To != 1 {
		t.Error("overheard frame lost addressing")
	}
}

func TestCollisionBetweenInRangeSenders(t *testing.T) {
	// 0 and 2 both within range of 1; simultaneous transmissions collide
	// at 1.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.medium.Transmit(2, dataFrame(2, 1), nil)
	h.sched.Run(time.Second)
	for _, ok := range h.nodes[1].oks {
		if ok {
			t.Error("overlapping transmissions decoded successfully at node 1")
		}
	}
	if got := len(h.nodes[1].frames); got != 2 {
		t.Errorf("node 1 got %d frames, want 2 (both corrupted)", got)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Chain 0-1-2: 0 and 2 are hidden from each other (400 m) but both
	// reach 1. Overlap corrupts at 1; each sender's frame is fine at its
	// own other neighbors.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.medium.Transmit(2, dataFrame(2, 3), nil)
	h.sched.Run(time.Second)
	if h.nodes[1].oks[0] || h.nodes[1].oks[1] {
		t.Error("hidden-terminal overlap not corrupted at node 1")
	}
	// Node 3 hears only node 2 (node 0 is 600 m away): clean.
	if len(h.nodes[3].frames) != 1 || !h.nodes[3].oks[0] {
		t.Error("node 3 should decode node 2's frame cleanly")
	}
}

func TestPartialOverlapStillCorrupts(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	// Start the second transmission shortly before the first ends.
	h.sched.After(100*time.Microsecond, func() {
		h.medium.Transmit(2, dataFrame(2, 1), nil)
	})
	h.sched.Run(time.Second)
	for i := range h.nodes[1].frames {
		if h.nodes[1].oks[i] {
			t.Error("partially overlapping frame decoded at node 1")
		}
	}
}

func TestSequentialTransmissionsDoNotCollide(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	f := dataFrame(0, 1)
	air := h.medium.Airtime(f)
	h.medium.Transmit(0, f, nil)
	h.sched.After(air+time.Microsecond, func() {
		h.medium.Transmit(2, dataFrame(2, 1), nil)
	})
	h.sched.Run(time.Second)
	if len(h.nodes[1].oks) != 2 || !h.nodes[1].oks[0] || !h.nodes[1].oks[1] {
		t.Errorf("sequential frames corrupted: %v", h.nodes[1].oks)
	}
}

func TestHalfDuplexReceiverCorruption(t *testing.T) {
	// Node 1 starts transmitting while node 0's frame is in flight to
	// it: node 1 must not decode that frame.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.After(50*time.Microsecond, func() {
		h.medium.Transmit(1, dataFrame(1, 2), nil)
	})
	h.sched.Run(time.Second)
	if len(h.nodes[1].frames) != 1 {
		t.Fatalf("node 1 frames = %d, want 1", len(h.nodes[1].frames))
	}
	if h.nodes[1].oks[0] {
		t.Error("half-duplex node decoded a frame while transmitting")
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}})
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	defer func() {
		if recover() == nil {
			t.Error("double transmit did not panic")
		}
	}()
	h.medium.Transmit(0, dataFrame(0, 1), nil)
}

func TestOccupancyAccounting(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}})
	f := dataFrame(0, 1)
	air := h.medium.Airtime(f)
	h.medium.Transmit(0, f, nil)
	h.sched.Run(time.Second)
	occ := h.medium.TakeOccupancy()
	if got := occ[topology.Link{From: 0, To: 1}]; got != air {
		t.Errorf("occupancy = %v, want %v", got, air)
	}
	// TakeOccupancy resets.
	if len(h.medium.TakeOccupancy()) != 0 {
		t.Error("occupancy not reset")
	}
}

func TestInjectedLoss(t *testing.T) {
	topo, err := topology.New([]geom.Point{{X: 0}, {X: 200}}, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	par := DefaultParams()
	par.LossProb = 0.5
	m := NewMedium(sched, topo, par, sim.NewRand(42))
	rx := &recorder{}
	m.Register(0, &recorder{})
	m.Register(1, rx)
	const n = 400
	air := par.Airtime(FrameData, 1024)
	for i := 0; i < n; i++ {
		i := i
		sched.At(time.Duration(i)*2*air, func() { m.Transmit(0, dataFrame(0, 1), nil) })
	}
	sched.Run(time.Hour)
	okCount := 0
	for _, ok := range rx.oks {
		if ok {
			okCount++
		}
	}
	if okCount < n/4 || okCount > 3*n/4 {
		t.Errorf("with 50%% loss, %d/%d delivered", okCount, n)
	}
	if m.Stats().InjectedLosses != int64(n-okCount) {
		t.Errorf("loss accounting mismatch: %d vs %d", m.Stats().InjectedLosses, n-okCount)
	}
}

func TestSaturationRate(t *testing.T) {
	p := DefaultParams()
	withRTS := p.SaturationRate(1024, true)
	noRTS := p.SaturationRate(1024, false)
	if withRTS <= 0 || noRTS <= 0 {
		t.Fatal("non-positive saturation rate")
	}
	if withRTS >= noRTS {
		t.Error("RTS/CTS overhead should lower the saturation rate")
	}
	// 11 Mbps, 1024 B packets: hundreds of packets per second.
	if withRTS < 300 || withRTS > 900 {
		t.Errorf("saturation rate %v outside plausible range", withRTS)
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	h.medium.Register(0, &recorder{})
}

func TestFrameKindString(t *testing.T) {
	kinds := map[FrameKind]string{FrameRTS: "RTS", FrameCTS: "CTS", FrameData: "DATA", FrameAck: "ACK"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestThreeWayBusyCounting(t *testing.T) {
	// Node 1 hears both 0 and 2; it must go idle only after BOTH end.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}})
	short := &Frame{Kind: FrameRTS, To: 1, LinkFrom: 0, LinkTo: 1}
	long := dataFrame(2, 1)
	h.medium.Transmit(0, short, nil)
	h.medium.Transmit(2, long, nil)
	h.sched.Run(time.Second)
	if h.nodes[1].busy != 1 {
		t.Errorf("node 1 OnBusy fired %d times, want 1 (continuous busy)", h.nodes[1].busy)
	}
	if h.nodes[1].idle != 1 {
		t.Errorf("node 1 OnIdle fired %d times, want 1", h.nodes[1].idle)
	}
}

func TestBroadcastFrameAccounting(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}})
	bc := &Frame{Kind: FrameBroadcast, To: Broadcast, LinkFrom: 0, LinkTo: 0, ControlBytes: 24}
	air := h.medium.Airtime(bc)
	h.medium.Transmit(0, bc, nil)
	h.sched.Run(time.Second)
	st := h.medium.Stats()
	if st.ControlFrames != 1 || st.ControlAirtime != air {
		t.Errorf("control accounting = %+v, want airtime %v", st, air)
	}
	// Broadcasts do not pollute per-link occupancy.
	if len(h.medium.TakeOccupancy()) != 0 {
		t.Error("broadcast airtime counted as link occupancy")
	}
	// But they are delivered like any frame.
	if len(h.nodes[1].frames) != 1 || h.nodes[1].frames[0].Kind != FrameBroadcast {
		t.Error("broadcast not delivered")
	}
}

func TestBroadcastAirtimeScalesWithPayload(t *testing.T) {
	p := DefaultParams()
	small := p.Airtime(FrameBroadcast, 8)
	big := p.Airtime(FrameBroadcast, 256)
	if big <= small {
		t.Error("payload size does not affect broadcast airtime")
	}
}

func TestTransmitAiredCallback(t *testing.T) {
	// Nodes 1 and 2 both hear node 0: each gets the frame and an idle
	// edge, and the transmitter's aired callback must come after all of
	// them, at the frame's end of air, in the same kernel event.
	h := newHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 100, Y: 150}})
	f := dataFrame(0, 1)
	end := h.medium.Airtime(f)
	calls := 0
	h.medium.Transmit(0, f, func() {
		calls++
		if now := h.sched.Now(); now != end {
			t.Errorf("aired ran at %v, want the end of air %v", now, end)
		}
		for _, n := range []int{1, 2} {
			if r := h.nodes[n]; len(r.frames) != 1 || r.idle != 1 {
				t.Errorf("aired ran before node %d's delivery and idle edge: frames=%d idle=%d", n, len(r.frames), r.idle)
			}
		}
		if h.medium.Transmitting(0) {
			t.Error("transmitter still on the air in its aired callback")
		}
	})
	if got := h.sched.Pending(); got != 1 {
		t.Errorf("one transmission holds %d kernel events, want 1", got)
	}
	h.sched.Run(time.Second)
	if calls != 1 {
		t.Fatalf("aired ran %d times, want 1", calls)
	}

	// A nil aired is allowed.
	h.medium.Transmit(0, dataFrame(0, 1), nil)
	h.sched.Run(2 * time.Second)
	if len(h.nodes[1].frames) != 2 {
		t.Errorf("node 1 got %d frames, want 2", len(h.nodes[1].frames))
	}
}

package mac

import (
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// fakeClient is a scriptable upper layer for one station.
type fakeClient struct {
	outgoing  []*Outgoing
	completed []*Outgoing
	results   []bool
	received  []*packet.Packet
	overheard map[topology.NodeID][]packet.QueueState
	slots     map[topology.NodeID]int // each neighbor's last slot
	accept    func(packet.QueueID, topology.NodeID) bool
	states    []packet.QueueState
}

func newFakeClient() *fakeClient {
	return &fakeClient{overheard: make(map[topology.NodeID][]packet.QueueState), slots: make(map[topology.NodeID]int)}
}

func (c *fakeClient) NextOutgoing() *Outgoing {
	if len(c.outgoing) == 0 {
		return nil
	}
	out := c.outgoing[0]
	c.outgoing = c.outgoing[1:]
	return out
}

func (c *fakeClient) OnSendComplete(out *Outgoing, ok bool) {
	c.completed = append(c.completed, out)
	c.results = append(c.results, ok)
}

func (c *fakeClient) OnReceive(p *packet.Packet, _ topology.NodeID) {
	c.received = append(c.received, p)
}

func (c *fakeClient) AppendPiggyback(dst []packet.QueueState) []packet.QueueState {
	return append(dst, c.states...)
}

func (c *fakeClient) OnOverhear(from topology.NodeID, slot int, states []packet.QueueState) {
	// states belongs to the frame, which the medium recycles.
	c.overheard[from] = append([]packet.QueueState(nil), states...)
	c.slots[from] = slot
}

func (c *fakeClient) AcceptQueue(q packet.QueueID, from topology.NodeID) bool {
	if c.accept == nil {
		return true
	}
	return c.accept(q, from)
}

type macHarness struct {
	sched    *sim.Scheduler
	medium   *radio.Medium
	stations []*Station
	clients  []*fakeClient
}

func newMACHarness(t *testing.T, pos []geom.Point, cfg Config) *macHarness {
	t.Helper()
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return newMACHarnessParams(t, topo, cfg, radio.DefaultParams())
}

func newMACHarnessParams(t *testing.T, topo *topology.Topology, cfg Config, par radio.Params) *macHarness {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRand(1)
	medium := radio.NewMedium(sched, topo, par, sim.NewRand(rng.Int63()))
	h := &macHarness{sched: sched, medium: medium}
	for _, id := range topo.Nodes() {
		c := newFakeClient()
		st := NewStation(id, sched, medium, cfg, rng.Int63(), c)
		h.stations = append(h.stations, st)
		h.clients = append(h.clients, c)
	}
	return h
}

func pkt(flow packet.FlowID, src, dst topology.NodeID, seq int64) *packet.Packet {
	return &packet.Packet{Flow: flow, Src: src, Dst: dst, Seq: seq, SizeBytes: 1024, Weight: 1}
}

func TestSinglePacketExchange(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.Run(100 * time.Millisecond)

	if len(h.clients[0].results) != 1 || !h.clients[0].results[0] {
		t.Fatalf("send not completed ok: %v", h.clients[0].results)
	}
	if len(h.clients[1].received) != 1 {
		t.Fatalf("receiver got %d packets, want 1", len(h.clients[1].received))
	}
	st := h.stations[0].Stats()
	if st.RTSSent != 1 || st.DataSent != 1 || st.DataAcked != 1 {
		t.Errorf("sender stats = %+v", st)
	}
}

func TestBackToBackPackets(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	const n = 50
	for i := 0; i < n; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
	}
	h.stations[0].Kick()
	h.sched.Run(time.Second)
	if got := len(h.clients[1].received); got != n {
		t.Fatalf("received %d, want %d", got, n)
	}
	for i, p := range h.clients[1].received {
		if p.Seq != int64(i) {
			t.Fatalf("out-of-order delivery at %d: seq %d", i, p.Seq)
		}
	}
}

func TestNoRTSMode(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, Config{UseRTS: false})
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.Run(100 * time.Millisecond)
	if len(h.clients[1].received) != 1 {
		t.Fatal("packet not delivered without RTS")
	}
	if h.stations[0].Stats().RTSSent != 0 {
		t.Error("RTS sent in no-RTS mode")
	}
}

func TestRetryLimitDropsPacket(t *testing.T) {
	// The receiver refuses every queue: no CTS ever comes back.
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.clients[1].accept = func(packet.QueueID, topology.NodeID) bool { return false }
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.Run(5 * time.Second)

	if len(h.clients[0].results) != 1 || h.clients[0].results[0] {
		t.Fatalf("expected failed completion, got %v", h.clients[0].results)
	}
	st := h.stations[0].Stats()
	if st.Drops != 1 {
		t.Errorf("drops = %d, want 1", st.Drops)
	}
	if st.Retries != int64(h.medium.Params().RetryLimit)+1 {
		t.Errorf("retries = %d, want %d", st.Retries, h.medium.Params().RetryLimit+1)
	}
	if len(h.clients[1].received) != 0 {
		t.Error("refused packet was delivered")
	}
}

func TestAdmissionRecoversWhenQueueOpens(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	full := true
	h.clients[1].accept = func(packet.QueueID, topology.NodeID) bool { return !full }
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.After(20*time.Millisecond, func() { full = false })
	h.sched.Run(time.Second)
	if len(h.clients[1].received) != 1 {
		t.Fatal("packet not delivered after queue opened")
	}
	if h.stations[0].Stats().Retries == 0 {
		t.Error("expected at least one retry while the queue was full")
	}
}

func TestContendingSendersBothDeliver(t *testing.T) {
	// 0 and 2 both in range of 1 and of each other: carrier sense plus
	// backoff shares the channel; both complete.
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 150, Y: 130}}, DefaultConfig())
	const n = 20
	for i := 0; i < n; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
		h.clients[2].outgoing = append(h.clients[2].outgoing, &Outgoing{Pkt: pkt(1, 2, 1, int64(i)), NextHop: 1})
	}
	h.stations[0].Kick()
	h.stations[2].Kick()
	h.sched.Run(2 * time.Second)
	if got := len(h.clients[1].received); got != 2*n {
		t.Fatalf("received %d, want %d", got, 2*n)
	}
}

func TestDuplicateSuppressionUnderAckLoss(t *testing.T) {
	topo, err := topology.New([]geom.Point{{X: 0}, {X: 200}}, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	par := radio.DefaultParams()
	par.LossProb = 0.15
	h := newMACHarnessParams(t, topo, DefaultConfig(), par)
	const n = 100
	for i := 0; i < n; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
	}
	h.stations[0].Kick()
	h.sched.Run(30 * time.Second)

	seen := make(map[int64]bool)
	last := int64(-1)
	for _, p := range h.clients[1].received {
		if seen[p.Seq] {
			t.Fatalf("duplicate delivery of seq %d", p.Seq)
		}
		seen[p.Seq] = true
		if p.Seq <= last {
			t.Fatalf("reordered delivery: %d after %d", p.Seq, last)
		}
		last = p.Seq
	}
	// With retries, the vast majority must get through.
	if len(seen) < n*9/10 {
		t.Errorf("only %d/%d delivered under 15%% loss", len(seen), n)
	}
}

func TestPiggybackOverheard(t *testing.T) {
	// Node 2 is in range of node 0 but not addressed: it must still
	// learn node 0's buffer states.
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 100, Y: 150}}, DefaultConfig())
	h.clients[0].states = []packet.QueueState{{Queue: 7, Free: false}}
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.Run(100 * time.Millisecond)

	got, ok := h.clients[2].overheard[0]
	if !ok || len(got) != 1 || got[0].Queue != 7 || got[0].Free {
		t.Errorf("overheard states = %v", got)
	}
	// Node 2's neighbors are 0 and 1, in that order.
	if slot := h.clients[2].slots[0]; slot != 0 {
		t.Errorf("node 0 heard at slot %d, want 0", slot)
	}
	if slot := h.clients[1].slots[0]; slot != 0 {
		t.Errorf("node 1 heard node 0 at slot %d, want 0", slot)
	}
	// Node 1 advertises nothing, so its CTS and ACK reach no client.
	if got, ok := h.clients[2].overheard[1]; ok {
		t.Errorf("OnOverhear called for a frame without states: %v", got)
	}
}

func TestHiddenTerminalEventuallyDelivers(t *testing.T) {
	// Chain 0-1-2-3 with both 0->1 and 2->3 backlogged: the hidden
	// terminal makes 0's life hard, but retries and NAV keep both flows
	// moving (the unfairness shows in the counts).
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	h := newMACHarness(t, pos, DefaultConfig())
	const n = 200
	for i := 0; i < n; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
		h.clients[2].outgoing = append(h.clients[2].outgoing, &Outgoing{Pkt: pkt(1, 2, 3, int64(i)), NextHop: 3})
	}
	h.stations[0].Kick()
	h.stations[2].Kick()
	h.sched.Run(10 * time.Second)

	got01 := len(h.clients[1].received)
	got23 := len(h.clients[3].received)
	if got23 != n {
		t.Errorf("unhindered flow delivered %d/%d", got23, n)
	}
	if got01 == 0 {
		t.Error("hidden-terminal flow completely starved in MAC test")
	}
	if got01 >= got23 {
		t.Errorf("expected hidden-terminal disadvantage: %d vs %d", got01, got23)
	}
}

func TestKickWhileBusyIsSafe(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	for i := 1; i <= 10; i++ {
		h.sched.At(time.Duration(i)*100*time.Microsecond, h.stations[0].Kick)
	}
	h.sched.Run(100 * time.Millisecond)
	if len(h.clients[1].received) != 1 {
		t.Fatalf("received %d, want exactly 1", len(h.clients[1].received))
	}
}

func TestLatePacketArrival(t *testing.T) {
	// MAC idles with an empty client, then a packet shows up.
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.stations[0].Kick() // nothing to send
	h.sched.After(50*time.Millisecond, func() {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, 0), NextHop: 1})
		h.stations[0].Kick()
	})
	h.sched.Run(time.Second)
	if len(h.clients[1].received) != 1 {
		t.Fatal("late packet not delivered")
	}
}

func TestThroughputNearSaturationEstimate(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	const n = 400
	for i := 0; i < n; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
	}
	h.stations[0].Kick()
	dur := 500 * time.Millisecond
	h.sched.Run(dur)
	got := float64(len(h.clients[1].received)) / dur.Seconds()
	want := h.medium.Params().SaturationRate(1024, true)
	if got < want*0.85 || got > want*1.15 {
		t.Errorf("measured saturation %.1f pkt/s, estimate %.1f", got, want)
	}
}

func TestNAVSuppressesThirdParty(t *testing.T) {
	// 0 transmits to 1; node 2 (in range of both) has a packet for 1.
	// Its access must not corrupt the ongoing exchange — everything is
	// eventually delivered collision-free under carrier sense + NAV.
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 100, Y: 140}}, DefaultConfig())
	for i := 0; i < 10; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
	}
	h.clients[2].outgoing = []*Outgoing{{Pkt: pkt(1, 2, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.stations[2].Kick()
	h.sched.Run(time.Second)
	if got := len(h.clients[1].received); got != 11 {
		t.Fatalf("received %d, want 11", got)
	}
	if h.medium.Stats().Corrupted > 2 {
		// An occasional simultaneous backoff expiry can collide, but NAV
		// plus carrier sense keeps it rare on this tiny scenario.
		t.Errorf("too many corrupted deliveries: %+v", h.medium.Stats())
	}
}

// TestBackoffSourceSeededOnFirstDraw pins the lazily seeded backoff
// source on the hidden-terminal chain, whose retries widen the window:
// the receivers, which never contend, hold no source; a station's first
// backoff is sim.NewRand(seed)'s first draw; and the run matches, counter
// for counter and draw for draw, one whose stations were seeded at
// construction.
func TestBackoffSourceSeededOnFirstDraw(t *testing.T) {
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	run := func(eager bool) *macHarness {
		h := newMACHarness(t, pos, DefaultConfig())
		if eager {
			for _, st := range h.stations {
				st.rng = sim.NewRand(st.seed)
			}
		}
		for i := 0; i < 100; i++ {
			h.clients[0].outgoing = append(h.clients[0].outgoing, &Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
			h.clients[2].outgoing = append(h.clients[2].outgoing, &Outgoing{Pkt: pkt(1, 2, 3, int64(i)), NextHop: 3})
		}
		for _, id := range []int{0, 2} {
			st := h.stations[id]
			st.Kick()
			if want := sim.NewRand(st.seed).Intn(st.cw + 1); st.backoffSlots != want {
				t.Fatalf("eager %v: station %d first backoff %d, want %d", eager, id, st.backoffSlots, want)
			}
		}
		h.sched.Run(5 * time.Second)
		return h
	}
	lazy, eager := run(false), run(true)
	for id, st := range lazy.stations {
		e := eager.stations[id]
		if st.Stats() != e.Stats() {
			t.Errorf("station %d: lazy stats %+v, eager %+v", id, st.Stats(), e.Stats())
		}
		if got, want := len(lazy.clients[id].received), len(eager.clients[id].received); got != want {
			t.Errorf("station %d: lazy received %d, eager %d", id, got, want)
		}
		if contends := id == 0 || id == 2; !contends {
			if st.rng != nil {
				t.Errorf("station %d never contends but holds a random source", id)
			}
		} else if st.rng == nil || st.rng.Int63() != e.rng.Int63() {
			t.Errorf("station %d drew a different backoff sequence from the eagerly seeded one", id)
		}
	}
	if lazy.stations[0].Stats().Retries == 0 {
		t.Fatal("no retries: the run never widened a contention window")
	}
}

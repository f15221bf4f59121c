package measure

import (
	"math"
	"testing"
	"time"

	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/mac"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

const period = 4 * time.Second

// harness builds forwarding nodes on a chain with a shared medium (for
// occupancy) but drives traffic by hand rather than through the MAC.
type harness struct {
	sched  *sim.Scheduler
	nodes  []*forwarding.Node
	medium *radio.Medium
	col    *Collector
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 200}
	}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(1))
	routes := routing.Build(topo)
	h := &harness{sched: sched, medium: medium}
	for _, id := range topo.Nodes() {
		h.nodes = append(h.nodes, forwarding.NewNode(id, sched, forwarding.DefaultConfig(), routes, nil, nil))
	}
	h.col = NewCollector(h.nodes, medium, DefaultOmegaThreshold)
	return h
}

func pk(flow packet.FlowID, src, dst topology.NodeID, mu float64) *packet.Packet {
	return &packet.Packet{
		Flow: flow, Src: src, Dst: dst, SizeBytes: 1024, Weight: 1,
		NormRate: mu, Stamped: mu > 0,
	}
}

// sendAcked simulates n acknowledged transmissions of stamped packets on
// the virtual link (from -> next hop toward dst).
func (h *harness) sendAcked(node topology.NodeID, flow packet.FlowID, dst topology.NodeID, mu float64, n int) {
	for i := 0; i < n; i++ {
		p := pk(flow, node, dst, mu)
		if !h.nodes[node].Enqueue(p) {
			h.nodes[node].NextOutgoing() // make room
			h.nodes[node].Enqueue(p)
		}
		out := h.nodes[node].NextOutgoing()
		h.nodes[node].OnSendComplete(out, true)
	}
}

func TestCollectorVLinkRates(t *testing.T) {
	h := newHarness(t, 4)
	h.sendAcked(0, 0, 3, 50, 200)
	h.sched.Run(period)
	snap := h.col.Collect(period)

	key := forwarding.VLinkKey{From: 0, To: 1, Queue: packet.QueueForDest(3)}
	st := snap.VLinks[key]
	if st == nil {
		t.Fatal("virtual link missing from snapshot")
	}
	if math.Abs(st.Rate-50) > 1e-9 {
		t.Errorf("rate = %v, want 50 (200 packets / 4 s)", st.Rate)
	}
	if st.NormRate != 50 {
		t.Errorf("norm rate = %v, want 50", st.NormRate)
	}
	if src, ok := st.Primaries[0]; !ok || src != 0 {
		t.Errorf("primaries = %v", st.Primaries)
	}
}

func TestCollectorUpstreamIndex(t *testing.T) {
	h := newHarness(t, 4)
	h.sendAcked(0, 0, 3, 10, 40)
	h.sendAcked(2, 1, 3, 20, 40)
	h.sched.Run(period)
	snap := h.col.Collect(period)

	ups := snap.Upstream(VNodeID{Node: 1, Queue: packet.QueueForDest(3)})
	if len(ups) != 1 || ups[0].Key.From != 0 {
		t.Fatalf("upstream of 1_3 = %v", ups)
	}
	ups3 := snap.Upstream(VNodeID{Node: 3, Queue: packet.QueueForDest(3)})
	if len(ups3) != 1 || ups3[0].Key.From != 2 {
		t.Fatalf("upstream of 3_3 = %v", ups3)
	}
}

func TestLinkClassification(t *testing.T) {
	h := newHarness(t, 4)
	q3 := packet.QueueForDest(3)

	// Saturate node 0's queue for the full period; keep node 1's empty.
	for i := 0; i < forwarding.DefaultConfig().QueueSlots; i++ {
		h.nodes[0].Enqueue(pk(0, 0, 3, 10))
	}
	// One acked packet so the link appears in the snapshot.
	out := h.nodes[0].NextOutgoing()
	h.nodes[0].OnSendComplete(out, true)
	h.nodes[0].Enqueue(pk(0, 0, 3, 10)) // refill to stay full

	// Saturate node 2's queue too, with traffic to 3 (sender of (2,3)).
	for i := 0; i < forwarding.DefaultConfig().QueueSlots; i++ {
		h.nodes[2].Enqueue(pk(1, 2, 3, 20))
	}
	out2 := h.nodes[2].NextOutgoing()
	h.nodes[2].OnSendComplete(out2, true)
	h.nodes[2].Enqueue(pk(1, 2, 3, 20))

	h.sched.Run(period)
	snap := h.col.Collect(period)

	if !snap.VNodeSaturated(VNodeID{Node: 0, Queue: q3}) {
		t.Fatal("node 0's queue should be saturated")
	}
	if snap.VNodeSaturated(VNodeID{Node: 1, Queue: q3}) {
		t.Fatal("node 1's queue should be unsaturated")
	}

	// (0,1): sender saturated, receiver not -> bandwidth-saturated.
	st01 := snap.VLinks[forwarding.VLinkKey{From: 0, To: 1, Queue: q3}]
	if st01.Type != BandwidthSaturated {
		t.Errorf("(0_3,1_3) type = %v, want bandwidth-saturated", st01.Type)
	}
	// (2,3): receiver is the destination (never saturated) ->
	// bandwidth-saturated as well.
	st23 := snap.VLinks[forwarding.VLinkKey{From: 2, To: 3, Queue: q3}]
	if st23.Type != BandwidthSaturated {
		t.Errorf("(2_3,3_3) type = %v, want bandwidth-saturated", st23.Type)
	}
}

func TestBufferSaturatedClassification(t *testing.T) {
	h := newHarness(t, 4)
	q3 := packet.QueueForDest(3)
	slots := forwarding.DefaultConfig().QueueSlots

	// Both node 0 and node 1 queues full all period.
	for i := 0; i < slots; i++ {
		h.nodes[0].Enqueue(pk(0, 0, 3, 10))
		h.nodes[1].Enqueue(pk(0, 0, 3, 10))
	}
	out := h.nodes[0].NextOutgoing()
	h.nodes[0].OnSendComplete(out, true)
	h.nodes[0].Enqueue(pk(0, 0, 3, 10))

	h.sched.Run(period)
	snap := h.col.Collect(period)
	st01 := snap.VLinks[forwarding.VLinkKey{From: 0, To: 1, Queue: q3}]
	if st01 == nil {
		t.Fatal("(0,1) missing")
	}
	if st01.Type != BufferSaturated {
		t.Errorf("type = %v, want buffer-saturated", st01.Type)
	}
}

func TestUnsaturatedClassification(t *testing.T) {
	h := newHarness(t, 4)
	h.sendAcked(0, 0, 3, 10, 8) // light traffic, queue never lingers full
	h.sched.Run(period)
	snap := h.col.Collect(period)
	st := snap.VLinks[forwarding.VLinkKey{From: 0, To: 1, Queue: packet.QueueForDest(3)}]
	if st.Type != Unsaturated {
		t.Errorf("type = %v, want unsaturated", st.Type)
	}
}

func TestOmegaThreshold(t *testing.T) {
	h := newHarness(t, 4)
	q3 := packet.QueueForDest(3)
	slots := forwarding.DefaultConfig().QueueSlots
	// Fill node 0's queue only for 20% of the period: below the 25%
	// threshold.
	for i := 0; i < slots; i++ {
		h.nodes[0].Enqueue(pk(0, 0, 3, 10))
	}
	h.sched.At(period/5, func() { h.nodes[0].NextOutgoing() })
	h.sched.Run(period)
	snap := h.col.Collect(period)
	omega := snap.Omega[VNodeID{Node: 0, Queue: q3}]
	if math.Abs(omega-0.2) > 0.01 {
		t.Fatalf("omega = %v, want 0.2", omega)
	}
	if snap.VNodeSaturated(VNodeID{Node: 0, Queue: q3}) {
		t.Error("20% full classified as saturated at 25% threshold")
	}
}

func TestWirelessLinkAggregation(t *testing.T) {
	h := newHarness(t, 4)
	// Two destinations through the same wireless link (0,1).
	h.sendAcked(0, 0, 3, 30, 20)
	h.sendAcked(0, 1, 2, 70, 20)
	h.sched.Run(period)
	snap := h.col.Collect(period)
	wl := snap.WLinks[topology.Link{From: 0, To: 1}]
	if wl == nil {
		t.Fatal("wireless link missing")
	}
	if wl.NormRate != 70 {
		t.Errorf("wireless link norm rate = %v, want max(30,70)", wl.NormRate)
	}
	if got := snap.UndirectedNormRate(topology.Link{From: 1, To: 0}); got != 70 {
		t.Errorf("undirected lookup = %v, want 70", got)
	}
}

func TestOccupancyFromMedium(t *testing.T) {
	h := newHarness(t, 4)
	// Full MAC wiring: every node needs a registered station.
	var stations []*mac.Station
	for i, n := range h.nodes {
		st := mac.NewStation(topology.NodeID(i), h.sched, h.medium, mac.DefaultConfig(), int64(i+2), n)
		n.SetMAC(st)
		stations = append(stations, st)
	}
	for i := 0; i < 10; i++ {
		h.nodes[0].Enqueue(pk(0, 0, 3, 10))
	}
	stations[0].Kick()
	h.sched.Run(period)
	snap := h.col.Collect(period)
	occ := snap.UndirectedOccupancy(topology.Link{From: 0, To: 1})
	if occ <= 0 || occ > 0.1 {
		t.Errorf("occupancy = %v, want small positive fraction", occ)
	}
}

func TestCollectResetsCounters(t *testing.T) {
	h := newHarness(t, 4)
	h.sendAcked(0, 0, 3, 10, 40)
	h.sched.Run(period)
	first := h.col.Collect(period)
	if len(first.VLinks) == 0 {
		t.Fatal("first snapshot empty")
	}
	h.sched.Run(2 * period)
	second := h.col.Collect(period)
	if len(second.VLinks) != 0 {
		t.Error("second snapshot not empty after reset")
	}
}

func TestNewCollectorValidatesThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid threshold accepted")
		}
	}()
	NewCollector(nil, nil, 1.5)
}

func TestLinkTypeStrings(t *testing.T) {
	for lt, want := range map[LinkType]string{
		Unsaturated:        "unsaturated",
		BufferSaturated:    "buffer-saturated",
		BandwidthSaturated: "bandwidth-saturated",
	} {
		if lt.String() != want {
			t.Errorf("%d = %q", int(lt), lt.String())
		}
	}
}

func TestOccupancyBoard(t *testing.T) {
	h := newHarness(t, 2)
	board := NewOccupancyBoard(h.medium, period)
	// Put one data frame on the air via the raw medium through a MAC
	// station pair.
	var stations []*mac.Station
	for i, n := range h.nodes {
		st := mac.NewStation(topology.NodeID(i), h.sched, h.medium, mac.DefaultConfig(), int64(i+7), n)
		n.SetMAC(st)
		stations = append(stations, st)
	}
	h.nodes[0].Enqueue(pk(0, 0, 1, 10))
	stations[0].Kick()
	h.sched.Run(period)
	board.Sample()
	if board.Fraction(topology.Link{From: 0, To: 1}) <= 0 {
		t.Error("board missed the transmission")
	}
	// Sampling again over an idle period resets to zero.
	h.sched.Run(2 * period)
	board.Sample()
	if board.Fraction(topology.Link{From: 0, To: 1}) != 0 {
		t.Error("board not reset")
	}
}

func TestNewOccupancyBoardValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period accepted")
		}
	}()
	NewOccupancyBoard(nil, 0)
}

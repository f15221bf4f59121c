package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// oracleKey names one frame's reception at one node.
type oracleKey struct {
	seq int64
	n   topology.NodeID
}

// allPairsOracle is the interference rule the medium's stamps replace,
// in its original all-pairs form: when a frame goes on the air it is
// checked against every frame already in flight, and each corrupts the
// other at those of its transmitter's receivers the other carrier
// reaches (the other transmitter itself included: half duplex). It reads
// the topology at that instant, as the medium must.
type allPairsOracle struct {
	topo   *topology.Topology
	m      *Medium
	latest []int64 // per node: sequence number of its latest frame
	marked map[oracleKey]bool
}

// start records the frame seq that src just put on the air.
func (o *allPairsOracle) start(src topology.NodeID, seq int64) {
	for u, useq := range o.latest {
		other := topology.NodeID(u)
		if other == src || !o.m.Transmitting(other) {
			continue
		}
		o.mark(seq, src, other)
		o.mark(useq, other, src)
	}
	o.latest[src] = seq
}

// mark corrupts the victim frame (seq, sent by vsrc) at every receiver
// of vsrc within interference range of source.
func (o *allPairsOracle) mark(seq int64, vsrc, source topology.NodeID) {
	for _, n := range o.topo.Neighbors(vsrc) {
		if n == source || o.topo.InCSRange(source, n) {
			o.marked[oracleKey{seq, n}] = true
		}
	}
}

// oracleTally counts deliveries across all stations of one run.
type oracleTally struct{ clean, corrupted, mismatches, badSlots int }

// oracleStation checks every delivery against the oracle: a reception
// succeeds exactly when no overlapping carrier reached the receiver and
// the receiver is not itself on the air. It also checks that the slot
// names the transmitter in the receiver's neighbor list as it is now.
type oracleStation struct {
	t     *testing.T
	id    topology.NodeID
	o     *allPairsOracle
	tally *oracleTally
}

func (s *oracleStation) OnBusy() {}
func (s *oracleStation) OnIdle() {}
func (s *oracleStation) OnFrame(f *Frame, ok bool, slot int) {
	if nbrs := s.o.topo.Neighbors(s.id); slot < 0 || slot >= len(nbrs) || nbrs[slot] != f.From {
		s.tally.badSlots++
		if s.tally.badSlots <= 5 {
			s.t.Errorf("frame %d from %d at node %d: slot %d in neighbor list %v", f.ID, f.From, s.id, slot, nbrs)
		}
	}
	want := !s.o.marked[oracleKey{f.ID, s.id}] && !s.o.m.Transmitting(s.id)
	if ok != want {
		s.tally.mismatches++
		if s.tally.mismatches <= 5 {
			s.t.Errorf("frame %d (%v from %d) at node %d: ok=%v, all-pairs oracle says %v",
				f.ID, f.Kind, f.From, s.id, ok, want)
		}
	}
	if ok {
		s.tally.clean++
	} else {
		s.tally.corrupted++
	}
}

// TestInterferenceMatchesAllPairsOracle drives the medium with random
// overlapping traffic — unicast data and control frames, broadcasts,
// transmissions starting at the same instant — and checks every
// delivery's outcome against the all-pairs oracle, and its slot against
// the receiver's neighbor list. The moving variants relocate nodes
// mid-flight through Begin/EndTopologyChange, where corruption must
// follow the neighbor lists as they were when each interfering carrier
// started, and slots the lists as they are at delivery.
func TestInterferenceMatchesAllPairsOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   topology.Config
		moves bool
	}{
		{"cs=tx", topology.DefaultConfig(), false},
		{"cs>tx", topology.Config{TxRange: 250, CSRange: 450}, false},
		{"cs=tx/moving", topology.DefaultConfig(), true},
		{"cs>tx/moving", topology.Config{TxRange: 250, CSRange: 450}, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				runOracle(t, tc.cfg, tc.moves, seed)
			})
		}
	}
}

func runOracle(t *testing.T, cfg topology.Config, moves bool, seed int64) {
	const (
		nodes    = 40
		side     = 1000.0
		horizon  = 2 * time.Second
		attempts = 20000
	)
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Point, nodes)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	topo, err := topology.New(pos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	m := NewMedium(sched, topo, DefaultParams(), sim.NewRand(seed))
	o := &allPairsOracle{topo: topo, m: m, latest: make([]int64, nodes), marked: make(map[oracleKey]bool)}
	tally := &oracleTally{}
	for _, id := range topo.Nodes() {
		m.Register(id, &oracleStation{t: t, id: id, o: o, tally: tally})
	}

	var at time.Duration
	for i := 0; i < attempts; i++ {
		// One attempt in eight shares the previous one's instant.
		if i%8 != 0 {
			at = time.Duration(rng.Int63n(int64(horizon)))
		}
		src := topology.NodeID(rng.Intn(nodes))
		kind := rng.Intn(4)
		size := 64 + rng.Intn(1400)
		sched.At(at, func() {
			if m.Transmitting(src) {
				return
			}
			f := oracleFrame(topo, src, kind, size)
			m.Transmit(src, f, nil)
			o.start(src, f.ID)
		})
	}
	if moves {
		for at := 7 * time.Millisecond; at < horizon; at += 7 * time.Millisecond {
			sched.At(at, func() {
				moved := rng.Perm(nodes)[:4]
				ids := make([]topology.NodeID, len(moved))
				np := make([]geom.Point, len(moved))
				for i, v := range moved {
					ids[i] = topology.NodeID(v)
					// Short hops keep links appearing and vanishing at the
					// range boundary rather than teleporting.
					p := topo.Position(ids[i])
					np[i] = geom.Point{X: p.X + rng.Float64()*120 - 60, Y: p.Y + rng.Float64()*120 - 60}
				}
				m.BeginTopologyChange()
				diff, err := topo.MoveNodes(ids, np)
				if err != nil {
					t.Fatal(err)
				}
				m.EndTopologyChange(diff.OldLinks)
			})
		}
	}
	sched.Run(horizon + time.Second)

	st := m.Stats()
	if got := int64(tally.clean + tally.corrupted); got != st.Delivered+st.Corrupted {
		t.Errorf("stations saw %d deliveries, stats count %d", got, st.Delivered+st.Corrupted)
	}
	// The traffic must exercise both outcomes heavily, or the comparison
	// proves nothing.
	if tally.clean < 1000 || tally.corrupted < 1000 {
		t.Errorf("degenerate traffic: %d clean and %d corrupted deliveries", tally.clean, tally.corrupted)
	}
}

// oracleFrame builds a fresh frame of one of four kinds from src.
func oracleFrame(topo *topology.Topology, src topology.NodeID, kind, size int) *Frame {
	to := src
	if nb := topo.Neighbors(src); len(nb) > 0 {
		to = nb[size%len(nb)]
	}
	switch kind {
	case 0:
		return &Frame{Kind: FrameRTS, To: to, LinkFrom: src, LinkTo: to}
	case 1:
		return &Frame{Kind: FrameAck, To: to, LinkFrom: to, LinkTo: src}
	case 2:
		return &Frame{Kind: FrameBroadcast, To: Broadcast, LinkFrom: src, LinkTo: src, ControlBytes: size / 8}
	default:
		return &Frame{
			Kind: FrameData, To: to, LinkFrom: src, LinkTo: to,
			Data: &packet.Packet{Src: src, Dst: to, SizeBytes: size},
		}
	}
}

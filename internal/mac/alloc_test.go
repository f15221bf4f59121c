package mac

import (
	"math"
	"runtime"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// loopClient is an allocation-free upper layer. Each time ready is set it
// offers one packet, reusing a single Outgoing record and packet whose
// sequence number rises so the receiver's duplicate filter passes it up;
// everything it is handed it only counts.
type loopClient struct {
	out        Outgoing
	ready      bool
	acked      int
	received   int
	broadcasts int
	states     []packet.QueueState
}

func (c *loopClient) NextOutgoing() *Outgoing {
	if !c.ready {
		return nil
	}
	c.ready = false
	c.out.Pkt.Seq++
	return &c.out
}

func (c *loopClient) OnSendComplete(_ *Outgoing, ok bool) {
	if ok {
		c.acked++
	}
}

func (c *loopClient) OnReceive(*packet.Packet, topology.NodeID) { c.received++ }

func (c *loopClient) AppendPiggyback(dst []packet.QueueState) []packet.QueueState {
	return append(dst, c.states...)
}

func (c *loopClient) OnOverhear(topology.NodeID, int, []packet.QueueState) {}

func (c *loopClient) AcceptQueue(packet.QueueID, topology.NodeID) bool { return true }

func (c *loopClient) OnBroadcast(topology.NodeID, any) { c.broadcasts++ }

// linkState stands in for a link-state record: a pointer payload, so
// handing it to QueueBroadcast as an interface allocates nothing.
type linkState struct{ seq int }

// TestExchangeAllocs pins the MAC's steady state at zero allocations: a
// warm two-station RTS/CTS/DATA/ACK exchange and a control broadcast draw
// their frames from the medium's pool, their SIFS responses from the
// station's response records, and their timers from the scheduler's
// event pool.
func TestExchangeAllocs(t *testing.T) {
	topo, err := topology.New([]geom.Point{{X: 0}, {X: 200}}, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(1))
	var clients [2]*loopClient
	var stations [2]*Station
	for i := range clients {
		id := topology.NodeID(i)
		clients[i] = &loopClient{states: []packet.QueueState{{Queue: packet.QueueForDest(1 - id), Free: true}}}
		stations[i] = NewStation(id, sched, medium, DefaultConfig(), int64(i+2), clients[i])
	}
	tx, rx := clients[0], clients[1]
	tx.out = Outgoing{
		Pkt:     &packet.Packet{Src: 0, Dst: 1, SizeBytes: 1024, Weight: 1},
		NextHop: 1,
		Queue:   packet.QueueForDest(1),
		Origin:  0,
	}
	payload := &linkState{seq: 1}

	exchange := func() {
		tx.ready = true
		stations[0].Kick()
		sched.Run(sched.Now() + 10*time.Millisecond)
	}
	broadcast := func() {
		stations[0].QueueBroadcast(payload, 64)
		sched.Run(sched.Now() + 10*time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		exchange()
		broadcast()
	}

	if avg := testing.AllocsPerRun(200, exchange); avg != 0 {
		t.Errorf("RTS/CTS/DATA/ACK exchange allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, broadcast); avg != 0 {
		t.Errorf("control broadcast allocates %.1f objects, want 0", avg)
	}
	// 16 warm-up rounds plus AllocsPerRun's own warm-up call and 200 runs.
	const want = 16 + 1 + 200
	if tx.acked != want || rx.received != want {
		t.Errorf("acked %d, received %d, want %d each", tx.acked, rx.received, want)
	}
	if rx.broadcasts != want {
		t.Errorf("broadcasts received %d, want %d", rx.broadcasts, want)
	}
	if st := stations[0].Stats(); st.Retries != 0 {
		t.Errorf("clean link retried: %+v", st)
	}
}

// TestNewStationAllocs pins a station's set-up at one object of at most
// 448 bytes: NewStation allocates the Station alone, which points at the
// medium's PHY constants instead of copying them. A station that only
// overhears then binds no callback and makes no duplicate filter; the
// receiver of an exchange binds its callbacks for its SIFS responses and
// makes the filter, and the sender binds its callbacks and seeds its
// backoff source.
func TestNewStationAllocs(t *testing.T) {
	const n, runs, stationBytes = 64, 5, 448
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 150}
	}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	// A medium takes each station once: AllocsPerRun makes one warm-up
	// call before its runs, and the byte count takes runs more.
	media := make([]*radio.Medium, 2*runs+1)
	for i := range media {
		media[i] = radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(1))
	}
	stations := make([]*Station, n)
	client := &loopClient{}
	next := 0
	construct := func() {
		m := media[next]
		next++
		for i := range stations {
			stations[i] = NewStation(topology.NodeID(i), sched, m, DefaultConfig(), int64(i), client)
		}
	}
	allocs := testing.AllocsPerRun(runs, construct)
	if allocs != n {
		t.Errorf("constructing %d stations allocates %v objects, want %d", n, allocs, n)
	}
	// Bytes are the runtime.MemStats.TotalAlloc delta, least of the runs.
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		construct()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > n*stationBytes {
		t.Errorf("constructing %d stations allocates %d bytes, want at most %d (%d per station)", n, least, n*stationBytes, stationBytes)
	}
	if stations[0].par != media[next-1].Params() {
		t.Error("station holds its own copy of the PHY constants, not the medium's")
	}

	bound := func(s *Station) int {
		k := 0
		for _, fn := range []func(){s.onDIFSDoneFn, s.onBackoffDoneFn, s.onExchangeTimeoutFn, s.evaluateFn,
			s.onRTSAiredFn, s.onDataAiredFn, s.onBroadcastAiredFn, s.onCTSSIFSDoneFn, s.onResponseAiredFn} {
			if fn != nil {
				k++
			}
		}
		return k
	}
	// Node 2 hears node 1's CTS and ACK, and node 1's advert with them.
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}}, DefaultConfig())
	h.clients[1].states = []packet.QueueState{{Queue: packet.QueueForDest(1), Free: true}}
	h.clients[0].outgoing = []*Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.Run(100 * time.Millisecond)
	if len(h.clients[1].received) != 1 || len(h.clients[2].overheard[1]) == 0 {
		t.Fatalf("exchange delivered %d packets and node 2 overheard %v, want 1 and node 1's advert", len(h.clients[1].received), h.clients[2].overheard)
	}
	for id, want := range []struct {
		bound          int
		lastSeq, seeds bool
	}{{9, false, true}, {9, true, false}, {0, false, false}} {
		st := h.stations[id]
		if got := bound(st); got != want.bound || (st.lastSeq != nil) != want.lastSeq || (st.rng != nil) != want.seeds {
			t.Errorf("station %d: %d bound callbacks, lastSeq made %v, backoff source %v; want %d, %v, %v",
				id, got, st.lastSeq != nil, st.rng != nil, want.bound, want.lastSeq, want.seeds)
		}
	}
}

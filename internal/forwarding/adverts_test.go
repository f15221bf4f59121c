package forwarding

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// advertModel is the map-of-maps neighbor state the slice store must
// reproduce: per neighbor, per queue, the last advertised bit and when
// it was heard.
type advertModel map[topology.NodeID]map[packet.QueueID]nbrAdvert

// hear merges an advert and reports whether it opened room.
func (m advertModel) hear(from topology.NodeID, states []packet.QueueState, now time.Duration) bool {
	if len(states) == 0 {
		return false
	}
	cache := m[from]
	if cache == nil {
		cache = make(map[packet.QueueID]nbrAdvert)
		m[from] = cache
	}
	opened := false
	for _, st := range states {
		prev, known := cache[st.Queue]
		cache[st.Queue] = nbrAdvert{queue: st.Queue, free: st.Free, at: now}
		if st.Free && (!known || !prev.free) {
			opened = true
		}
	}
	return opened
}

// starNode builds node 0 of a four-arm star: arm nodes 1-4 at 200 m and
// arm ends 5-8 at 400 m, so an end is two hops away through its arm
// node and an arm node is a final hop.
func starNode(t testing.TB, cfg Config) (*Node, *sim.Scheduler) {
	t.Helper()
	pos := []geom.Point{{}, {X: 200}, {Y: 200}, {X: -200}, {Y: -200}, {X: 400}, {Y: 400}, {X: -400}, {Y: -400}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	return NewNode(0, sched, cfg, routing.Build(topo), nil, nil), sched
}

// TestAdvertOracle replays seeded random sequences of adverts from new
// and known neighbors (subsets of each neighbor's queues, in its creation
// order or shuffled), each filed under the neighbor's slot, clock steps
// around StaleAfter, neighbor-state resets and queue releases against
// advertModel. After every step it checks NextOutgoing's gating (which
// queue is served, or that none is and when the retry kick fires) and,
// after an advert, whether it opened room. A last case hands one slot to
// a second neighbor without a reset.
func TestAdvertOracle(t *testing.T) {
	const (
		flows    = 7
		universe = 10 // queue IDs the neighbors advertise
		stale    = 10 * time.Millisecond
	)
	// The arm nodes are the next hops, at slots 0-3 of node 0's list; 6
	// and 9 are heard at slots 4 and 5 but are never a next hop.
	senders := []topology.NodeID{1, 2, 3, 4, 6, 9}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{Mode: PerFlow, QueueSlots: 4, CongestionAvoidance: true, StaleAfter: stale}
			n, sched := starNode(t, cfg)
			model := advertModel{}
			// Flows 0-5 run to the arm ends, flow 6 to an arm node (a
			// final hop, which no advert gates).
			dstOf := func(f packet.FlowID) topology.NodeID {
				if f == 6 {
					return 2
				}
				return topology.NodeID(int(f)%4 + 5)
			}
			live := make([]bool, flows)
			for f := range live {
				live[f] = true
			}
			// Each sender's queues in creation order; a re-created queue
			// moves to the end, as a real neighbor's would.
			lists := make(map[topology.NodeID][]packet.QueueID)

			checkGating := func(step int, what string) {
				t.Helper()
				for f, ok := range live {
					if ok && n.QueueLen(packet.QueueForFlow(packet.FlowID(f))) == 0 {
						n.Enqueue(pk(packet.FlowID(f), 0, dstOf(packet.FlowID(f)), int64(step)))
					}
				}
				now := sched.Now()
				ids := n.Queues()
				want, retry := packet.QueueID(-1), time.Duration(-1)
				for k := range ids {
					qid := ids[(n.rrOffset+k)%len(ids)]
					dst := dstOf(packet.FlowID(qid))
					nh, _ := n.routes.NextHop(0, dst)
					if e, known := model[nh][qid]; nh != dst && known && !e.free && now-e.at < stale {
						if r := e.at + stale; retry < 0 || r < retry {
							retry = r
						}
						continue
					}
					want = qid
					break
				}
				n.kickTimer.Cancel()
				out := n.NextOutgoing()
				switch {
				case want >= 0 && (out == nil || out.Queue != want):
					t.Fatalf("step %d (%s): served %v, want queue %d", step, what, out, want)
				case want < 0 && out != nil:
					t.Fatalf("step %d (%s): served queue %d, want every queue blocked", step, what, out.Queue)
				case want < 0 && len(ids) > 0:
					if sched.Pending() != 1 {
						t.Fatalf("step %d (%s): %d pending events, want the retry kick", step, what, sched.Pending())
					}
					if rng.Intn(2) == 0 {
						n.kickTimer.Cancel()
						break
					}
					sched.Step()
					if sched.Now() != retry {
						t.Fatalf("step %d (%s): retry kick at %v, want %v", step, what, sched.Now(), retry)
					}
				}
			}

			for step := 0; step < 3000; step++ {
				var what string
				switch r := rng.Intn(20); {
				case r < 11:
					slot := rng.Intn(len(senders))
					from := senders[slot]
					list := lists[from]
					if len(list) < 8 && (len(list) == 0 || rng.Intn(3) == 0) {
						q := packet.QueueID(rng.Intn(universe))
						if !slices.Contains(list, q) {
							list = append(list, q)
						}
					}
					if len(list) > 0 && rng.Intn(6) == 0 {
						k := rng.Intn(len(list))
						list = slices.Delete(list, k, k+1)
					}
					lists[from] = list
					var states []packet.QueueState
					for _, q := range list {
						if rng.Intn(5) > 0 {
							states = append(states, packet.QueueState{Queue: q, Free: rng.Intn(3) == 0})
						}
					}
					if rng.Intn(4) == 0 {
						rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
					}
					now := sched.Now()
					want := model.hear(from, states, now)
					if got := n.cacheAdvert(from, slot, states); got != want {
						t.Fatalf("step %d: advert %v from %d opened=%v, want %v", step, states, from, got, want)
					}
					what = fmt.Sprintf("advert from %d", from)
				case r < 16:
					// Step to just before, at or after some entry's expiry.
					target := sched.Now() + time.Duration(rng.Intn(int(stale)))
					from := senders[rng.Intn(len(senders))]
					if list := lists[from]; len(list) > 0 {
						e, known := model[from][list[rng.Intn(len(list))]]
						if at := e.at + stale + time.Duration(rng.Intn(3)-1); known && at >= sched.Now() {
							target = at
						}
					}
					sched.Run(target)
					what = "clock step"
				case r < 18:
					n.ResetNeighborState()
					model = advertModel{}
					what = "reset"
				default:
					// Bring a flow back (its queue is re-created last in
					// the service order), or release it and a few others.
					f := rng.Intn(flows)
					if !live[f] {
						live[f] = true
						what = "flow back"
						break
					}
					n.DropAll(DropNodeDown)
					for g := range live {
						if g == f || rng.Intn(4) == 0 {
							if !n.ReleaseQueueIfIdle(packet.QueueForFlow(packet.FlowID(g))) {
								t.Fatalf("step %d: empty queue %d not released", step, g)
							}
							live[g] = false
						}
					}
					what = "release"
				}
				checkGating(step, what)
			}
		})
	}
	t.Run("slot reclaimed without reset", func(t *testing.T) {
		n, _ := starNode(t, DefaultConfig())
		q5, q6 := packet.QueueForDest(5), packet.QueueForDest(6)
		n.cacheAdvert(1, 0, []packet.QueueState{{Queue: q5, Free: false}})
		if e, known := n.advert(1, q5); !known || e.free {
			t.Fatalf("node 1's full queue reads %+v, known %v", e, known)
		}
		// Node 2 takes slot 0 as if the adjacency had changed: node 1's
		// state goes, and node 2 inherits none of it.
		if !n.cacheAdvert(2, 0, []packet.QueueState{{Queue: q6, Free: true}}) {
			t.Error("a free queue new to node 2 did not open room")
		}
		if _, known := n.advert(1, q5); known {
			t.Error("node 1's state survived its slot going to node 2")
		}
		if _, known := n.advert(2, q5); known {
			t.Error("node 2 inherited node 1's state")
		}
		if e, known := n.advert(2, q6); !known || !e.free {
			t.Errorf("node 2's free queue reads %+v, known %v", e, known)
		}
		// The packet toward node 5 goes out: its next hop is node 1,
		// whose full advert is gone.
		n.Enqueue(pk(0, 0, 5, 0))
		if out := n.NextOutgoing(); out == nil || out.NextHop != 1 {
			t.Errorf("served %+v, want the packet toward 5 through 1", out)
		}
	})
}

// TestWarmCycleAllocs pins the per-frame forwarding work at zero
// allocations once warm: a local and a relayed packet admitted to one
// queue, adverts overheard from known neighbors and, after a reset,
// from neighbors heard anew, the node's own advert, and each packet's
// dequeue and acknowledgement. The second input runs fair aggregation,
// so the queue holds two origins, and fails each packet's first send,
// so every packet is also requeued and dequeued again. The last two turn
// on the meters as central GMP's collector (send side) and gmp-dist's
// agents (both sides) do; a node no reader turned them on for, as under
// 802.11, 2PP and bp, records into neither map.
func TestWarmCycleAllocs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		fair           bool
		fails          int
		sent, received bool // meters turned on
	}{
		{"plain", false, 0, false, false},
		{"fair-requeue", true, 1, false, false},
		{"send-meters", false, 0, true, false},
		{"both-meters", false, 0, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FairAggregation = tc.fair
			n, _ := starNode(t, cfg)
			if tc.sent {
				n.RecordMeters(tc.received)
			}
			local, relayed := pk(0, 0, 5, 0), pk(1, 7, 5, 0)
			states := []packet.QueueState{
				{Queue: packet.QueueForDest(5), Free: true},
				{Queue: packet.QueueForDest(6), Free: false},
				{Queue: packet.QueueForDest(7), Free: true},
			}
			buf := make([]packet.QueueState, 0, 4)
			i := 0
			cycle := func() {
				if i++; i%8 == 0 {
					n.ResetNeighborState()
				}
				n.Enqueue(local)
				n.OnReceive(relayed, 3)
				for _, from := range []topology.NodeID{3, 1, 2} {
					states[1].Free = i%2 == 0
					n.OnOverhear(from, int(from)-1, states)
				}
				buf = n.AppendPiggyback(buf[:0])
				for k := 0; k < 2*(tc.fails+1); k++ {
					out := n.NextOutgoing()
					if out == nil {
						t.Fatal("warm node sent nothing")
					}
					n.OnSendComplete(out, k >= 2*tc.fails)
				}
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Errorf("warm overhear/advertise/send cycle: %v allocs, want 0", allocs)
			}
			if (n.meters != nil) != tc.sent || (n.received != nil) != tc.received {
				t.Errorf("send meters %v, receive meters %v; want recorded %v, %v", n.meters, n.received, tc.sent, tc.received)
			}
		})
	}
}

// TestNewNodeAllocs pins a node's set-up at one object: NewNode allocates
// the Node alone, and a node that recorded nothing hands out no meter
// map and makes none.
func TestNewNodeAllocs(t *testing.T) {
	const n = 64
	_, sched := starNode(t, DefaultConfig())
	nodes := make([]*Node, n)
	allocs := testing.AllocsPerRun(5, func() {
		for i := range nodes {
			nodes[i] = NewNode(topology.NodeID(i), sched, DefaultConfig(), nil, nil, nil)
		}
	})
	if allocs != n {
		t.Errorf("constructing %d nodes allocates %v objects, want %d", n, allocs, n)
	}
	idle := nodes[0]
	var sent, received map[VLinkKey]*VLinkMeter
	allocs = testing.AllocsPerRun(5, func() {
		sent, received = idle.TakeMeters(), idle.TakeReceived()
	})
	if allocs != 0 || sent != nil || received != nil {
		t.Errorf("idle node's meters: %v allocs, sent %v, received %v; want 0 allocs and nil maps", allocs, sent, received)
	}
}

// BenchmarkOnOverhear times one advert heard by a node that knows eight
// neighbors, at slots 0-7, at 1, 8 and 64 advertised queues, and at 4
// live queues listed after 64 stale entries that churn left behind.
func BenchmarkOnOverhear(b *testing.B) {
	for _, bc := range []struct {
		name        string
		live, stale int
	}{
		{"queues=1", 1, 0},
		{"queues=8", 8, 0},
		{"queues=64", 64, 0},
		{"live=4/stale=64", 4, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n, _ := starNode(b, DefaultConfig())
			senders := []topology.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
			var all, live []packet.QueueState
			for q := 0; q < bc.stale+bc.live; q++ {
				all = append(all, packet.QueueState{Queue: packet.QueueID(q), Free: true})
			}
			live = all[bc.stale:]
			for slot, from := range senders {
				n.OnOverhear(from, slot, all)
			}
			flip := make([][]packet.QueueState, 2)
			for k := range flip {
				flip[k] = slices.Clone(live)
				for j := range flip[k] {
					flip[k][j].Free = (j+k)%2 == 0
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % len(senders)
				n.OnOverhear(senders[slot], slot, flip[i/len(senders)%2])
			}
		})
	}
}

package dissemination

import (
	"math/rand"
	"testing"
	"time"

	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/mac"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// stack wires a full medium + MAC + forwarding + dissemination network.
type stack struct {
	sched  *sim.Scheduler
	topo   *topology.Topology
	medium *radio.Medium
	agents []*Agent
}

func newStack(t *testing.T, pos []geom.Point) *stack {
	t.Helper()
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	rng := sim.NewRand(1)
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(rng.Int63()))
	routes := routing.Build(topo)
	st := &stack{sched: sched, topo: topo, medium: medium}
	for _, id := range topo.Nodes() {
		node := forwarding.NewNode(id, sched, forwarding.DefaultConfig(), routes, nil, nil)
		station := mac.NewStation(id, sched, medium, mac.DefaultConfig(), rng.Int63(), node)
		node.SetMAC(station)
		agent := NewAgent(id, topo, station)
		node.SetBroadcastHandler(agent.OnBroadcast)
		st.agents = append(st.agents, agent)
	}
	return st
}

func chainPositions(n int) []geom.Point {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 200}
	}
	return pos
}

func TestBroadcastReachesTwoHopNeighborhood(t *testing.T) {
	st := newStack(t, chainPositions(6))
	// Stagger origins so group-addressed frames (which have no
	// recovery) do not collide in this correctness test.
	for i, a := range st.agents {
		a := a
		st.sched.At(time.Duration(i)*50*time.Millisecond, func() {
			a.Broadcast("state", 2)
		})
	}
	st.sched.Run(time.Second)

	for _, origin := range st.topo.Nodes() {
		for _, m := range st.topo.TwoHopNeighbors(origin) {
			records, ok := st.agents[m].Known(origin)
			if !ok {
				t.Errorf("node %d missing link state of two-hop neighbor %d", m, origin)
				continue
			}
			if records != "state" {
				t.Errorf("node %d has wrong records for %d: %v", m, origin, records)
			}
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	st := newStack(t, chainPositions(4))
	updates := make(map[topology.NodeID]int)
	for i, a := range st.agents {
		id := topology.NodeID(i)
		a.SetUpdateHandler(func(origin topology.NodeID, _ any) {
			if id == 2 {
				updates[origin]++
			}
		})
	}
	// Node 1 broadcasts; node 2 hears both the original (1 is its
	// neighbor) and possibly node 0/2's relays — but must accept once.
	st.agents[1].Broadcast("v1", 1)
	st.sched.Run(500 * time.Millisecond)
	if updates[1] != 1 {
		t.Errorf("node 2 accepted origin 1's state %d times, want 1", updates[1])
	}
	// A fresh broadcast is accepted again.
	st.agents[1].Broadcast("v2", 1)
	st.sched.Run(time.Second)
	if updates[1] != 2 {
		t.Errorf("second epoch accepted %d times total, want 2", updates[1])
	}
	if got, _ := st.agents[2].Known(1); got != "v2" {
		t.Errorf("node 2 has %v, want v2", got)
	}
}

func TestRelayScopeIsTwoHops(t *testing.T) {
	// On a 6-chain, node 0's state must reach nodes 1 and 2 but NOT
	// node 3 (the flood depth is exactly one relay).
	st := newStack(t, chainPositions(6))
	st.agents[0].Broadcast("edge", 1)
	st.sched.Run(time.Second)
	if _, ok := st.agents[2].Known(0); !ok {
		t.Error("two-hop neighbor missed the state")
	}
	if _, ok := st.agents[3].Known(0); ok {
		t.Error("three-hop node received the state: flood not bounded")
	}
}

func TestControlAirtimeAccounted(t *testing.T) {
	st := newStack(t, chainPositions(4))
	for i, a := range st.agents {
		a := a
		st.sched.At(time.Duration(i)*50*time.Millisecond, func() { a.Broadcast(1, 1) })
	}
	st.sched.Run(time.Second)
	stats := st.medium.Stats()
	if stats.ControlFrames == 0 {
		t.Fatal("no control frames accounted")
	}
	if stats.ControlAirtime <= 0 {
		t.Fatal("no control airtime accounted")
	}
	// 4 originals + relays; each relay comes from a dominating-set
	// member, so the total is bounded by originals x (1 + neighbors).
	if stats.ControlFrames > 16 {
		t.Errorf("unexpected broadcast storm: %d frames", stats.ControlFrames)
	}
}

func TestRandomTopologyCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		var pos []geom.Point
		for {
			pos = pos[:0]
			n := 6 + rng.Intn(8)
			for i := 0; i < n; i++ {
				pos = append(pos, geom.Point{X: rng.Float64() * 700, Y: rng.Float64() * 700})
			}
			topo, err := topology.New(pos, topology.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if topo.Connected() {
				break
			}
		}
		st := newStack(t, pos)
		for i, a := range st.agents {
			a := a
			st.sched.At(time.Duration(i)*100*time.Millisecond, func() { a.Broadcast(i, 1) })
		}
		st.sched.Run(5 * time.Second)
		for _, origin := range st.topo.Nodes() {
			for _, m := range st.topo.TwoHopNeighbors(origin) {
				if _, ok := st.agents[m].Known(origin); !ok {
					t.Errorf("trial %d: node %d missing state of %d", trial, m, origin)
				}
			}
		}
	}
}

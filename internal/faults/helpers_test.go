package faults

import (
	"testing"

	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/mac"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// newTestTopo builds a 4-node square ring (200 m sides): every node has
// exactly two neighbors, so a single crash leaves an alternate path.
func newTestTopo(t *testing.T) *topology.Topology {
	t.Helper()
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 200, Y: 200}, {X: 0, Y: 200}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newTestMedium(sched *sim.Scheduler, topo *topology.Topology) *radio.Medium {
	return radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(1))
}

// newTestStack wires forwarding nodes and MAC stations onto the medium,
// mirroring the production wiring in gmp.RunContext.
func newTestStack(t *testing.T, sched *sim.Scheduler, topo *topology.Topology, medium *radio.Medium) ([]*mac.Station, []*forwarding.Node) {
	t.Helper()
	routes := routing.Build(topo)
	rng := sim.NewRand(2)
	nodes := make([]*forwarding.Node, topo.NumNodes())
	stations := make([]*mac.Station, topo.NumNodes())
	for _, id := range topo.Nodes() {
		n := forwarding.NewNode(id, sched, forwarding.DefaultConfig(), routes, nil, nil)
		st := mac.NewStation(id, sched, medium, mac.DefaultConfig(), rng.Int63(), n)
		n.SetMAC(st)
		nodes[id] = n
		stations[id] = st
	}
	return stations, nodes
}

package clique_test

// An external test package: the city comes from internal/scenario, which
// imports clique through internal/admission.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gmp/internal/clique"
	"gmp/internal/geom"
	"gmp/internal/routing"
	"gmp/internal/scenario"
	"gmp/internal/topology"
)

// TestAroundMatchesBuild is the differential oracle for the path-local
// decomposition: Around(topo, nodes) must hold exactly the cliques of
// Build(topo) that have a link with an endpoint in nodes, as canonical
// link lists in Build's order, and give every link at a node of nodes
// the same cliques as Build. Uniform placements take random node subsets,
// the empty and the whole set included; grids and the 500-node city take
// the nodes of shortest paths, the cover a session passes (the city's
// own flows first).
func TestAroundMatchesBuild(t *testing.T) {
	linkLists := func(cs []*clique.Clique) [][]topology.Link {
		var out [][]topology.Link
		for _, c := range cs {
			out = append(out, c.Links)
		}
		return out
	}
	check := func(name string, topo *topology.Topology, nodes []topology.NodeID) {
		t.Helper()
		covered := make([]bool, topo.NumNodes())
		for _, v := range nodes {
			covered[v] = true
		}
		atCovered := func(l topology.Link) bool { return covered[l.From] || covered[l.To] }
		full := clique.Build(topo)
		var want [][]topology.Link
		for _, c := range full.All() {
			if slices.ContainsFunc(c.Links, atCovered) {
				want = append(want, c.Links)
			}
		}
		got := clique.Around(topo, nodes)
		if !reflect.DeepEqual(linkLists(got.All()), want) {
			t.Fatalf("%s: Around(%v) holds %d cliques, want %d\n got: %v\n want %v", name, nodes, len(got.All()), len(want), linkLists(got.All()), want)
		}
		for _, l := range topo.Links() {
			if atCovered(l) && !reflect.DeepEqual(linkLists(got.Of(l)), linkLists(full.Of(l))) {
				t.Fatalf("%s: Of(%v) = %v, want %v", name, l, linkLists(got.Of(l)), linkLists(full.Of(l)))
			}
		}
	}
	pathNodes := func(topo *topology.Topology, routes *routing.Table, pairs [][2]topology.NodeID) []topology.NodeID {
		seen := make(map[topology.NodeID]bool)
		var nodes []topology.NodeID
		for _, p := range pairs {
			path, err := routes.Path(p[0], p[1])
			if err != nil {
				continue
			}
			for _, v := range path {
				if !seen[v] {
					seen[v] = true
					nodes = append(nodes, v)
				}
			}
		}
		return nodes
	}
	randomPairs := func(rng *rand.Rand, n, k int) [][2]topology.NodeID {
		pairs := make([][2]topology.NodeID, k)
		for i := range pairs {
			pairs[i] = [2]topology.NodeID{topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))}
		}
		return pairs
	}

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pos := make([]geom.Point, 10+rng.Intn(25))
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}
		}
		cs := 250 + rng.Float64()*200
		topo := topology.MustNew(pos, topology.Config{TxRange: 250, CSRange: cs})
		name := fmt.Sprintf("uniform seed %d", seed)
		check(name, topo, nil)
		check(name, topo, topo.Nodes())
		for trial := 0; trial < 10; trial++ {
			var nodes []topology.NodeID
			for _, i := range rng.Perm(len(pos))[:rng.Intn(len(pos))] {
				nodes = append(nodes, topology.NodeID(i))
			}
			check(name, topo, nodes)
		}
	}
	for _, spacing := range []float64{150, 200} {
		sc, err := scenario.Grid(7, 7, spacing)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := sc.Topology()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(spacing)))
		routes := routing.BuildLazy(topo)
		for trial := 0; trial < 10; trial++ {
			check(fmt.Sprintf("grid %v m", spacing), topo, pathNodes(topo, routes, randomPairs(rng, topo.NumNodes(), 1+trial)))
		}
	}
	sc, err := scenario.City(500, 4, 10, 220, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sc.Topology()
	if err != nil {
		t.Fatal(err)
	}
	routes := routing.BuildLazy(topo)
	var flows [][2]topology.NodeID
	for _, f := range sc.Flows {
		flows = append(flows, [2]topology.NodeID{f.Src, f.Dst})
	}
	check("city flows", topo, pathNodes(topo, routes, flows))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		check("city random paths", topo, pathNodes(topo, routes, randomPairs(rng, topo.NumNodes(), 5)))
	}
}

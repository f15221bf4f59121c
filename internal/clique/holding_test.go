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

// TestHoldingMatchesBuild is the differential oracle for the link-local
// decomposition: Holding(topo, links) must hold exactly the cliques of
// Build(topo) that have a given link, as canonical link lists in Build's
// order, and give every given link the same cliques as Build, in order.
// The subsets are random draws from the topology's directed links, so
// they repeat links and name both directions: the empty and the whole
// set on uniform placements, random subsets on uniform placements, grids
// and the 500-node city, and on the city also the links of its own
// flows' shortest paths, the list a session passes.
func TestHoldingMatchesBuild(t *testing.T) {
	linkLists := func(cs []*clique.Clique) [][]topology.Link {
		var out [][]topology.Link
		for _, c := range cs {
			out = append(out, c.Links)
		}
		return out
	}
	check := func(name string, topo *topology.Topology, full *clique.Set, links []topology.Link) {
		t.Helper()
		given := make(map[topology.Link]bool)
		for _, l := range links {
			given[l.Undirected()] = true
		}
		var want [][]topology.Link
		for _, c := range full.All() {
			if slices.ContainsFunc(c.Links, func(l topology.Link) bool { return given[l] }) {
				want = append(want, c.Links)
			}
		}
		got := clique.Holding(topo, links)
		if !reflect.DeepEqual(linkLists(got.All()), want) {
			t.Fatalf("%s: Holding of %d links holds %d cliques, want %d\n got: %v\n want %v", name, len(links), len(got.All()), len(want), linkLists(got.All()), want)
		}
		for _, l := range links {
			if !reflect.DeepEqual(linkLists(got.Of(l)), linkLists(full.Of(l))) {
				t.Fatalf("%s: Of(%v) = %v, want %v", name, l, linkLists(got.Of(l)), linkLists(full.Of(l)))
			}
		}
	}
	// randomLinks draws k directed links with replacement.
	randomLinks := func(rng *rand.Rand, topo *topology.Topology, k int) []topology.Link {
		if topo.NumLinks() == 0 {
			return nil
		}
		links := make([]topology.Link, k)
		for i := range links {
			links[i] = topo.LinkAt(rng.Intn(topo.NumLinks()))
		}
		return links
	}

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pos := make([]geom.Point, 10+rng.Intn(25))
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}
		}
		cs := 250 + rng.Float64()*200
		topo := topology.MustNew(pos, topology.Config{TxRange: 250, CSRange: cs})
		full := clique.Build(topo)
		name := fmt.Sprintf("uniform seed %d", seed)
		check(name, topo, full, nil)
		check(name, topo, full, topo.Links())
		for trial := 0; trial < 10; trial++ {
			check(name, topo, full, randomLinks(rng, topo, rng.Intn(2*topo.NumLinks()+1)))
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
		full := clique.Build(topo)
		rng := rand.New(rand.NewSource(int64(spacing)))
		for trial := 0; trial < 10; trial++ {
			check(fmt.Sprintf("grid %v m", spacing), topo, full, randomLinks(rng, topo, 1+4*trial))
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
	full := clique.Build(topo)
	routes := routing.BuildLazy(topo)
	var paths []topology.Link
	for _, f := range sc.Flows {
		links, err := routes.Links(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, links...)
	}
	check("city flows", topo, full, paths)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		check("city random links", topo, full, randomLinks(rng, topo, 50+rng.Intn(200)))
	}
}

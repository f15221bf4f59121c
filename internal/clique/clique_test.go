package clique

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gmp/internal/geom"
	"gmp/internal/topology"
)

func build(t *testing.T, pos []geom.Point) (*topology.Topology, *Set) {
	t.Helper()
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo, Build(topo)
}

func TestChainSingleClique(t *testing.T) {
	// 4-node chain at 200 m: all three links mutually contend (nodes 1
	// and 2 are within carrier sense of everything).
	_, set := build(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}})
	all := set.All()
	if len(all) != 1 {
		t.Fatalf("got %d cliques, want 1: %v", len(all), all)
	}
	if len(all[0].Links) != 3 {
		t.Fatalf("clique has %d links, want 3", len(all[0].Links))
	}
}

func TestLongChainSlidingCliques(t *testing.T) {
	// 6-node chain: cliques slide along; every clique holds 3
	// consecutive links except at the ends.
	_, set := build(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}, {X: 800}, {X: 1000}})
	for _, c := range set.All() {
		if len(c.Links) < 2 || len(c.Links) > 3 {
			t.Errorf("unexpected clique size %d: %v", len(c.Links), c.Links)
		}
	}
	// Link (2,3) in the middle must belong to at least two cliques.
	if got := len(set.Of(topology.Link{From: 2, To: 3})); got < 2 {
		t.Errorf("middle link in %d cliques, want >= 2", got)
	}
}

func TestFig2CliqueStructure(t *testing.T) {
	// The Figure 2 geometry (§7.1): cliques {(0,1),(1,2)} and
	// {(1,2),(3,4),(4,5)} — plus the incidental unused link (2,4) that
	// carrier-sense geometry necessarily creates (see DESIGN.md).
	_, set := build(t, []geom.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0},
		{X: 430, Y: 390}, {X: 430, Y: 150}, {X: 650, Y: 80},
	})
	l01 := topology.Link{From: 0, To: 1}
	l12 := topology.Link{From: 1, To: 2}
	l34 := topology.Link{From: 3, To: 4}
	l45 := topology.Link{From: 4, To: 5}

	var clique0, clique1 *Clique
	for _, c := range set.All() {
		if c.Contains(l01) && c.Contains(l12) {
			clique0 = c
		}
		if c.Contains(l12) && c.Contains(l34) && c.Contains(l45) {
			clique1 = c
		}
	}
	if clique0 == nil {
		t.Fatal("missing clique {(0,1),(1,2)}")
	}
	if clique1 == nil {
		t.Fatal("missing clique {(1,2),(3,4),(4,5)}")
	}
	if clique0.Contains(l34) || clique0.Contains(l45) {
		t.Error("clique 0 wrongly contains clique-1 links")
	}
	if clique1.Contains(l01) {
		t.Error("clique 1 wrongly contains (0,1)")
	}
}

func TestCliqueIDsAreUnique(t *testing.T) {
	_, set := build(t, []geom.Point{
		{X: 0}, {X: 200}, {X: 400}, {X: 600}, {X: 800},
		{X: 100, Y: 200}, {X: 300, Y: 200},
	})
	seen := make(map[ID]bool)
	for _, c := range set.All() {
		if seen[c.ID] {
			t.Fatalf("duplicate clique ID %v", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestCliqueOwnerIsSmallestNode(t *testing.T) {
	_, set := build(t, []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}})
	for _, c := range set.All() {
		low := c.Links[0].From
		for _, l := range c.Links {
			if l.From < low {
				low = l.From
			}
			if l.To < low {
				low = l.To
			}
		}
		if c.ID.Owner != low {
			t.Errorf("clique %v owner %d, want %d", c.Links, c.ID.Owner, low)
		}
	}
}

func TestOfUsesUndirectedLookup(t *testing.T) {
	_, set := build(t, []geom.Point{{X: 0}, {X: 200}})
	fwd := set.Of(topology.Link{From: 0, To: 1})
	rev := set.Of(topology.Link{From: 1, To: 0})
	if len(fwd) != 1 || len(rev) != 1 || fwd[0] != rev[0] {
		t.Error("Of should be direction-insensitive")
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 250, Y: 180}, {X: 50, Y: 220}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := Build(topo), Build(topo)
	if len(a.All()) != len(b.All()) {
		t.Fatal("different clique counts across builds")
	}
	for i := range a.All() {
		ca, cb := a.All()[i], b.All()[i]
		if ca.ID != cb.ID || len(ca.Links) != len(cb.Links) {
			t.Fatal("clique enumeration is not deterministic")
		}
		for j := range ca.Links {
			if ca.Links[j] != cb.Links[j] {
				t.Fatal("clique links differ across builds")
			}
		}
	}
}

// cliqueInvariants verifies the defining properties of a proper-clique
// decomposition: members contend pairwise, cliques are maximal, every
// link is covered, and no clique contains another.
func cliqueInvariants(topo *topology.Topology, set *Set) string {
	links := make(map[topology.Link]bool)
	for _, l := range topo.Links() {
		links[l.Undirected()] = true
	}
	covered := make(map[topology.Link]bool)
	for _, c := range set.All() {
		// Pairwise contention.
		for i := 0; i < len(c.Links); i++ {
			for j := i + 1; j < len(c.Links); j++ {
				if !topo.LinksContend(c.Links[i], c.Links[j]) {
					return "non-contending links in one clique"
				}
			}
		}
		// Maximality: no outside link contends with every member.
		for l := range links {
			if c.Contains(l) {
				continue
			}
			all := true
			for _, m := range c.Links {
				if !topo.LinksContend(l, m) {
					all = false
					break
				}
			}
			if all {
				return "clique is not maximal"
			}
		}
		for _, l := range c.Links {
			covered[l] = true
		}
	}
	for l := range links {
		if !covered[l] {
			return "link not covered by any clique"
		}
	}
	// No clique contained in another.
	for i, a := range set.All() {
		for j, b := range set.All() {
			if i == j {
				continue
			}
			contained := true
			for _, l := range a.Links {
				if !b.Contains(l) {
					contained = false
					break
				}
			}
			if contained {
				return "clique contained in another"
			}
		}
	}
	return ""
}

func TestCliqueInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}
		}
		topo, err := topology.New(pos, topology.DefaultConfig())
		if err != nil {
			return false
		}
		if len(topo.Links()) == 0 {
			return true
		}
		set := Build(topo)
		if msg := cliqueInvariants(topo, set); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gmp/internal/geom"
)

// randomTopo places n nodes uniformly in a w×w field. With csFactor > 1
// the carrier-sense range exceeds the transmission range, exercising the
// separate csNeighbors lists.
func randomTopo(rng *rand.Rand, n int, w, txRange, csFactor float64) (*Topology, []geom.Point) {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * w, Y: rng.Float64() * w}
	}
	cfg := Config{TxRange: txRange, CSRange: txRange * csFactor}
	return MustNew(pts, cfg), pts
}

// TestAdjacencyMatchesGeometry checks the sorted neighbor lists, the
// InTxRange and InCSRange predicates, the two-hop scope and the dense
// link index against the geometry they derive from, on random topologies
// with both equal and widened carrier-sense ranges.
func TestAdjacencyMatchesGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		csFactor := 1.0
		if trial%2 == 1 {
			csFactor = 1 + rng.Float64() // CSRange in (TxRange, 2·TxRange)
		}
		topo, pts := randomTopo(rng, n, 1000, 250, csFactor)
		cfg := topo.Config()

		wantLinks := 0
		for a := 0; a < n; a++ {
			var wantTx, wantCS []NodeID
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				inTx := geom.WithinRange(pts[a], pts[b], cfg.TxRange)
				inCS := geom.WithinRange(pts[a], pts[b], cfg.CSRange)
				if got := topo.InTxRange(NodeID(a), NodeID(b)); got != inTx {
					t.Fatalf("trial %d: InTxRange(%d,%d) = %v, geometry says %v", trial, a, b, got, inTx)
				}
				if got := topo.InCSRange(NodeID(a), NodeID(b)); got != inCS {
					t.Fatalf("trial %d: InCSRange(%d,%d) = %v, geometry says %v", trial, a, b, got, inCS)
				}
				if inTx {
					wantTx = append(wantTx, NodeID(b))
					wantLinks++
				}
				if inCS {
					wantCS = append(wantCS, NodeID(b))
				}
			}
			if got := topo.Neighbors(NodeID(a)); !equalIDs(got, wantTx) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want %v", trial, a, got, wantTx)
			}
			if got := topo.CSNeighbors(NodeID(a)); !equalIDs(got, wantCS) {
				t.Fatalf("trial %d: CSNeighbors(%d) = %v, want %v", trial, a, got, wantCS)
			}

			// Two-hop scope: everything reachable in one or two hops,
			// excluding the node itself.
			seen := map[NodeID]bool{}
			for _, m := range wantTx {
				seen[m] = true
				for _, k := range topo.Neighbors(m) {
					seen[k] = true
				}
			}
			var wantTwo []NodeID
			for k := range seen {
				if k != NodeID(a) {
					wantTwo = append(wantTwo, k)
				}
			}
			sort.Slice(wantTwo, func(i, j int) bool { return wantTwo[i] < wantTwo[j] })
			if got := topo.TwoHopNeighbors(NodeID(a)); !equalIDs(got, wantTwo) {
				t.Fatalf("trial %d: TwoHopNeighbors(%d) = %v, want %v", trial, a, got, wantTwo)
			}
		}

		if topo.NumLinks() != wantLinks {
			t.Fatalf("trial %d: NumLinks() = %d, geometry says %d", trial, topo.NumLinks(), wantLinks)
		}
	}
}

// TestLinkIndexRoundTrip checks that the dense directed-link numbering is
// a bijection: LinkAt(LinkIndex(l)) == l for every link, indices cover
// [0, NumLinks) in (From, To)-ascending order, and LinkIndex returns -1
// exactly for node pairs out of transmission range.
func TestLinkIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		topo, pts := randomTopo(rng, 2+rng.Intn(30), 1000, 250, 1+rng.Float64())
		links := topo.Links()
		if len(links) != topo.NumLinks() {
			t.Fatalf("Links() length %d != NumLinks() %d", len(links), topo.NumLinks())
		}
		for i, l := range links {
			if got := topo.LinkIndex(l.From, l.To); got != i {
				t.Fatalf("LinkIndex(%v) = %d, want %d", l, got, i)
			}
			if got := topo.LinkAt(i); got != l {
				t.Fatalf("LinkAt(%d) = %v, want %v", i, got, l)
			}
			if i > 0 {
				p := links[i-1]
				if p.From > l.From || (p.From == l.From && p.To >= l.To) {
					t.Fatalf("links not sorted (From, To) ascending: %v before %v", p, l)
				}
			}
			base := topo.linkBase[l.From]
			if i < base {
				t.Fatalf("link %v at index %d before its node's base %d", l, i, base)
			}
		}
		n := topo.NumNodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				idx := topo.LinkIndex(NodeID(a), NodeID(b))
				if a != b && geom.WithinRange(pts[a], pts[b], topo.Config().TxRange) {
					if idx < 0 || idx >= len(links) {
						t.Fatalf("LinkIndex(%d,%d) = %d out of range for a real link", a, b, idx)
					}
				} else if idx != -1 {
					t.Fatalf("LinkIndex(%d,%d) = %d for a non-link, want -1", a, b, idx)
				}
			}
		}
	}
}

// checkReverseSlots asserts the reverse-slot identity on every link:
// Neighbors(Neighbors(n)[k])[ReverseSlots(n)[k]] == n.
func checkReverseSlots(t *testing.T, what string, topo *Topology) {
	t.Helper()
	for _, n := range topo.Nodes() {
		nbrs, slots := topo.Neighbors(n), topo.ReverseSlots(n)
		if len(slots) != len(nbrs) {
			t.Fatalf("%s: node %d has %d neighbors but %d reverse slots", what, n, len(nbrs), len(slots))
		}
		for k, m := range nbrs {
			back := topo.Neighbors(m)
			if s := int(slots[k]); s < 0 || s >= len(back) || back[s] != n {
				t.Fatalf("%s: node %d's slot at neighbor %d is %d, in the list %v", what, n, m, slots[k], back)
			}
		}
	}
}

// TestReverseSlots checks the reverse-slot identity on a lattice, the
// city layout, random placements and the brute-force build, then after
// every step of a random walk in which every node moves, at equal and at
// widened carrier-sense ranges.
func TestReverseSlots(t *testing.T) {
	var lattice []geom.Point
	for i := 0; i < 42; i++ {
		lattice = append(lattice, geom.Point{X: float64(i%7) * 200, Y: float64(i/7) * 200})
	}
	checkReverseSlots(t, "lattice", MustNew(lattice, DefaultConfig()))
	checkReverseSlots(t, "city", MustNew(benchPositions(400, 3), DefaultConfig()))
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		topo, pts := randomTopo(rng, 20+rng.Intn(60), 1000, 250, 1+rng.Float64())
		checkReverseSlots(t, fmt.Sprint("random ", trial), topo)
		brute, err := newBruteForce(pts, topo.Config())
		if err != nil {
			t.Fatal(err)
		}
		checkReverseSlots(t, fmt.Sprint("brute force ", trial), brute)
	}
	for _, csFactor := range []float64{1, 1.7} {
		topo, pts := randomTopo(rng, 60, 1200, 250, csFactor)
		moved := make([]NodeID, len(pts))
		for v := range moved {
			moved[v] = NodeID(v)
		}
		for step := 0; step < 60; step++ {
			for v := range pts {
				pts[v] = geom.Point{
					X: clampF(pts[v].X+(rng.Float64()-0.5)*80, 0, 1200),
					Y: clampF(pts[v].Y+(rng.Float64()-0.5)*80, 0, 1200),
				}
			}
			if _, err := topo.MoveNodes(moved, pts); err != nil {
				t.Fatal(err)
			}
			checkReverseSlots(t, fmt.Sprintf("cs=%vtx walk step %d", csFactor, step), topo)
		}
	}
}

func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDiffCoverCovers checks Diff.Cover, the node set the session hands
// clique.Update, and Diff.Changed, over random motion with equal and
// widened carrier-sense ranges: every node pair whose Tx or CS adjacency
// flipped has an endpoint in Cover; Cover is strictly ascending and
// holds only movers whose Tx or CS neighbor list changed; Changed
// reports exactly whether some pair flipped, and the adjacency version
// bumps by one iff it does, over a mix of changed and unchanged steps;
// and a twin topology given the same moves reports the same
// Cover. Every other step moves every node, as the random walk does,
// where each flipped pair has two changed movers at its ends and the
// cover must come out smaller than the changed movers.
func TestDiffCoverCovers(t *testing.T) {
	for _, csFactor := range []float64{1, 1.7} {
		rng := rand.New(rand.NewSource(12))
		coverAll, changedAll, changedSteps := 0, 0, 0
		for trial := 0; trial < 10; trial++ {
			n := 10 + rng.Intn(30)
			topo, pts := randomTopo(rng, n, 1000, 250, csFactor)
			twin := MustNew(pts, topo.Config())
			for step := 0; step < 40; step++ {
				adjacency := func(a, b int) [2]bool {
					return [2]bool{topo.InTxRange(NodeID(a), NodeID(b)), topo.InCSRange(NodeID(a), NodeID(b))}
				}
				before := make([][2]bool, n*n)
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						before[a*n+b] = adjacency(a, b)
					}
				}
				var oldTx, oldCS [][]NodeID
				for v := 0; v < n; v++ {
					oldTx = append(oldTx, topo.Neighbors(NodeID(v)))
					oldCS = append(oldCS, topo.CSNeighbors(NodeID(v)))
				}
				version := topo.Version()

				var moved []NodeID
				var np []geom.Point
				everyone := step%2 == 1
				if everyone {
					for v := range pts {
						pts[v] = geom.Point{
							X: clampF(pts[v].X+(rng.Float64()-0.5)*80, 0, 1000),
							Y: clampF(pts[v].Y+(rng.Float64()-0.5)*80, 0, 1000),
						}
						moved = append(moved, NodeID(v))
						np = append(np, pts[v])
					}
				} else {
					moved, np = mutate(rng, pts, 1000, 1000)
				}
				diff, err := topo.MoveNodes(moved, np)
				if err != nil {
					t.Fatal(err)
				}
				rerun, err := twin.MoveNodes(moved, np)
				if err != nil {
					t.Fatal(err)
				}
				where := func() string {
					return fmt.Sprintf("csFactor %v trial %d step %d", csFactor, trial, step)
				}
				if !slices.Equal(diff.Cover, rerun.Cover) {
					t.Fatalf("%s: Cover %v, twin's %v", where(), diff.Cover, rerun.Cover)
				}
				if !slices.IsSorted(diff.Cover) || len(slices.Compact(slices.Clone(diff.Cover))) != len(diff.Cover) {
					t.Fatalf("%s: Cover %v not strictly ascending", where(), diff.Cover)
				}
				// The movers whose Tx or CS neighbor list changed.
				changed := make([]bool, n)
				changedMovers := 0
				for _, m := range diff.Moved {
					if !slices.Equal(oldTx[m], topo.Neighbors(m)) || !slices.Equal(oldCS[m], topo.CSNeighbors(m)) {
						changed[m] = true
						changedMovers++
					}
				}
				inCover := make([]bool, n)
				for _, v := range diff.Cover {
					if !changed[v] {
						t.Fatalf("%s: cover node %d is no mover whose lists changed", where(), v)
					}
					inCover[v] = true
				}
				flipped := false
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						if adjacency(a, b) == before[a*n+b] {
							continue
						}
						flipped = true
						if !inCover[a] && !inCover[b] {
							t.Fatalf("%s: pair (%d,%d) flipped with neither endpoint in Cover %v", where(), a, b, diff.Cover)
						}
					}
				}
				if diff.Changed() != flipped {
					t.Fatalf("%s: Changed() = %v, adjacency flipped = %v", where(), diff.Changed(), flipped)
				}
				bumped := topo.Version() != version
				if bumped != diff.Changed() || (bumped && topo.Version() != version+1) {
					t.Fatalf("%s: version %d -> %d with Changed() = %v", where(), version, topo.Version(), diff.Changed())
				}
				if diff.Changed() {
					changedSteps++
				}
				if everyone {
					coverAll += len(diff.Cover)
					changedAll += changedMovers
				}
			}
		}
		if changedSteps == 0 || changedSteps == 10*40 {
			t.Fatalf("csFactor %v: %d of %d steps changed adjacency; want a mix", csFactor, changedSteps, 10*40)
		}
		t.Logf("csFactor %v: %d of %d steps changed; all-mover steps covered by %d nodes against %d changed movers", csFactor, changedSteps, 10*40, coverAll, changedAll)
		if coverAll >= changedAll {
			t.Errorf("csFactor %v: all-mover covers hold %d nodes, not fewer than the %d changed movers", csFactor, coverAll, changedAll)
		}
	}
}

package routing

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/topology"
)

// TestLazyMatchesEager materializes every row of a lazy table through
// the public accessors and checks each entry against the eager build,
// with and without an excluded-node set.
func TestLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 80
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
	}
	topo, err := topology.New(pts, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	down := make([]bool, n)
	down[7], down[20], down[41] = true, true, true
	for _, tc := range []struct {
		name  string
		eager *Table
		lazy  *Table
	}{
		{"all-up", Build(topo), BuildLazy(topo)},
		{"excluding", BuildExcluding(topo, down), BuildLazyExcluding(topo, down)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for dest := 0; dest < n; dest++ {
				for i := 0; i < n; i++ {
					from, to := topology.NodeID(i), topology.NodeID(dest)
					gotN, gotOK := tc.lazy.NextHop(from, to)
					wantN, wantOK := tc.eager.NextHop(from, to)
					if gotN != wantN || gotOK != wantOK {
						t.Fatalf("NextHop(%d,%d): lazy (%d,%v) eager (%d,%v)", i, dest, gotN, gotOK, wantN, wantOK)
					}
					if g, w := tc.lazy.HopCount(from, to), tc.eager.HopCount(from, to); g != w {
						t.Fatalf("HopCount(%d,%d): lazy %d eager %d", i, dest, g, w)
					}
				}
			}
		})
	}
}

// TestLazyCopiesDownSet verifies the frozen-exclusion contract: rows
// materialized after the caller flips a down bit must still reflect the
// set as it was at build time.
func TestLazyCopiesDownSet(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 200}, {X: 400}} // chain 0-1-2
	topo, err := topology.New(pts, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	down := make([]bool, 3)
	lazy := BuildLazyExcluding(topo, down)
	down[1] = true // must not leak into the table
	if nh, ok := lazy.NextHop(0, 2); !ok || nh != 1 {
		t.Fatalf("NextHop(0,2) = (%d,%v), want relay via 1", nh, ok)
	}
}

// TestLazyTableAcrossMotion pins the version stamp: a move that changes
// no adjacency leaves a lazy table fully usable; after one that does,
// the table still serves the rows it had built — the routes at build
// time — and panics rather than compute a row on the moved topology.
func TestLazyTableAcrossMotion(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}} // chain 0-1-2-3
	topo, err := topology.New(pts, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy := BuildLazy(topo)
	if got := lazy.HopCount(0, 3); got != 3 {
		t.Fatalf("HopCount(0,3) = %d, want 3", got)
	}

	// A small shift keeps every pair's adjacency: rows stay computable.
	diff, err := topo.MoveNodes([]topology.NodeID{3}, []geom.Point{{X: 610}})
	if err != nil || diff.Changed() {
		t.Fatalf("shift: changed %v, err %v", diff.Changed(), err)
	}
	if got := lazy.HopCount(0, 2); got != 2 {
		t.Fatalf("after an unchanged move, HopCount(0,2) = %d, want 2", got)
	}

	// Node 3 walks next to node 0: the adjacency changes.
	diff, err = topo.MoveNodes([]topology.NodeID{3}, []geom.Point{{X: -200}})
	if err != nil || !diff.Changed() {
		t.Fatalf("walk: changed %v, err %v", diff.Changed(), err)
	}
	if nh, ok := lazy.NextHop(0, 3); !ok || nh != 1 || lazy.HopCount(0, 3) != 3 {
		t.Fatalf("built row for dest 3 = (%d,%v,%d hops), want the t=0 route via 1 in 3 hops", nh, ok, lazy.HopCount(0, 3))
	}
	if fresh := BuildLazy(topo); fresh.HopCount(0, 3) != 1 {
		t.Fatalf("fresh table: HopCount(0,3) = %d, want 1", fresh.HopCount(0, 3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("new row on a stale lazy table did not panic")
		}
	}()
	lazy.HopCount(0, 1)
}

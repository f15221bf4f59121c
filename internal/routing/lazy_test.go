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

// TestBuildLazyFromMatchesFresh drives a chain of repairs through
// BuildLazyFrom over random motion and crash sequences: after every
// step the live table, built on its retired predecessor's arrays, reads
// exactly like a fresh BuildLazyExcluding on the same topology and down
// set, for every node toward every destination it is asked about; the
// retired table panics when read; and a t=0 table that no repair takes
// keeps its rows.
func TestBuildLazyFromMatchesFresh(t *testing.T) {
	const n, side = 60, 1400.0
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	topo, err := topology.New(pts, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t0 := BuildLazy(topo)
	var t0Rows [][]int
	for dest := 0; dest < n; dest += 7 {
		row := make([]int, n)
		for i := range row {
			row[i] = t0.HopCount(topology.NodeID(i), topology.NodeID(dest))
		}
		t0Rows = append(t0Rows, row)
	}

	down := make([]bool, n)
	live := BuildLazyExcluding(topo, down)
	for step := 0; step < 60; step++ {
		var moved []topology.NodeID
		var np []geom.Point
		for _, v := range rng.Perm(n)[:1+rng.Intn(8)] {
			p := topo.Position(topology.NodeID(v))
			moved = append(moved, topology.NodeID(v))
			np = append(np, geom.Point{X: p.X + rng.Float64()*300 - 150, Y: p.Y + rng.Float64()*300 - 150})
		}
		if _, err := topo.MoveNodes(moved, np); err != nil {
			t.Fatal(err)
		}
		if v := rng.Intn(n); rng.Intn(3) == 0 {
			down[v] = !down[v]
		}
		var stepDown []bool
		if rng.Intn(4) > 0 {
			stepDown = down
		}
		retired := live
		live = BuildLazyFrom(retired, topo, stepDown)
		fresh := BuildLazyExcluding(topo, stepDown)
		for _, dest := range rng.Perm(n)[:10] {
			for i := 0; i < n; i++ {
				from, to := topology.NodeID(i), topology.NodeID(dest)
				gotN, gotOK := live.NextHop(from, to)
				wantN, wantOK := fresh.NextHop(from, to)
				if gotN != wantN || gotOK != wantOK || live.HopCount(from, to) != fresh.HopCount(from, to) {
					t.Fatalf("step %d: %d toward %d: (%d,%v,%d hops), fresh (%d,%v,%d hops)", step, i, dest,
						gotN, gotOK, live.HopCount(from, to), wantN, wantOK, fresh.HopCount(from, to))
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("step %d: the retired table served a read", step)
				}
			}()
			retired.HopCount(0, 1)
		}()
	}
	for k, dest := 0, 0; dest < n; k, dest = k+1, dest+7 {
		for i, want := range t0Rows[k] {
			if got := t0.HopCount(topology.NodeID(i), topology.NodeID(dest)); got != want {
				t.Fatalf("t=0 table: HopCount(%d,%d) = %d after the repairs, was %d", i, dest, got, want)
			}
		}
	}
}

package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gmp/internal/geom"
)

// assertSameTopology deep-compares every derived structure of the
// grid-built topology against the brute-force oracle. Slices must match
// exactly — including nil vs empty — so the grid path reproduces the
// scan's output byte for byte.
func assertSameTopology(t *testing.T, got, want *Topology) {
	t.Helper()
	if !reflect.DeepEqual(got.pos, want.pos) {
		t.Fatalf("pos mismatch")
	}
	if !reflect.DeepEqual(got.neighbors, want.neighbors) {
		t.Fatalf("neighbors mismatch:\n grid: %v\nbrute: %v", got.neighbors, want.neighbors)
	}
	if !reflect.DeepEqual(got.csNeighbors, want.csNeighbors) {
		t.Fatalf("csNeighbors mismatch:\n grid: %v\nbrute: %v", got.csNeighbors, want.csNeighbors)
	}
	if !reflect.DeepEqual(got.links, want.links) {
		t.Fatalf("links mismatch:\n grid: %v\nbrute: %v", got.links, want.links)
	}
	if !reflect.DeepEqual(got.linkBase, want.linkBase) {
		t.Fatalf("linkBase mismatch")
	}
	if !reflect.DeepEqual(got.revSlots, want.revSlots) {
		t.Fatalf("revSlots mismatch:\n grid: %v\nbrute: %v", got.revSlots, want.revSlots)
	}
}

// TestGridMatchesBruteForce is the differential oracle for the spatial
// grid: New (grid-backed) must reproduce newBruteForce (all-pairs scan)
// exactly, across random placements, densities, and range configs —
// including CSRange == TxRange, where the CS structures alias the Tx
// ones.
func TestGridMatchesBruteForce(t *testing.T) {
	cfgs := []Config{
		{TxRange: 250, CSRange: 250}, // aliasing path
		{TxRange: 250, CSRange: 450},
		{TxRange: 100, CSRange: 550},
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, cfg := range cfgs {
			cfg := cfg
			t.Run(fmt.Sprintf("seed%d_tx%v_cs%v", seed, cfg.TxRange, cfg.CSRange), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				n := 20 + rng.Intn(180)
				// Vary the field so densities range from sparse to
				// near-complete graphs.
				w := 200 + rng.Float64()*1800
				h := 200 + rng.Float64()*1800
				pts := make([]geom.Point, n)
				for i := range pts {
					pts[i] = geom.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
				}
				grid, err := New(pts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				brute, err := newBruteForce(pts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if grid.grid == nil {
					t.Fatal("New did not attach a spatial grid")
				}
				if brute.grid != nil {
					t.Fatal("newBruteForce attached a spatial grid")
				}
				assertSameTopology(t, grid, brute)
				// The CS lists must alias the Tx ones when the ranges
				// coincide.
				if cfg.CSRange == cfg.TxRange && reflect.ValueOf(grid.csNeighbors).Pointer() != reflect.ValueOf(grid.neighbors).Pointer() {
					t.Fatal("grid path: csNeighbors does not alias neighbors at equal ranges")
				}
			})
		}
	}
}

// TestGridMoveNodesMatchesBruteMoveNodes drives the same motion
// sequence through a grid topology and a brute-force one: the grid's
// incremental candidate queries must land on identical structures.
func TestGridMoveNodesMatchesBruteMoveNodes(t *testing.T) {
	for _, cfg := range []Config{
		{TxRange: 250, CSRange: 250},
		{TxRange: 250, CSRange: 400},
	} {
		rng := rand.New(rand.NewSource(11))
		n := 60
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 900}
		}
		grid, err := New(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := newBruteForce(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 80; step++ {
			k := 1 + rng.Intn(5)
			movers := make([]NodeID, 0, k)
			seen := make(map[NodeID]bool)
			for len(movers) < k {
				m := NodeID(rng.Intn(n))
				if !seen[m] {
					seen[m] = true
					movers = append(movers, m)
				}
			}
			newPos := make([]geom.Point, k)
			for i := range newPos {
				// Occasionally leave the original bounding box: the
				// clamped border cells must stay correct.
				newPos[i] = geom.Point{X: rng.Float64()*1800 - 300, Y: rng.Float64()*1500 - 300}
			}
			if _, err := grid.MoveNodes(movers, newPos); err != nil {
				t.Fatal(err)
			}
			if _, err := brute.MoveNodes(movers, newPos); err != nil {
				t.Fatal(err)
			}
			assertSameTopology(t, grid, brute)
		}
	}
}

// benchPositions lays n nodes out in the city regime the scaling work
// targets (scenario.City): a ~square mesh-ISP grid at 220 m spacing
// with ±10 m placement jitter, so every node links to its 4 cardinal
// neighbors (≤240 m ≤ TxRange) and never diagonally (≥283 m). Degree —
// and with it the grid build's per-node work — stays flat as N grows.
func benchPositions(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	const spacing = 220.0
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: float64(i%cols)*spacing + (rng.Float64()-0.5)*20,
			Y: float64(i/cols)*spacing + (rng.Float64()-0.5)*20,
		}
	}
	return pts
}

// TestNewAllocatesLinearly pins New's memory at O(N·density): on the
// constant-density city layout, the bytes New allocates per node (the
// runtime.MemStats.TotalAlloc delta, least of three builds) at N=8000
// are at most 1.25 times those at N=1000. Any N×N adjacency structure
// grows per node with N and fails it.
func TestNewAllocatesLinearly(t *testing.T) {
	perNode := func(n int) float64 {
		pts := benchPositions(n, 7)
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			if _, err := New(pts, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return float64(least) / float64(n)
	}
	small, large := perNode(1000), perNode(8000)
	t.Logf("New allocates %.0f B/node at N=1000, %.0f B/node at N=8000", small, large)
	if large > 1.25*small {
		t.Errorf("New allocates %.0f B/node at N=8000 against %.0f at N=1000: more than 1.25x", large, small)
	}
}

// BenchmarkTopologyBuild pits the grid construction against the
// brute-force all-pairs scan at city scales. BENCH_pr9.json records the
// asymptotic gap (≥20x at N=5000).
func BenchmarkTopologyBuild(b *testing.B) {
	cfg := DefaultConfig()
	for _, n := range []int{1000, 5000, 10000} {
		pts := benchPositions(n, 7)
		b.Run(fmt.Sprintf("grid/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(pts, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("brute/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := newBruteForce(pts, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

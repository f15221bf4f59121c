package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gmp/internal/geom"
)

// randomPositions scatters n nodes uniformly over a w×h field.
func randomPositions(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return pts
}

// mutate picks 1..4 distinct movers and their new positions: half small
// jitters, half jumps anywhere in the field.
func mutate(rng *rand.Rand, pos []geom.Point, w, h float64) ([]NodeID, []geom.Point) {
	k := 1 + rng.Intn(4)
	perm := rng.Perm(len(pos))
	moved := make([]NodeID, 0, k)
	np := make([]geom.Point, 0, k)
	for _, idx := range perm[:k] {
		moved = append(moved, NodeID(idx))
		var p geom.Point
		if rng.Intn(2) == 0 {
			p = geom.Point{
				X: clampF(pos[idx].X+(rng.Float64()-0.5)*120, 0, w),
				Y: clampF(pos[idx].Y+(rng.Float64()-0.5)*120, 0, h),
			}
		} else {
			p = geom.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
		}
		np = append(np, p)
		pos[idx] = p
	}
	return moved, np
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// assertEqualTopology deep-compares every derived structure of the
// incrementally maintained topology against a from-scratch rebuild.
func assertEqualTopology(t *testing.T, step int, inc, oracle *Topology) {
	t.Helper()
	if !reflect.DeepEqual(inc.pos, oracle.pos) {
		t.Fatalf("step %d: positions diverged", step)
	}
	if !reflect.DeepEqual(inc.neighbors, oracle.neighbors) {
		t.Fatalf("step %d: neighbor lists diverged\n inc: %v\n want %v", step, inc.neighbors, oracle.neighbors)
	}
	if !reflect.DeepEqual(inc.csNeighbors, oracle.csNeighbors) {
		t.Fatalf("step %d: cs neighbor lists diverged\n inc: %v\n want %v", step, inc.csNeighbors, oracle.csNeighbors)
	}
	if !reflect.DeepEqual(inc.links, oracle.links) {
		t.Fatalf("step %d: link index diverged\n inc: %v\n want %v", step, inc.links, oracle.links)
	}
	if !reflect.DeepEqual(inc.linkBase, oracle.linkBase) {
		t.Fatalf("step %d: link bases diverged\n inc: %v\n want %v", step, inc.linkBase, oracle.linkBase)
	}
	if !reflect.DeepEqual(inc.revSlots, oracle.revSlots) {
		t.Fatalf("step %d: reverse slots diverged\n inc: %v\n want %v", step, inc.revSlots, oracle.revSlots)
	}
	for idx, l := range inc.links {
		if got := inc.LinkIndex(l.From, l.To); got != idx {
			t.Fatalf("step %d: LinkIndex(%v) = %d, want %d", step, l, got, idx)
		}
	}
}

// TestIncrementalMatchesRebuild is the differential oracle for the
// mobility engine: after every randomized motion step, the incrementally
// updated topology must be deep-equal to a from-scratch New on the same
// positions — neighbor lists and link index — and Diff.Changed must
// report whether a link appeared or vanished or a carrier-sense list
// changed, at equal and at distinct ranges.
func TestIncrementalMatchesRebuild(t *testing.T) {
	cases := []struct {
		cfg         Config
		seeds       int64
		steps       int
		minN, spanN int
		w, h        float64
	}{
		// CS structures alias the Tx ones / distinct CS structures.
		{Config{TxRange: 250, CSRange: 250}, 5, 120, 25, 21, 1200, 1200},
		{Config{TxRange: 250, CSRange: 450}, 5, 120, 25, 21, 1200, 1200},
		// Large-N: the grid-backed mover recomputation at a scale where
		// the old O(movers·N) scan would dominate. Fewer steps keep the
		// per-step O(N²-ish) oracle rebuild affordable.
		{Config{TxRange: 250, CSRange: 250}, 1, 20, 700, 1, 9000, 9000},
		{Config{TxRange: 250, CSRange: 400}, 1, 20, 700, 1, 9000, 9000},
	}
	for _, tc := range cases {
		cfg, steps, w, h := tc.cfg, tc.steps, tc.w, tc.h
		for seed := int64(1); seed <= tc.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := tc.minN + rng.Intn(tc.spanN)
			pos := randomPositions(rng, n, w, h)
			inc := MustNew(pos, cfg)
			for step := 0; step < steps; step++ {
				oldCS := slices.Clone(inc.csNeighbors)
				moved, np := mutate(rng, pos, w, h)
				diff, err := inc.MoveNodes(moved, np)
				if err != nil {
					t.Fatalf("cfg %+v seed %d step %d: MoveNodes: %v", cfg, seed, step, err)
				}
				oracle := MustNew(pos, cfg)
				assertEqualTopology(t, step, inc, oracle)
				// Both link slices are in dense-index order, so they are
				// equal exactly when no link appeared or vanished.
				wantChanged := !slices.Equal(diff.OldLinks, oracle.links)
				for v := range oldCS {
					wantChanged = wantChanged || !slices.Equal(oldCS[v], oracle.csNeighbors[v])
				}
				if diff.Changed() != wantChanged {
					t.Fatalf("cfg %+v seed %d step %d: Changed() = %v, want %v", cfg, seed, step, diff.Changed(), wantChanged)
				}
				if cfg.CSRange == cfg.TxRange && reflect.ValueOf(inc.neighbors).Pointer() != reflect.ValueOf(inc.csNeighbors).Pointer() {
					t.Fatalf("cfg %+v seed %d step %d: CS alias broken", cfg, seed, step)
				}
			}
		}
	}
}

// TestMoveNodesRejectsBadInput pins the argument validation.
func TestMoveNodesRejectsBadInput(t *testing.T) {
	topo := MustNew([]geom.Point{{X: 0}, {X: 100}, {X: 200}}, DefaultConfig())
	if _, err := topo.MoveNodes([]NodeID{0}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := topo.MoveNodes([]NodeID{3}, []geom.Point{{}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := topo.MoveNodes([]NodeID{1, 1}, []geom.Point{{}, {}}); err == nil {
		t.Fatal("duplicate mover accepted")
	}
	diff, err := topo.MoveNodes(nil, nil)
	if err != nil || diff.Changed() {
		t.Fatalf("empty move: diff %+v, err %v", diff, err)
	}
}

// benchSide scales the field so node density stays constant as N grows
// (the 3000×3000 field of the original N=200 benchmark).
func benchSide(n int) float64 { return 3000 * math.Sqrt(float64(n)/200) }

// BenchmarkIncrementalUpdate measures MoveNodes with four movers at
// constant density from N=200 (the original ISSUE 6 shape, ≥5x over a
// rebuild) up to city scale, where the grid keeps the per-epoch cost
// flat. The movers oscillate by a fixed offset so every iteration does
// comparable link-churn work.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, n := range []int{200, 1000, 5000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			side := benchSide(n)
			pos := randomPositions(rng, n, side, side)
			topo := MustNew(pos, DefaultConfig())
			moved := []NodeID{NodeID(11), NodeID(n / 3), NodeID(2 * n / 3), NodeID(n - 1)}
			dir := 1.0
			np := make([]geom.Point, len(moved))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, m := range moved {
					p := topo.Position(m)
					np[j] = geom.Point{X: p.X + dir*180, Y: p.Y - dir*120}
				}
				if _, err := topo.MoveNodes(moved, np); err != nil {
					b.Fatal(err)
				}
				dir = -dir
			}
		})
	}
}

// BenchmarkFullRebuild is the from-scratch baseline
// BenchmarkIncrementalUpdate is compared against (grid-backed New; the
// all-pairs scan's own baseline lives in BenchmarkTopologyBuild).
func BenchmarkFullRebuild(b *testing.B) {
	for _, n := range []int{200, 1000, 5000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			side := benchSide(n)
			pos := randomPositions(rng, n, side, side)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(pos, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package clique

import (
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/topology"
)

// assertEqualSets compares two decompositions clique-by-clique,
// identifiers included, plus the by-link index.
func assertEqualSets(t *testing.T, step int, got, want *Set) {
	t.Helper()
	if len(got.All()) != len(want.All()) {
		t.Fatalf("step %d: %d cliques, want %d\n got: %v\n want %v",
			step, len(got.All()), len(want.All()), render(got), render(want))
	}
	for i, g := range got.All() {
		w := want.All()[i]
		if g.ID != w.ID || !reflect.DeepEqual(g.Links, w.Links) {
			t.Fatalf("step %d: clique %d mismatch: got %v %v, want %v %v",
				step, i, g.ID, g.Links, w.ID, w.Links)
		}
	}
	for _, w := range want.All() {
		for _, l := range w.Links {
			gs, ws := got.Of(l), want.Of(l)
			if len(gs) != len(ws) {
				t.Fatalf("step %d: Of(%v): %d cliques, want %d", step, l, len(gs), len(ws))
			}
			for i := range gs {
				if gs[i].ID != ws[i].ID {
					t.Fatalf("step %d: Of(%v)[%d] = %v, want %v", step, l, i, gs[i].ID, ws[i].ID)
				}
			}
		}
	}
}

func render(s *Set) [][]topology.Link {
	var out [][]topology.Link
	for _, c := range s.All() {
		out = append(out, c.Links)
	}
	return out
}

// TestUpdateMatchesBuild is the clique half of the mobility differential
// oracle: over randomized motion sequences the incremental Update must
// reproduce Build exactly, identifiers and by-link index included, both
// from the touched set MoveNodes reports (the smallest cover, which
// RunContext passes) and from the full mover list. Uniform placements
// with jumps anywhere change much of the graph at once; the city case
// walks a 220 m grid under 250 m ranges, the density of the city
// scenarios, where a step flips a few links at the edge of range.
func TestUpdateMatchesBuild(t *testing.T) {
	const steps = 100
	uniform := func(rng *rand.Rand) ([]geom.Point, func(geom.Point) geom.Point) {
		const side = 900.0
		pos := make([]geom.Point, 18)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		return pos, func(geom.Point) geom.Point {
			return geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
	}
	city := func(rng *rand.Rand) ([]geom.Point, func(geom.Point) geom.Point) {
		const cols, pitch, walk = 7, 220.0, 40.0
		pos := make([]geom.Point, cols*cols)
		for i := range pos {
			pos[i] = geom.Point{
				X: float64(i%cols)*pitch + (rng.Float64()*2-1)*10,
				Y: float64(i/cols)*pitch + (rng.Float64()*2-1)*10,
			}
		}
		return pos, func(p geom.Point) geom.Point {
			return geom.Point{X: p.X + (rng.Float64()*2-1)*walk, Y: p.Y + (rng.Float64()*2-1)*walk}
		}
	}
	cases := []struct {
		name  string
		cfg   topology.Config
		place func(*rand.Rand) ([]geom.Point, func(geom.Point) geom.Point)
	}{
		{"uniform", topology.Config{TxRange: 250, CSRange: 250}, uniform},
		{"uniform-cs", topology.Config{TxRange: 250, CSRange: 420}, uniform},
		{"city", topology.Config{TxRange: 250, CSRange: 250}, city},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pos, move := tc.place(rng)
			topo := topology.MustNew(pos, tc.cfg)
			inc := Build(topo)
			touchedSteps := 0
			for step := 0; step < steps; step++ {
				k := 1 + rng.Intn(6)
				moved := make([]topology.NodeID, 0, k)
				np := make([]geom.Point, 0, k)
				for _, idx := range rng.Perm(len(pos))[:k] {
					moved = append(moved, topology.NodeID(idx))
					np = append(np, move(topo.Position(topology.NodeID(idx))))
				}
				diff, err := topo.MoveNodes(moved, np)
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", tc.name, seed, step, err)
				}
				if len(diff.Touched) > 0 {
					touchedSteps++
				}
				prevIDs := make([]ID, len(inc.All()))
				for i, c := range inc.All() {
					prevIDs[i] = c.ID
				}
				want := Build(topo)
				assertEqualSets(t, step, Update(topo, inc, moved), want)
				next := Update(topo, inc, diff.Touched)
				assertEqualSets(t, step, next, want)
				// Update must not write through to its input.
				for i, c := range inc.All() {
					if c.ID != prevIDs[i] {
						t.Fatalf("%s seed %d step %d: old set mutated", tc.name, seed, step)
					}
				}
				inc = next
			}
			if touchedSteps < steps/4 {
				t.Fatalf("%s seed %d: only %d of %d steps changed a neighbor list", tc.name, seed, touchedSteps, steps)
			}
		}
	}
}

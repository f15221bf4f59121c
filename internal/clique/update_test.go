package clique

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/mobility"
	"gmp/internal/sim"
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
// reproduce Build exactly, identifiers and by-link index included, from
// each node set MoveNodes offers — the greedy cover of the flipped pairs
// (which the session passes) and the full mover list — and must leave
// its input set as it was, although the result shares its unchanged
// cliques and lists. Uniform placements with jumps anywhere change much
// of the graph at once; the city cases walk a 220 m grid under 250 m
// ranges, the density of the city scenarios, where a step flips a few
// links at the edge of range. In "city-all" every node walks every step,
// as under the city workloads' random walk.
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
		all   bool // every node moves every step
	}{
		{"uniform", topology.Config{TxRange: 250, CSRange: 250}, uniform, false},
		{"uniform-cs", topology.Config{TxRange: 250, CSRange: 420}, uniform, false},
		{"city", topology.Config{TxRange: 250, CSRange: 250}, city, false},
		{"city-all", topology.Config{TxRange: 250, CSRange: 250}, city, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pos, move := tc.place(rng)
			topo := topology.MustNew(pos, tc.cfg)
			inc := Build(topo)
			changedSteps := 0
			for step := 0; step < steps; step++ {
				movers := rng.Perm(len(pos))
				if !tc.all {
					movers = movers[:1+rng.Intn(6)]
				}
				moved := make([]topology.NodeID, 0, len(movers))
				np := make([]geom.Point, 0, len(movers))
				for _, idx := range movers {
					moved = append(moved, topology.NodeID(idx))
					np = append(np, move(topo.Position(topology.NodeID(idx))))
				}
				diff, err := topo.MoveNodes(moved, np)
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", tc.name, seed, step, err)
				}
				if diff.Changed() {
					changedSteps++
				}
				before := snapshot(inc)
				want := Build(topo)
				assertEqualSets(t, step, Update(topo, inc, moved), want)
				next := Update(topo, inc, diff.Cover)
				assertEqualSets(t, step, next, want)
				// Update must not write through to its input.
				if !reflect.DeepEqual(snapshot(inc), before) {
					t.Fatalf("%s seed %d step %d: old set mutated", tc.name, seed, step)
				}
				inc = next
			}
			if changedSteps < steps/4 {
				t.Fatalf("%s seed %d: only %d of %d steps changed a neighbor list", tc.name, seed, changedSteps, steps)
			}
		}
	}
}

// snapshot deep-copies a set's cliques, identifiers and links, in order.
func snapshot(s *Set) []Clique {
	out := make([]Clique, len(s.All()))
	for i, c := range s.All() {
		out[i] = Clique{ID: c.ID, Links: slices.Clone(c.Links)}
	}
	return out
}

// cityWalk returns a 500-node placement like the city scenarios' (a
// 23-column grid at 220 m pitch, each node jittered up to 10 m) and the
// epochs of a 60 s random walk over it at 1–5 m/s in 1 s epochs, in
// which every node moves: the regime of the city500-dynamic benchmark.
func cityWalk(t *testing.T, seed int64) ([]geom.Point, []walkEpoch) {
	t.Helper()
	const n, cols, pitch = 500, 23, 220.0
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{
			X: float64(i%cols)*pitch + (rng.Float64()*2-1)*10,
			Y: float64(i/cols)*pitch + (rng.Float64()*2-1)*10,
		}
	}
	var eps []walkEpoch
	sched := sim.NewScheduler()
	cfg := mobility.Config{Model: mobility.RandomWalk, Epoch: time.Second, MinSpeed: 1, MaxSpeed: 5}
	record := func(moved []topology.NodeID, p []geom.Point) {
		eps = append(eps, walkEpoch{slices.Clone(moved), slices.Clone(p)})
	}
	if _, err := mobility.Start(sched, pos, cfg, sim.NewRand(seed), record); err != nil {
		t.Fatal(err)
	}
	sched.Run(60 * time.Second)
	return pos, eps
}

type walkEpoch struct {
	moved []topology.NodeID
	pos   []geom.Point
}

// allocated returns the bytes f allocates (the runtime.MemStats
// TotalAlloc delta).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUpdateAllocsCityWalk pins what a changing epoch's clique repair
// allocates on the 500-node city walk, where every node moves each
// epoch: Update from the cover allocates at most a third of the bytes a
// from-scratch Build does over the same epochs (an Update that rebuilt
// the whole decomposition and its index allocated 441 KB per epoch,
// where Build now allocates 560 KB). The two are replayed on twin
// topologies, so neither's garbage paces the other's collections.
//
// Update reuses its working memory through workPool, as a session's
// epochs do between collections. Under the race detector sync.Pool
// drops a quarter of its Puts at random, so a quarter of the epochs
// would pay for fresh working memory; the pool here hands back one held
// work whenever it has none, so every build mode counts the same
// repair.
func TestUpdateAllocsCityWalk(t *testing.T) {
	held := new(work)
	defer func(f func() any) { workPool.New = f }(workPool.New)
	workPool.New = func() any { return held }
	var update, build uint64
	changing := 0
	for seed := int64(1); seed <= 2; seed++ {
		pos, eps := cityWalk(t, seed)
		topo := topology.MustNew(pos, topology.DefaultConfig())
		twin := topology.MustNew(pos, topology.DefaultConfig())
		set := Build(topo)
		for _, e := range eps {
			diff, err := topo.MoveNodes(e.moved, e.pos)
			if err != nil {
				t.Fatal(err)
			}
			if diff.Changed() {
				changing++
				update += allocated(func() { set = Update(topo, set, diff.Cover) })
			}
		}
		for _, e := range eps {
			diff, err := twin.MoveNodes(e.moved, e.pos)
			if err != nil {
				t.Fatal(err)
			}
			if diff.Changed() {
				build += allocated(func() { Build(twin) })
			}
		}
	}
	if changing < 50 {
		t.Fatalf("only %d epochs changed the adjacency", changing)
	}
	ratio := float64(update) / float64(build)
	t.Logf("%d changing epochs: Update %d B/epoch, Build %d B/epoch (%.2f)",
		changing, update/uint64(changing), build/uint64(changing), ratio)
	if ratio > 1.0/3 {
		t.Errorf("Update allocates %.2f of Build's bytes per changing epoch, want at most 1/3", ratio)
	}
}

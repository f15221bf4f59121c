package topology_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/mobility"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// TestMoveNodesAllocsCityWalk pins what MoveNodes allocates on the
// epochs of a 500-node city walk (a 23-column grid at 220 m pitch under
// a 60 s random walk at 1–5 m/s in 1 s epochs, the city500-dynamic
// regime), in which every node moves. A mover whose Tx and CS lists did
// not change keeps its slices, the same backing arrays; and the epochs
// average at most a quarter of the 110 KB per epoch that MoveNodes took
// when it allocated its per-call arrays, every mover's candidate lists
// and a fresh link slice on every epoch.
func TestMoveNodesAllocsCityWalk(t *testing.T) {
	const n, cols, pitch = 500, 23, 220.0
	const maxPerEpoch = 110 << 10 / 4
	var total uint64
	epochs := 0
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{
				X: float64(i%cols)*pitch + (rng.Float64()*2-1)*10,
				Y: float64(i/cols)*pitch + (rng.Float64()*2-1)*10,
			}
		}
		topo := topology.MustNew(pos, topology.DefaultConfig())
		tx := make([][]topology.NodeID, n)
		cs := make([][]topology.NodeID, n)
		epoch := func(moved []topology.NodeID, p []geom.Point) {
			for v := range tx {
				tx[v] = topo.Neighbors(topology.NodeID(v))
				cs[v] = topo.CSNeighbors(topology.NodeID(v))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := topo.MoveNodes(moved, p)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			total += after.TotalAlloc - before.TotalAlloc
			epochs++
			for _, m := range moved {
				if !sameList(tx[m], topo.Neighbors(m)) || !sameList(cs[m], topo.CSNeighbors(m)) {
					t.Fatalf("seed %d epoch %d: mover %d has an equal list in a new slice", seed, epochs, m)
				}
			}
		}
		sched := sim.NewScheduler()
		cfg := mobility.Config{Model: mobility.RandomWalk, Epoch: time.Second, MinSpeed: 1, MaxSpeed: 5}
		if _, err := mobility.Start(sched, pos, cfg, sim.NewRand(seed), epoch); err != nil {
			t.Fatal(err)
		}
		sched.Run(60 * time.Second)
	}
	perEpoch := total / uint64(epochs)
	t.Logf("%d epochs: MoveNodes allocates %d B/epoch", epochs, perEpoch)
	if perEpoch > maxPerEpoch {
		t.Errorf("MoveNodes allocates %d B per all-mover epoch, want at most %d", perEpoch, maxPerEpoch)
	}
}

// sameList reports whether a list that kept its contents kept its slice
// too; a changed list passes.
func sameList(old, cur []topology.NodeID) bool {
	if !slices.Equal(old, cur) || len(cur) == 0 {
		return true
	}
	return &old[0] == &cur[0]
}

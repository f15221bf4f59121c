// Package routing builds static shortest-path routing tables for the
// simulated network. The paper assumes a routing protocol has already
// established a table at each node (§2.1); any loop-free table works, and
// minimum-hop routing with deterministic tie-breaking is used here.
package routing

import (
	"fmt"

	"gmp/internal/topology"
)

// NoRoute marks an unreachable (node, destination) pair.
const NoRoute topology.NodeID = -1

// Table holds, for every destination, each node's next hop and distance.
//
// Eager tables (Build, BuildExcluding, BuildGeographic*) carry every row
// up front. Lazy tables (BuildLazy, BuildLazyExcluding, BuildLazyFrom)
// materialize a destination's row on first access, so a simulation that
// routes to a handful of flow destinations pays one BFS per destination
// actually used instead of one per node — the difference between
// O(N·(N+E)) and O(F·(N+E)) at city scale.
//
// A lazy table is stamped with the topology's adjacency version
// (topology.Topology.Version). Once the adjacency changes, the table
// keeps serving the rows it already built — the routes as they were at
// build time — and panics on a row it would have to compute against the
// changed topology. A caller that keeps reading an old table after
// motion materializes the rows it needs before the change.
type Table struct {
	next [][]topology.NodeID // [dest][node] -> next hop (NoRoute if none)
	dist [][]int             // [dest][node] -> hop count (-1 if unreachable)

	// Lazy mode only: the topology rows are computed from, its
	// adjacency version at build time, and the excluded-node set frozen
	// at build time. topo is nil for eager tables. A lazy Table is not
	// safe for concurrent use.
	topo    *topology.Topology
	version uint64
	down    []bool

	// spareNext and spareDist are rows taken over from a retired table
	// (BuildLazyFrom), which new rows fill before allocating; queue is
	// the BFS scratch.
	spareNext [][]topology.NodeID
	spareDist [][]int
	queue     []topology.NodeID
}

// Build computes minimum-hop routes between all node pairs via one BFS per
// destination. Ties break toward the lowest-numbered neighbor, which keeps
// tables deterministic and, being destination-rooted shortest paths,
// loop-free (a requirement for the congestion-avoidance scheme, §2.2).
func Build(topo *topology.Topology) *Table {
	return BuildExcluding(topo, nil)
}

// BuildExcluding computes the same minimum-hop tables as Build but
// treats every node n with down[n] true as absent from the network: it
// relays nothing, and no routes lead to or through it (all entries for
// a down node or destination stay NoRoute). A nil down slice excludes
// nothing. This is the route-repair primitive of the fault subsystem:
// on a topology-change epoch the current down set is excluded and the
// new table installed on every live node.
func BuildExcluding(topo *topology.Topology, down []bool) *Table {
	t := newTable(topo.NumNodes())
	for dest := 0; dest < topo.NumNodes(); dest++ {
		buildRow(topo, down, dest, t)
	}
	return t
}

// BuildLazy returns a table whose per-destination rows are computed on
// first access. It is interchangeable with Build for read access — every
// materialized row is byte-identical to the eager one — under two
// restrictions documented on Table: no concurrent use, and no new row
// once the topology's adjacency has changed.
func BuildLazy(topo *topology.Topology) *Table {
	return BuildLazyExcluding(topo, nil)
}

// BuildLazyExcluding is BuildExcluding with lazy row materialization.
// The down set is copied, so later changes by the caller do not leak
// into rows built afterward.
func BuildLazyExcluding(topo *topology.Topology, down []bool) *Table {
	t := newTable(topo.NumNodes())
	t.topo, t.version = topo, topo.Version()
	if down != nil {
		t.down = append([]bool(nil), down...)
	}
	return t
}

// BuildLazyFrom is BuildLazyExcluding on the arrays of retired, a lazy
// table over the same topology that nothing reads again: the new table
// takes over its row headers, and every row retired built becomes
// backing for a row the new one builds. It reads exactly like a fresh
// BuildLazyExcluding, but a repair that replaces one live table with
// the next allocates no headers and no row it reads again. retired is
// left empty, and any later read of it panics.
func BuildLazyFrom(retired *Table, topo *topology.Topology, down []bool) *Table {
	if retired.topo != topo {
		panic("routing: BuildLazyFrom given an eager table or one over another topology")
	}
	t := &Table{
		next:      retired.next,
		dist:      retired.dist,
		topo:      topo,
		version:   topo.Version(),
		spareNext: retired.spareNext,
		spareDist: retired.spareDist,
		queue:     retired.queue,
	}
	if down != nil {
		t.down = append(retired.down[:0], down...)
	}
	for dest, next := range t.next {
		if next != nil {
			t.spareNext = append(t.spareNext, next)
			t.spareDist = append(t.spareDist, t.dist[dest])
			t.next[dest], t.dist[dest] = nil, nil
		}
	}
	*retired = Table{}
	return t
}

// newTable allocates the row tables with every row unmaterialized.
func newTable(n int) *Table {
	return &Table{
		next: make([][]topology.NodeID, n),
		dist: make([][]int, n),
	}
}

// buildRow runs the destination-rooted BFS for dest and installs the
// resulting next-hop and distance rows into t, in a spare row when t
// holds one.
func buildRow(topo *topology.Topology, down []bool, dest int, t *Table) {
	isDown := func(id topology.NodeID) bool { return down != nil && down[id] }
	n := topo.NumNodes()
	var next []topology.NodeID
	var dist []int
	if k := len(t.spareNext); k > 0 {
		next, dist = t.spareNext[k-1], t.spareDist[k-1]
		t.spareNext, t.spareDist = t.spareNext[:k-1], t.spareDist[:k-1]
	} else {
		next, dist = make([]topology.NodeID, n), make([]int, n)
	}
	for i := range next {
		next[i] = NoRoute
		dist[i] = -1
	}
	t.next[dest], t.dist[dest] = next, dist
	if isDown(topology.NodeID(dest)) {
		return // a crashed destination is unreachable from everywhere
	}
	// BFS outward from the destination.
	dist[dest] = 0
	queue := append(t.queue[:0], topology.NodeID(dest))
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range topo.Neighbors(cur) {
			if dist[nb] == -1 && !isDown(nb) {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	t.queue = queue
	// Next hop: the lowest-ID neighbor one step closer to dest.
	for i := 0; i < n; i++ {
		if i == dest || dist[i] <= 0 {
			continue
		}
		for _, nb := range topo.Neighbors(topology.NodeID(i)) {
			if !isDown(nb) && dist[nb] == dist[i]-1 {
				next[i] = nb
				break // neighbors are sorted ascending
			}
		}
	}
}

// ensure materializes dest's row if the table is lazy and the row has
// not been built yet. Eager rows are always present, so this is a
// nil-check on the hot path. It panics when the topology's adjacency
// changed since the table was built: the row would describe the new
// topology, not the one the table's other rows were built on.
func (t *Table) ensure(dest topology.NodeID) {
	if t.next[dest] == nil {
		if v := t.topo.Version(); v != t.version {
			panic(fmt.Sprintf("routing: row for destination %d requested from a lazy table of topology version %d, now at %d", dest, t.version, v))
		}
		buildRow(t.topo, t.down, int(dest), t)
	}
}

// NextHop returns the next hop from node `from` toward dest. ok is false
// when dest is unreachable or from == dest.
func (t *Table) NextHop(from, dest topology.NodeID) (topology.NodeID, bool) {
	t.ensure(dest)
	nh := t.next[dest][from]
	return nh, nh != NoRoute
}

// HopCount returns the number of hops from node to dest, or -1 if
// unreachable.
func (t *Table) HopCount(from, dest topology.NodeID) int {
	t.ensure(dest)
	return t.dist[dest][from]
}

// Path returns the full node sequence from src to dest, inclusive.
func (t *Table) Path(src, dest topology.NodeID) ([]topology.NodeID, error) {
	if src == dest {
		return []topology.NodeID{src}, nil
	}
	path := []topology.NodeID{src}
	cur := src
	for cur != dest {
		nh, ok := t.NextHop(cur, dest)
		if !ok {
			return nil, fmt.Errorf("routing: no route from %d to %d (stuck at %d)", src, dest, cur)
		}
		path = append(path, nh)
		cur = nh
		if len(path) > len(t.next)+1 {
			return nil, fmt.Errorf("routing: loop detected from %d to %d", src, dest)
		}
	}
	return path, nil
}

// Links returns the directed links of the path from src to dest.
func (t *Table) Links(src, dest topology.NodeID) ([]topology.Link, error) {
	path, err := t.Path(src, dest)
	if err != nil {
		return nil, err
	}
	links := make([]topology.Link, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		links = append(links, topology.Link{From: path[i], To: path[i+1]})
	}
	return links, nil
}

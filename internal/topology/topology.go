// Package topology models the static layout of a multihop wireless
// network: node positions, radio ranges, the resulting neighbor relation,
// two-hop neighborhoods, and the greedy dominating sets that the GMP
// dissemination protocol uses to flood link state two hops out.
//
// Adjacency is kept once, as per-node transmission-range and
// carrier-sense-range neighbor lists sorted by ID, plus a dense integer
// index over every directed link and, per link, the source's position
// in the target's list. Everything else is derived from them
// on demand: InTxRange and InCSRange binary-search a list, and the
// two-hop scope is merged from the lists. The simulator's per-frame hot
// path (internal/radio) iterates neighbor lists instead of scanning all
// nodes with Euclidean distance recomputation.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gmp/internal/geom"
)

// NodeID identifies a physical node. IDs are dense, starting at zero.
type NodeID int

// Link is a directed wireless link between two neighboring nodes.
type Link struct {
	From NodeID
	To   NodeID
}

// String renders the link in the paper's "(i,j)" notation.
func (l Link) String() string {
	return fmt.Sprintf("(%d,%d)", l.From, l.To)
}

// Reverse returns the link in the opposite direction.
func (l Link) Reverse() Link {
	return Link{From: l.To, To: l.From}
}

// Undirected returns a canonical ordering of the link's endpoints, used
// when a link should be treated without direction (e.g. contention).
func (l Link) Undirected() Link {
	if l.From > l.To {
		return Link{From: l.To, To: l.From}
	}
	return l
}

// Config carries the radio ranges that define connectivity and contention.
type Config struct {
	// TxRange is the maximum distance in meters at which a frame can be
	// decoded. The paper uses 250 m.
	TxRange float64
	// CSRange is the carrier-sense / interference range in meters. The
	// paper's scenarios behave as if CSRange equals TxRange (hidden
	// terminals exist two hops apart); a larger value may be configured.
	CSRange float64
}

// DefaultConfig mirrors the paper's setup (§7): 250 m transmission range
// with carrier sensing at the same distance.
func DefaultConfig() Config {
	return Config{TxRange: 250, CSRange: 250}
}

// Topology is an immutable placement of nodes plus derived adjacency.
type Topology struct {
	pos []geom.Point
	cfg Config

	nodes       []NodeID   // all IDs ascending (shared)
	neighbors   [][]NodeID // tx-range neighbors, ascending (shared)
	csNeighbors [][]NodeID // cs-range neighbors, ascending (shared)

	// Dense directed-link indexing: links are numbered in (From,
	// ascending To) order; linkBase[n] is the index of the first link
	// originating at n, so link (n, neighbors[n][k]) has index
	// linkBase[n]+k.
	links    []Link // all directed links in index order (shared)
	linkBase []int
	// revSlots[linkBase[n]+k] is n's position in the Tx list of
	// neighbors[n][k]: the slot under which that neighbor files n.
	revSlots []int32

	// grid buckets node positions by CSRange-sized cells so neighbor
	// recomputation inspects O(density) candidates instead of all N
	// nodes. MoveNodes keeps it current. Nil on brute-force-built
	// topologies (the differential oracle path), which fall back to
	// full scans.
	grid *geom.Grid

	// version counts the MoveNodes calls that changed adjacency.
	version uint64

	// move is MoveNodes' scratch; nil until the first call.
	move *moveScratch
}

// ErrNoNodes is returned when constructing a topology with no nodes.
var ErrNoNodes = errors.New("topology: no nodes")

// New builds a topology from node positions. Node i is located at
// positions[i]. The position slice is copied.
//
// Adjacency is derived from a spatial grid over the positions (cell
// edge = CSRange), so construction costs O(N·density) rather than the
// all-pairs O(N²). The output is identical to the brute-force scan —
// the same geometric predicate decides membership and per-node lists
// are emitted in ascending ID order — which newBruteForce pins as the
// differential oracle (TestGridMatchesBruteForce).
func New(positions []geom.Point, cfg Config) (*Topology, error) {
	return build(positions, cfg, true)
}

// newBruteForce is New with the original O(N²) all-pairs scan instead
// of the grid. It is retained as the differential oracle for the grid
// path; the resulting topology carries no grid and MoveNodes on it
// falls back to full scans.
func newBruteForce(positions []geom.Point, cfg Config) (*Topology, error) {
	return build(positions, cfg, false)
}

func build(positions []geom.Point, cfg Config, useGrid bool) (*Topology, error) {
	if len(positions) == 0 {
		return nil, ErrNoNodes
	}
	if cfg.TxRange <= 0 {
		return nil, fmt.Errorf("topology: non-positive tx range %v", cfg.TxRange)
	}
	if cfg.CSRange < cfg.TxRange {
		return nil, fmt.Errorf("topology: carrier-sense range %v below tx range %v", cfg.CSRange, cfg.TxRange)
	}
	n := len(positions)
	t := &Topology{
		pos: append([]geom.Point(nil), positions...),
		cfg: cfg,
	}
	t.nodes = make([]NodeID, n)
	for i := range t.nodes {
		t.nodes[i] = NodeID(i)
	}

	// Neighbor lists from the geometric predicates. When the ranges
	// coincide the CS lists alias the Tx ones.
	sameRange := cfg.CSRange == cfg.TxRange
	t.neighbors = make([][]NodeID, n)
	if sameRange {
		t.csNeighbors = t.neighbors
	} else {
		t.csNeighbors = make([][]NodeID, n)
	}
	if useGrid {
		// One grid query per node yields the O(density) candidates
		// within CSRange (⊇ TxRange). The filtered lists are sorted
		// afterwards (cheaper than sorting the raw candidates), landing
		// on the same ascending order the all-pairs scan produces.
		t.grid = geom.NewGrid(positions, cfg.CSRange)
		buf := make([]int32, 0, 64)
		var txScratch, csScratch []NodeID
		for i := range positions {
			pi := positions[i]
			buf = t.grid.Near(pi, cfg.CSRange, buf[:0])
			txScratch, csScratch = txScratch[:0], csScratch[:0]
			for _, jj := range buf {
				j := int(jj)
				if j == i {
					continue
				}
				if geom.WithinRange(pi, positions[j], cfg.TxRange) {
					txScratch = append(txScratch, NodeID(j))
				}
				if !sameRange && geom.WithinRange(pi, positions[j], cfg.CSRange) {
					csScratch = append(csScratch, NodeID(j))
				}
			}
			slices.Sort(txScratch)
			t.neighbors[i] = copyIDs(txScratch)
			if !sameRange {
				slices.Sort(csScratch)
				t.csNeighbors[i] = copyIDs(csScratch)
			}
		}
	} else {
		for i := range positions {
			for j := range positions {
				if i == j {
					continue
				}
				if geom.WithinRange(positions[i], positions[j], cfg.TxRange) {
					t.neighbors[i] = append(t.neighbors[i], NodeID(j))
				}
				if !sameRange && geom.WithinRange(positions[i], positions[j], cfg.CSRange) {
					t.csNeighbors[i] = append(t.csNeighbors[i], NodeID(j))
				}
			}
		}
	}

	t.linkBase = make([]int, n+1)
	t.links = t.renumberLinks(nil, make([]int32, n))
	return t, nil
}

// copyIDs returns an exact-size copy of ids, nil when empty (neighbor
// lists leave empty entries nil throughout the package).
func copyIDs(ids []NodeID) []NodeID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]NodeID, len(ids))
	copy(out, ids)
	return out
}

// MustNew is New for static scenario tables; it panics on error.
func MustNew(positions []geom.Point, cfg Config) *Topology {
	t, err := New(positions, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.pos) }

// Nodes returns all node IDs in ascending order. The returned slice is
// shared; callers must not modify it.
func (t *Topology) Nodes() []NodeID { return t.nodes }

// Position returns node n's coordinates.
func (t *Topology) Position(n NodeID) geom.Point { return t.pos[n] }

// Config returns the radio configuration.
func (t *Topology) Config() Config { return t.cfg }

// Valid reports whether n names a node in this topology.
func (t *Topology) Valid(n NodeID) bool {
	return n >= 0 && int(n) < len(t.pos)
}

// InTxRange reports whether a transmission from a can be decoded at b,
// i.e. whether a→b is a link. O(log degree), no distance computation.
func (t *Topology) InTxRange(a, b NodeID) bool {
	return t.LinkIndex(a, b) >= 0
}

// InCSRange reports whether a transmission from a is sensed (or interferes)
// at b. O(log degree): a binary search of CSNeighbors(a).
func (t *Topology) InCSRange(a, b NodeID) bool {
	_, ok := slices.BinarySearch(t.csNeighbors[a], b)
	return ok
}

// Neighbors returns the nodes within transmission range of n, ascending.
// The returned slice is shared; callers must not modify it.
func (t *Topology) Neighbors(n NodeID) []NodeID { return t.neighbors[n] }

// CSNeighbors returns the nodes within carrier-sense range of n,
// ascending. When CSRange equals TxRange this is exactly Neighbors(n).
// The returned slice is shared; callers must not modify it.
func (t *Topology) CSNeighbors(n NodeID) []NodeID { return t.csNeighbors[n] }

// NumLinks returns the number of directed links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Links returns every directed link in the network, in dense-index
// order: ascending From, then ascending To. The returned slice is
// shared; callers must not modify it, and it stays valid through the
// next MoveNodes call only (MoveNodes documents the double buffer).
func (t *Topology) Links() []Link { return t.links }

// LinkAt returns the directed link with dense index idx.
func (t *Topology) LinkAt(idx int) Link { return t.links[idx] }

// FirstLink returns the dense index of n's first outgoing link: the link
// from n to Neighbors(n)[k] has index FirstLink(n)+k.
func (t *Topology) FirstLink(n NodeID) int { return t.linkBase[n] }

// ReverseSlots returns, for each of n's Tx neighbors in Neighbors(n)
// order, n's position in that neighbor's own list: Neighbors(m)[s] == n
// for m = Neighbors(n)[k] and s = ReverseSlots(n)[k]. A receiver can
// therefore address per-neighbor state by the slot the transmitter's
// list hands it, with no search. Slots are stable until adjacency
// changes (a MoveNodes call whose Diff reports Changed). The returned
// slice is shared; callers must not modify it, and a later MoveNodes
// call may rewrite it in place.
func (t *Topology) ReverseSlots(n NodeID) []int32 {
	return t.revSlots[t.linkBase[n]:t.linkBase[n+1]:t.linkBase[n+1]]
}

// LinkIndex returns the dense index of the directed link from→to, or -1
// when the nodes are not within transmission range. O(log degree).
func (t *Topology) LinkIndex(from, to NodeID) int {
	nbrs := t.neighbors[from]
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbrs[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo] == to {
		return t.linkBase[from] + lo
	}
	return -1
}

// TwoHopNeighbors returns all nodes reachable from n in one or two hops,
// excluding n itself, in ascending order. This is the scope of GMP's link
// state dissemination (§6.2 step 2). It is merged from the neighbor lists
// on each call, into a fresh slice the caller owns.
func (t *Topology) TwoHopNeighbors(n NodeID) []NodeID {
	var out []NodeID
	for _, m := range t.neighbors[n] {
		out = append(out, m)
		out = append(out, t.neighbors[m]...)
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if i, ok := slices.BinarySearch(out, n); ok {
		out = slices.Delete(out, i, i+1)
	}
	return out
}

// DominatingSet returns a minimal-ish subset of n's one-hop neighbors whose
// neighborhoods jointly cover every strict two-hop neighbor of n. GMP uses
// this set to rebroadcast link state so it reaches the full two-hop
// neighborhood (§6.2). The greedy set-cover heuristic is used; ties break
// toward smaller node IDs for determinism.
func (t *Topology) DominatingSet(n NodeID) []NodeID {
	oneHop := make(map[NodeID]bool, len(t.neighbors[n]))
	for _, m := range t.neighbors[n] {
		oneHop[m] = true
	}
	// Strict two-hop neighbors: reachable in two hops but not one.
	uncovered := make(map[NodeID]bool)
	for _, m := range t.neighbors[n] {
		for _, k := range t.neighbors[m] {
			if k != n && !oneHop[k] {
				uncovered[k] = true
			}
		}
	}
	var set []NodeID
	for len(uncovered) > 0 {
		best := NodeID(-1)
		bestCover := 0
		for _, m := range t.neighbors[n] {
			cover := 0
			for _, k := range t.neighbors[m] {
				if uncovered[k] {
					cover++
				}
			}
			if cover > bestCover || (cover == bestCover && cover > 0 && (best == -1 || m < best)) {
				best = m
				bestCover = cover
			}
		}
		if best == -1 {
			break // isolated two-hop nodes cannot happen, but stay safe
		}
		set = append(set, best)
		for _, k := range t.neighbors[best] {
			delete(uncovered, k)
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

// Connected reports whether the network graph is connected.
func (t *Topology) Connected() bool {
	if len(t.pos) == 0 {
		return false
	}
	seen := make([]bool, len(t.pos))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range t.neighbors[n] {
			if !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	return count == len(t.pos)
}

// LinksContend reports whether two wireless links contend, i.e. cannot
// carry successful transmissions simultaneously. Two links contend when
// they share a node or when any endpoint of one is within carrier-sense /
// interference range of any endpoint of the other. This is the standard
// "protocol model" contention relation used to build contention cliques.
func (t *Topology) LinksContend(a, b Link) bool {
	if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
		return true
	}
	ends := [2]NodeID{a.From, a.To}
	others := [2]NodeID{b.From, b.To}
	for _, x := range ends {
		for _, y := range others {
			if t.InCSRange(x, y) {
				return true
			}
		}
	}
	return false
}

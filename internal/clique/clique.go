// Package clique builds the link-contention graph of a wireless network
// and enumerates its proper (maximal) contention cliques (§3.3), which
// bound the combined rate of their member links by the channel capacity.
//
// Clique identifiers follow §6.3: each clique is named by the smallest
// node ID appearing in the clique plus a sequence number, which is how the
// paper makes identifiers system-wide unique while assignable by a single
// local node.
package clique

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"gmp/internal/topology"
)

// ID is a system-wide unique clique identifier (§6.3).
type ID struct {
	// Owner is the smallest node ID among the clique's link endpoints;
	// that node assigns the sequence number.
	Owner topology.NodeID
	Seq   int
}

// String renders the identifier as "owner.seq".
func (id ID) String() string { return fmt.Sprintf("%d.%d", id.Owner, id.Seq) }

// Clique is one proper (maximal) set of mutually contending links. Links
// are stored undirected in canonical (low, high) order, sorted.
type Clique struct {
	ID    ID
	Links []topology.Link
}

// Contains reports whether the clique includes the (undirected) link l.
func (c *Clique) Contains(l topology.Link) bool {
	u := l.Undirected()
	for _, m := range c.Links {
		if m == u {
			return true
		}
	}
	return false
}

// minNode returns the smallest node ID among the clique's endpoints:
// the first link's From, since links are canonical (From < To) and
// sorted by From.
func (c *Clique) minNode() topology.NodeID { return c.Links[0].From }

// Set is a clique decomposition of a topology: every proper contention
// clique (Build, Update), or those holding given links (Holding).
type Set struct {
	cliques []*Clique
	// The by-link index: links lists each member link once, canonically
	// sorted, and links[i]'s cliques are of[start[i]:start[i+1]], in
	// canonical clique order.
	links []topology.Link
	start []int32
	of    []*Clique
}

// Build enumerates every proper contention clique of the topology's links
// using Bron–Kerbosch (degeneracy-ordered, with pivoting) on the
// link-contention graph. Only links actually usable for routing (between
// neighbors) participate. Each undirected link appears once.
//
// The contention graph is assembled sparsely: a link's possible
// contenders are exactly the links incident to its endpoints' carrier-
// sense neighborhoods (which the topology derives from its spatial
// grid), so construction costs O(L·density²) rather than the all-pairs
// O(L²). The dense-matrix enumerator is retained as the differential
// oracle (TestSparseMatchesDense).
func Build(topo *topology.Topology) *Set {
	g := newLinkGraph(topo)
	for i := range g.links {
		g.row(int32(i))
	}
	var out []*Clique
	for _, r := range maximalCliquesSparse(len(g.links), g.nbr) {
		out = append(out, cliqueFromIndices32(g.links, r))
	}
	return finish(topo, out)
}

// Holding returns the cliques of topo that hold at least one of links
// (either direction; repeats and links outside topo are allowed): as link
// lists, exactly the cliques of Build(topo) with such a link, in the same
// relative order. Bron–Kerbosch is rooted only at those links, so only
// their contention neighborhoods are searched. Identifiers rank within
// the subset, so a clique's ID generally differs from its ID in
// Build(topo); Of agrees with Build's for every given link.
func Holding(topo *topology.Topology, links []topology.Link) *Set {
	g := newLinkGraph(topo)
	isRoot := make([]bool, len(g.links))
	var roots []int32
	for _, l := range links {
		if i := findLink(g.links, l.Undirected()); i >= 0 && !isRoot[i] {
			isRoot[i] = true
			roots = append(roots, int32(i))
		}
	}
	var out []*Clique
	g.rooted(roots, isRoot, func(c *Clique) { out = append(out, c) })
	return finish(topo, out)
}

// linkGraph is a topology's link-contention graph, built on demand: the
// undirected links in canonical ascending (From, To) order, the links at
// each node, and each link's contention row, computed on first use.
type linkGraph struct {
	topo     *topology.Topology
	links    []topology.Link
	incident [][]int32
	nbr      [][]int32 // contention rows; nil until computed

	// Scratch for contentionNeighbors, and the unused tail of the chunk
	// that the rows are copied into.
	mark    []bool
	scratch []int32
	arena   []int32
}

// rowChunk is the length of each chunk of the rows' arena.
const rowChunk = 1024

func newLinkGraph(topo *topology.Topology) *linkGraph {
	links := undirectedLinks(topo)
	return &linkGraph{
		topo:     topo,
		links:    links,
		incident: incidentLists(topo.NumNodes(), links),
		mark:     make([]bool, len(links)),
		nbr:      make([][]int32, len(links)),
	}
}

// row returns link i's contention row, computing it on first use. Rows
// are capped windows of arena chunks, and an empty row is non-nil.
func (g *linkGraph) row(i int32) []int32 {
	if g.nbr[i] == nil {
		g.scratch = contentionNeighbors(g.scratch[:0], g.topo, g.links, g.incident, int(i), g.mark)
		if g.arena == nil || len(g.arena) < len(g.scratch) {
			g.arena = make([]int32, max(len(g.scratch), rowChunk))
		}
		k := copy(g.arena, g.scratch)
		g.nbr[i], g.arena = g.arena[:k:k], g.arena[k:]
	}
	return g.nbr[i]
}

// rooted calls emit with every clique that holds a link of roots (link
// indices, each once; isRoot marks them), once each, from its smallest
// root link: Bron–Kerbosch is rooted at each root link a, over a's
// contention neighborhood N(a) with the smaller root links in X.
// Maximality inside {a} ∪ N(a) is maximality in the graph, since any
// extender contends with a. The order of roots only orders the output.
func (g *linkGraph) rooted(roots []int32, isRoot []bool, emit func(*Clique)) {
	var e enumerator
	report := func(r []int32) { emit(cliqueFromIndices32(g.links, r)) }
	for _, a := range roots {
		for _, w := range g.row(a) {
			g.row(w) // the search reads every neighbor's row
		}
		e.root(g.nbr, a, func(w int32) bool { return isRoot[w] && w < a }, report)
	}
}

// undirectedLinks returns each undirected link once, in canonical
// ascending (From, To) order. Radio ranges are symmetric, so every
// undirected edge appears in topo.Links() in both directions and the
// (From < To) filter keeps exactly one.
func undirectedLinks(topo *topology.Topology) []topology.Link {
	links := make([]topology.Link, 0, topo.NumLinks()/2)
	for _, l := range topo.Links() {
		if l.From < l.To {
			links = append(links, l)
		}
	}
	return links
}

// incidentLists maps each node to the ascending indices (into links) of
// the undirected links touching it. The lists are windows of one array.
func incidentLists(numNodes int, links []topology.Link) [][]int32 {
	deg := make([]int32, numNodes)
	for _, l := range links {
		deg[l.From]++
		deg[l.To]++
	}
	flat := make([]int32, 2*len(links))
	incident := make([][]int32, numNodes)
	at := 0
	for v, d := range deg {
		incident[v] = flat[at : at : at+int(d)]
		at += int(d)
	}
	for i, l := range links {
		incident[l.From] = append(incident[l.From], int32(i))
		incident[l.To] = append(incident[l.To], int32(i))
	}
	return incident
}

// contentionNeighbors appends to out the sorted indices of every link
// contending with links[i]. Two links contend when they share a node or
// have endpoints within CS range, so the contenders are exactly the links
// incident to an endpoint of links[i] or to a CS neighbor of one: no scan
// of the full link table and no pairwise test. mark is an all-false
// scratch of len(links), restored before returning.
func contentionNeighbors(out []int32, topo *topology.Topology, links []topology.Link, incident [][]int32, i int, mark []bool) []int32 {
	l := links[i]
	mark[i] = true // exclude self
	consider := func(node topology.NodeID) {
		for _, j := range incident[node] {
			if !mark[j] {
				mark[j] = true
				out = append(out, j)
			}
		}
	}
	consider(l.From)
	consider(l.To)
	for _, v := range topo.CSNeighbors(l.From) {
		consider(v)
	}
	for _, v := range topo.CSNeighbors(l.To) {
		consider(v)
	}
	slices.Sort(out)
	mark[i] = false
	for _, j := range out {
		mark[j] = false
	}
	return out
}

// maximalCliques enumerates every maximal clique of the graph given by
// its adjacency matrix, using Bron–Kerbosch with pivoting.
func maximalCliques(n int, adj [][]bool) [][]int {
	var out [][]int
	var bronKerbosch func(r, p, x []int)
	bronKerbosch = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			if len(r) == 0 {
				return // edge-free graph: nothing to emit
			}
			out = append(out, append([]int(nil), r...))
			return
		}
		// Pivot: vertex of p ∪ x with most neighbors in p.
		pivot, best := -1, -1
		for _, v := range append(append([]int(nil), p...), x...) {
			cnt := 0
			for _, w := range p {
				if adj[v][w] {
					cnt++
				}
			}
			if cnt > best {
				best = cnt
				pivot = v
			}
		}
		var candidates []int
		for _, v := range p {
			if pivot == -1 || !adj[pivot][v] {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, w := range p {
				if adj[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if adj[v][w] {
					nx = append(nx, w)
				}
			}
			bronKerbosch(append(r, v), np, nx)
			// Move v from p to x.
			for i, w := range p {
				if w == v {
					p = append(p[:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	bronKerbosch(nil, all, nil)
	return out
}

// maximalCliquesSparse enumerates the same maximal cliques as
// maximalCliques (the dense differential oracle, TestSparseMatchesDense)
// from sorted adjacency lists instead of a matrix. The outer loop visits
// vertices in degeneracy order and roots the search at each in turn: a
// vertex's subproblem is confined to its neighborhood, with its earlier
// neighbors excluded, so the cost tracks the graph's degeneracy (bounded
// by local density in geometric contention graphs) rather than its size.
// Output order is unspecified; callers canonicalize via finish.
func maximalCliquesSparse(n int, nbr [][]int32) [][]int32 {
	var out [][]int32
	emit := func(r []int32) { out = append(out, append([]int32(nil), r...)) }
	order, pos := degeneracyOrder(n, nbr)
	var e enumerator
	for _, v := range order {
		e.root(nbr, v, func(w int32) bool { return pos[w] < pos[v] }, emit)
	}
	return out
}

// enumerator runs Bron–Kerbosch with pivoting rooted at one vertex at a
// time. The search never leaves the root's neighborhood, so it works on
// bitsets over that neighborhood: set intersections and the pivot's
// neighbor counts are word operations. Buffers are reused across roots.
type enumerator struct {
	local []int32  // the root's neighbors, sorted: local index -> vertex
	words int      // words per local bitset
	adj   []uint64 // local adjacency, words per row
	stack []uint64 // per depth: P, X and the candidates being expanded
	r     []int32  // the clique being grown, as local indices
	out   []int32  // a reported clique, as vertices
	emit  func([]int32)
}

// root calls emit with every maximal clique of the graph nbr (sorted
// adjacency rows) that contains v and no neighbor w of v with excluded(w)
// — the cliques a search rooted at each excluded neighbor reports. The
// rows of v and of each of its neighbors are read. emit must not modify
// or retain its argument.
func (e *enumerator) root(nbr [][]int32, v int32, excluded func(int32) bool, emit func([]int32)) {
	local := nbr[v]
	k := len(local)
	w := (k + 63) / 64
	e.local, e.words, e.emit = local, w, emit
	e.adj = slices.Grow(e.adj[:0], k*w)[:k*w]
	clear(e.adj)
	for i, u := range local {
		row, other := e.adj[i*w:(i+1)*w], nbr[u]
		for a, b := 0, 0; a < len(other) && b < k; {
			switch {
			case other[a] == local[b]:
				row[b>>6] |= 1 << (b & 63)
				a++
				b++
			case other[a] < local[b]:
				a++
			default:
				b++
			}
		}
	}
	// A clique grows by at most one vertex per level, so k+1 levels of
	// three sets suffice.
	e.stack = slices.Grow(e.stack[:0], (k+1)*3*w)[:(k+1)*3*w]
	p, x := e.stack[:w], e.stack[w:2*w]
	clear(p)
	clear(x)
	for i, u := range local {
		if excluded(u) {
			x[i>>6] |= 1 << (i & 63)
		} else {
			p[i>>6] |= 1 << (i & 63)
		}
	}
	e.r = e.r[:0]
	e.out = append(e.out[:0], v)
	e.expand(0)
}

// expand is one Bron–Kerbosch call on the sets at depth d: it reports
// the clique when P and X are empty, else branches on each vertex of P
// outside the neighborhood of a pivot with the most neighbors in P.
func (e *enumerator) expand(d int) {
	w := e.words
	set := e.stack[d*3*w:]
	p, x, cand := set[:w], set[w:2*w], set[2*w:3*w]
	if isEmpty(p) {
		if isEmpty(x) {
			out := e.out[:1]
			for _, i := range e.r {
				out = append(out, e.local[i])
			}
			e.out = out
			e.emit(out)
		}
		return
	}
	pivot, best := 0, -1
	for wi := range p {
		for m := p[wi] | x[wi]; m != 0; m &= m - 1 {
			u := wi*64 + bits.TrailingZeros64(m)
			c := 0
			for j, a := range e.adj[u*w : (u+1)*w] {
				c += bits.OnesCount64(a & p[j])
			}
			if c > best {
				pivot, best = u, c
			}
		}
	}
	for j, a := range e.adj[pivot*w : (pivot+1)*w] {
		cand[j] = p[j] &^ a
	}
	next := e.stack[(d+1)*3*w:]
	np, nx := next[:w], next[w:2*w]
	for wi := range cand {
		for m := cand[wi]; m != 0; m &= m - 1 {
			v := wi*64 + bits.TrailingZeros64(m)
			for j, a := range e.adj[v*w : (v+1)*w] {
				np[j] = p[j] & a
				nx[j] = x[j] & a
			}
			e.r = append(e.r, int32(v))
			e.expand(d + 1)
			e.r = e.r[:len(e.r)-1]
			p[wi] &^= 1 << (v & 63)
			x[wi] |= 1 << (v & 63)
		}
	}
}

func isEmpty(s []uint64) bool {
	for _, m := range s {
		if m != 0 {
			return false
		}
	}
	return true
}

// degeneracyOrder returns a vertex order built by repeatedly removing a
// minimum-residual-degree vertex (ties toward lower index), plus each
// vertex's position in that order.
func degeneracyOrder(n int, nbr [][]int32) (order []int32, pos []int32) {
	deg := make([]int32, n)
	maxDeg := 0
	for v := range nbr {
		deg[v] = int32(len(nbr[v]))
		if len(nbr[v]) > maxDeg {
			maxDeg = len(nbr[v])
		}
	}
	// Bucket queue over residual degrees.
	buckets := make([][]int32, maxDeg+1)
	for v := n - 1; v >= 0; v-- {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, n)
	order = make([]int32, 0, n)
	pos = make([]int32, n)
	cur := 0
	for len(order) < n {
		if cur > 0 && len(buckets[cur-1]) > 0 {
			cur-- // a neighbor removal may have exposed a lower bucket
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != int32(cur) {
			continue // stale bucket entry; v lives in a lower bucket now
		}
		removed[v] = true
		pos[v] = int32(len(order))
		order = append(order, v)
		for _, w := range nbr[v] {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
			}
		}
	}
	return order, pos
}

// cliqueFromIndices32 materializes a clique from vertex indices into the
// link table, with the canonical sorted link order.
func cliqueFromIndices32(links []topology.Link, r []int32) *Clique {
	ls := make([]topology.Link, len(r))
	for i, idx := range r {
		ls[i] = links[idx]
	}
	slices.SortFunc(ls, compareLinks)
	return &Clique{Links: ls}
}

// compareLinks orders links by (From, To), the canonical link order.
func compareLinks(a, b topology.Link) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// finish sorts the cliques into canonical order, assigns the §6.3
// owner.seq identifiers, and indexes them by member link. Build, Update
// and Holding all funnel through it, so identifier assignment is
// identical for identical clique sets. An owner's cliques are adjacent in
// canonical order (the owner is the first link's From), so a clique's
// sequence number follows from its predecessor's. Every member link of a
// clique of topo has a dense number, its directed link index; the index
// counts each link's cliques, then lays every link's list out as one
// window of a single array.
func finish(topo *topology.Topology, out []*Clique) *Set {
	slices.SortFunc(out, compareCliques)
	count := make([]int32, topo.NumLinks())
	pairs := 0
	for i, c := range out {
		c.ID = ID{Owner: c.minNode()}
		if i > 0 && out[i-1].ID.Owner == c.ID.Owner {
			c.ID.Seq = out[i-1].ID.Seq + 1
		}
		for _, l := range c.Links {
			count[topo.LinkIndex(l.From, l.To)]++
		}
		pairs += len(c.Links)
	}
	distinct := 0
	for _, k := range count {
		if k > 0 {
			distinct++
		}
	}
	s := &Set{
		cliques: out,
		links:   make([]topology.Link, 0, distinct),
		start:   make([]int32, 0, distinct+1),
		of:      make([]*Clique, pairs),
	}
	// count becomes each link's fill position.
	at := int32(0)
	for idx, k := range count {
		if k > 0 {
			s.links = append(s.links, topo.LinkAt(idx))
			s.start = append(s.start, at)
			count[idx] = at
			at += k
		}
	}
	s.start = append(s.start, at)
	for _, c := range out {
		for _, l := range c.Links {
			idx := topo.LinkIndex(l.From, l.To)
			s.of[count[idx]] = c
			count[idx]++
		}
	}
	return s
}

// compareCliques orders cliques canonically: by their sorted link lists,
// lexicographically, a proper prefix first.
func compareCliques(a, b *Clique) int {
	return slices.CompareFunc(a.Links, b.Links, compareLinks)
}

// All returns every proper contention clique.
func (s *Set) All() []*Clique { return s.cliques }

// Of returns the cliques that contain the (undirected) link l. A
// bandwidth-saturated link always belongs to at least one of these (§3.3).
// O(log links).
func (s *Set) Of(l topology.Link) []*Clique {
	i, ok := slices.BinarySearchFunc(s.links, l.Undirected(), compareLinks)
	if !ok {
		return nil
	}
	lo, hi := s.start[i], s.start[i+1]
	return s.of[lo:hi:hi]
}

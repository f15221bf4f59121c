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
	"sync"

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
// clique (Build, Update), or those holding given links (Holding). A set
// is never written after it is built, so Update shares the cliques and
// by-link lists that a change left alone with the set it started from.
type Set struct {
	cliques []*Clique
	// The by-link index: links lists each member link once, canonically
	// sorted, and of[i] holds links[i]'s cliques in canonical order.
	links []topology.Link
	of    [][]*Clique
}

// Build enumerates every proper contention clique of the topology's
// links: Holding over every link. Only links actually usable for routing
// (between neighbors) participate, and each undirected link appears once.
// TestBuildMatchesDense checks it against a dense Bron–Kerbosch over the
// all-pairs contention matrix.
func Build(topo *topology.Topology) *Set { return Holding(topo, topo.Links()) }

// Holding returns the proper contention cliques of topo that hold at
// least one of links (either direction; repeats and links outside topo
// are allowed), in canonical order. Bron–Kerbosch with pivoting is rooted
// at each given link in turn, with the smaller ones excluded, over the
// link-contention graph built on demand around them, so only their
// contention neighborhoods are searched: a link's contenders are the
// links at its endpoints and their carrier-sense neighbors, with no scan
// of the link table. Identifiers rank within the subset, so a clique's ID
// generally differs from its ID in Build(topo); Of agrees with Build's
// for every given link.
func Holding(topo *topology.Topology, links []topology.Link) *Set {
	w := new(work).reset(topo)
	g := &w.linkGraph
	for _, l := range links {
		g.vertexOf(l)
	}
	var out []*Clique
	g.rooted(int32(len(g.links)), func(r []int32) { out = append(out, g.clique(r)) })
	return w.finish(&Set{}, nil, out)
}

// work is the memory a Holding or Update call works in: the contention
// graph and the per-call arrays, none of which the result holds. Update
// takes one from workPool and returns it, so the epochs of a mobility
// session reuse one instead of allocating their own. Holding (and so
// Build) runs once per topology, on a work of its own sized to it:
// pooled, it would only keep its memory alive.
type work struct {
	linkGraph

	// finish: per dense link index, the added cliques by link, and the
	// by-link index being built.
	count      []int32
	redo       []bool
	byLink     []*Clique
	indexLinks []topology.Link
	indexOf    [][]*Clique
	// Update: per node, and per clique of the old set.
	covered, dirty []bool
	first          []int32 // index of each owner's first old clique
	state          []uint8
	links, rest    []topology.Link
	// Update's route-3 candidates so far: candidate i is
	// cands[candEnd[i-1]:candEnd[i]].
	cands   []topology.Link
	candEnd []int
}

var workPool = sync.Pool{New: func() any { return new(work) }}

// getWork returns a pooled work, reset for topo.
func getWork(topo *topology.Topology) *work {
	return workPool.Get().(*work).reset(topo)
}

// reset readies w for a call on topo, with an empty graph, and returns
// it.
func (w *work) reset(topo *topology.Topology) *work {
	g := &w.linkGraph
	g.topo = topo
	g.id = zeroed(g.id, topo.NumLinks())
	// Each undirected link is at most one vertex.
	n := topo.NumLinks() / 2
	g.links = slices.Grow(g.links[:0], n)
	g.nbr = slices.Grow(g.nbr[:0], n)
	g.mark = slices.Grow(g.mark[:0], n)
	g.arena, g.chunk = nil, 0
	return w
}

// release returns w to the pool, holding nothing of the call's; w must
// not be used after.
func (w *work) release() {
	w.topo, w.e.local, w.e.emit = nil, nil, nil
	workPool.Put(w)
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// linkGraph is a topology's link-contention graph, built on demand: each
// undirected link becomes a vertex when first seen, and each vertex's
// contention row is computed on first use, so a search near a few links
// touches only their neighborhoods.
type linkGraph struct {
	topo  *topology.Topology
	links []topology.Link // vertex -> undirected link, canonical
	id    []int32         // dense directed link index -> vertex+1, or 0
	nbr   [][]int32       // contention rows; nil until computed

	// Per-vertex marks for contenders (all false between calls) and its
	// scratch. Rows are copied into the unused tail, arena, of chunks;
	// chunks[chunk:] are free.
	mark    []bool
	scratch []int32
	arena   []int32
	chunks  [][]int32
	chunk   int
	e       enumerator
}

// arenaChunk is the length of each chunk of the arena that contention
// rows are carved from.
const arenaChunk = 1024

// vertex returns the vertex of the link between n and its k-th neighbor,
// numbering it when first seen; first is topo.FirstLink(n).
func (g *linkGraph) vertex(n topology.NodeID, k, first int) int32 {
	if v := g.id[first+k]; v > 0 {
		return v - 1
	}
	x := g.topo.Neighbors(n)[k]
	v := int32(len(g.links))
	g.links = append(g.links, topology.Link{From: n, To: x}.Undirected())
	g.nbr = append(g.nbr, nil)
	g.mark = append(g.mark, false)
	g.id[first+k] = v + 1
	g.id[g.topo.LinkIndex(x, n)] = v + 1
	return v
}

// vertexOf returns the vertex of link l (either direction), numbering it
// when first seen, or -1 when l is not a link of the topology.
func (g *linkGraph) vertexOf(l topology.Link) int32 {
	d := g.topo.LinkIndex(l.From, l.To)
	if d < 0 {
		return -1
	}
	first := g.topo.FirstLink(l.From)
	return g.vertex(l.From, d-first, first)
}

// row returns vertex i's contention row, computing it on first use. Rows
// are capped windows of arena chunks, and an empty row is non-nil.
func (g *linkGraph) row(i int32) []int32 {
	if g.nbr[i] == nil {
		g.scratch = g.contenders(g.scratch[:0], i)
		if len(g.arena) < len(g.scratch) {
			if g.chunk == len(g.chunks) || len(g.chunks[g.chunk]) < len(g.scratch) {
				g.chunks = slices.Insert(g.chunks, g.chunk, make([]int32, max(len(g.scratch), arenaChunk)))
			}
			g.arena = g.chunks[g.chunk]
			g.chunk++
		}
		k := copy(g.arena, g.scratch)
		g.nbr[i], g.arena = g.arena[:k:k], g.arena[k:]
	}
	return g.nbr[i]
}

// contenders appends to out the vertices of every link contending with
// vertex i's, each once, in no particular order. Two links contend when
// they share a node or have endpoints within CS range, so the contenders
// are exactly the links at an endpoint of i's link or at a CS neighbor of
// one: no scan of the full link table and no pairwise test.
func (g *linkGraph) contenders(out []int32, i int32) []int32 {
	l := g.links[i]
	g.mark[i] = true // exclude self
	consider := func(n topology.NodeID) {
		first := g.topo.FirstLink(n)
		for k := range g.topo.Neighbors(n) {
			if v := g.vertex(n, k, first); !g.mark[v] {
				g.mark[v] = true
				out = append(out, v)
			}
		}
	}
	consider(l.From)
	consider(l.To)
	for _, v := range g.topo.CSNeighbors(l.From) {
		consider(v)
	}
	for _, v := range g.topo.CSNeighbors(l.To) {
		consider(v)
	}
	g.mark[i] = false
	for _, j := range out {
		g.mark[j] = false
	}
	return out
}

// rooted calls emit with every clique that holds a link of the vertices
// below roots, once each, from its smallest such vertex: Bron–Kerbosch
// is rooted at each root a, over a's contention neighborhood N(a) with
// the smaller roots in X. Maximality inside {a} ∪ N(a) is maximality in
// the graph, since any extender contends with a. emit receives the
// clique's vertices and must not modify or retain them.
func (g *linkGraph) rooted(roots int32, emit func([]int32)) {
	for a := int32(0); a < roots; a++ {
		for _, w := range g.row(a) {
			g.row(w) // the search reads every neighbor's row
		}
		g.e.root(g.nbr, a, func(w int32) bool { return w < a }, emit)
	}
}

// clique materializes a clique from its vertices, with the canonical
// sorted link order.
func (g *linkGraph) clique(r []int32) *Clique {
	return &Clique{Links: g.sortedLinks(make([]topology.Link, 0, len(r)), r)}
}

// sortedLinks appends the links of vertices r to dst and sorts them
// canonically.
func (g *linkGraph) sortedLinks(dst []topology.Link, r []int32) []topology.Link {
	for _, v := range r {
		dst = append(dst, g.links[v])
	}
	slices.SortFunc(dst, compareLinks)
	return dst
}

// enumerator runs Bron–Kerbosch with pivoting rooted at one vertex at a
// time. The search never leaves the root's neighborhood, so it works on
// bitsets over that neighborhood: set intersections and the pivot's
// neighbor counts are word operations. Buffers are reused across roots.
type enumerator struct {
	local []int32  // the root's neighbors: local index -> vertex
	at    []int32  // per vertex: local index+1 while rooted, else 0
	words int      // words per local bitset
	adj   []uint64 // local adjacency, words per row
	stack []uint64 // per depth: P, X and the candidates being expanded
	r     []int32  // the clique being grown, as local indices
	out   []int32  // a reported clique, as vertices
	emit  func([]int32)
}

// root calls emit with every maximal clique of the graph nbr (adjacency
// rows, in any order) that contains v and no neighbor w of v with
// excluded(w) — the cliques a search rooted at each excluded neighbor
// reports. The rows of v and of each of its neighbors are read. emit must
// not modify or retain its argument.
func (e *enumerator) root(nbr [][]int32, v int32, excluded func(int32) bool, emit func([]int32)) {
	local := nbr[v]
	k := len(local)
	w := (k + 63) / 64
	e.local, e.words, e.emit = local, w, emit
	e.adj = slices.Grow(e.adj[:0], k*w)[:k*w]
	clear(e.adj)
	if len(e.at) < len(nbr) {
		e.at = append(e.at, make([]int32, len(nbr)-len(e.at))...)
	}
	for i, u := range local {
		e.at[u] = int32(i) + 1
	}
	for i, u := range local {
		row := e.adj[i*w : (i+1)*w]
		for _, x := range nbr[u] {
			if b := e.at[x] - 1; b >= 0 {
				row[b>>6] |= 1 << (b & 63)
			}
		}
	}
	for _, u := range local {
		e.at[u] = 0
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

// compareLinks orders links by (From, To), the canonical link order.
func compareLinks(a, b topology.Link) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// compareIDs orders identifiers by owner, then sequence number: within
// one set, the canonical clique order.
func compareIDs(a, b ID) int {
	if c := cmp.Compare(a.Owner, b.Owner); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// finish assembles a decomposition of topo from old's cliques, less those
// of the dirty owners (dirty[owner]), and added: fresh cliques that make
// up the dirty owners' complete new clique lists. Holding passes an
// empty old, every clique as added and a nil dirty. Every clique of
// old that is not a clique of the result must have a dirty owner.
//
// Cliques are kept in canonical order and named by §6.3's owner.seq. An
// owner's cliques are adjacent in canonical order (the owner is the first
// link's From), so a clique's sequence number follows from its
// predecessor's, and only added cliques need identifiers: a clean
// owner's list, identifiers included, is old's. So added is sorted and
// merged into old's clean cliques, whose values are shared. The by-link
// index likewise shares old's list for every link that no dirty clique,
// old or added, holds, and builds the rest from the link's added cliques
// and its old list's clean ones.
func (w *work) finish(old *Set, dirty []bool, added []*Clique) *Set {
	topo := w.topo
	slices.SortFunc(added, compareCliques)
	for i, c := range added {
		c.ID = ID{Owner: c.minNode()}
		if i > 0 && added[i-1].ID.Owner == c.ID.Owner {
			c.ID.Seq = added[i-1].ID.Seq + 1
		}
	}
	size := len(added)
	for _, c := range old.cliques {
		if !dirty[c.ID.Owner] {
			size++
		}
	}
	s := &Set{cliques: make([]*Clique, 0, size)}
	i := 0
	for _, c := range old.cliques {
		if dirty[c.ID.Owner] {
			continue
		}
		for ; i < len(added) && added[i].ID.Owner < c.ID.Owner; i++ {
			s.cliques = append(s.cliques, added[i])
		}
		s.cliques = append(s.cliques, c)
	}
	s.cliques = append(s.cliques, added[i:]...)

	// Every link that a dirty clique holds is redone, keyed by its dense
	// directed index; count tallies its added cliques. A link of a
	// dropped clique that topo no longer has needs no list.
	w.count = zeroed(w.count, topo.NumLinks())
	w.redo = zeroed(w.redo, topo.NumLinks())
	count, redo := w.count, w.redo
	pairs := 0
	for _, c := range added {
		for _, l := range c.Links {
			idx := topo.LinkIndex(l.From, l.To)
			count[idx]++
			redo[idx] = true
		}
		pairs += len(c.Links)
	}
	for _, c := range old.cliques {
		if dirty[c.ID.Owner] {
			for _, l := range c.Links {
				if idx := topo.LinkIndex(l.From, l.To); idx >= 0 {
					redo[idx] = true
				}
			}
		}
	}
	redone := 0
	for _, r := range redo {
		if r {
			redone++
		}
	}
	// Each link's added cliques, in canonical order, form one window of
	// byLink: count becomes the window's start, and after the fill its
	// end. A set built from nothing (Holding) takes the windows as
	// its lists and keeps the index as gathered. Update, which carries
	// old over, gathers both in w's buffers and copies each rebuilt list
	// and the index out at their sizes: its lists outlive many epochs,
	// and a list kept from a shared array would keep the whole array
	// alive, epoch after epoch.
	carry := len(old.cliques) > 0
	var byLink []*Clique
	var links []topology.Link
	var of [][]*Clique
	if carry {
		byLink = slices.Grow(w.byLink[:0], pairs)[:pairs]
		links = slices.Grow(w.indexLinks[:0], len(old.links)+redone)
		of = slices.Grow(w.indexOf[:0], len(old.links)+redone)
	} else {
		byLink = make([]*Clique, pairs)
		links = make([]topology.Link, 0, redone)
		of = make([][]*Clique, 0, redone)
	}
	at := int32(0)
	for idx, k := range count {
		if k > 0 {
			count[idx] = at
			at += k
		}
	}
	for _, c := range added {
		for _, l := range c.Links {
			idx := topo.LinkIndex(l.From, l.To)
			byLink[count[idx]] = c
			count[idx]++
		}
	}

	// Walk old's links and the redone ones in canonical order. An old
	// link that is not redone keeps its list; a redone one gets its old
	// list's clean cliques merged with its added ones.
	// keep carries over old's link j, whose list no dirty clique is on.
	// If topo no longer has the link, every clique on it was dropped and
	// its first clique's owner is dirty.
	keep := func(j int) {
		if !dirty[old.of[j][0].ID.Owner] {
			links = append(links, old.links[j])
			of = append(of, old.of[j])
		}
	}
	j, lo := 0, int32(0)
	for idx, r := range redo {
		if !r {
			continue
		}
		l := topo.LinkAt(idx)
		for ; j < len(old.links) && compareLinks(old.links[j], l) < 0; j++ {
			keep(j)
		}
		var prev []*Clique
		if j < len(old.links) && old.links[j] == l {
			prev = old.of[j]
			j++
		}
		var fresh []*Clique
		if hi := count[idx]; hi > 0 {
			fresh, lo = byLink[lo:hi:hi], hi
		}
		list := fresh
		if carry {
			list = merge(prev, fresh, dirty)
		}
		if len(list) > 0 {
			links = append(links, l)
			of = append(of, list)
		}
	}
	for ; j < len(old.links); j++ {
		keep(j)
	}
	if !carry {
		s.links, s.of = links, of
		return s
	}
	s.links, s.of = slices.Clone(links), slices.Clone(of)
	// w must not keep the cliques alive.
	clear(of)
	clear(byLink)
	w.byLink, w.indexLinks, w.indexOf = byLink, links, of
	return s
}

// merge returns a new list of the cliques of prev with clean owners and
// of fresh, each in canonical order, merged; nil when there are none.
func merge(prev, fresh []*Clique, dirty []bool) []*Clique {
	n := len(fresh)
	for _, c := range prev {
		if !dirty[c.ID.Owner] {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	list := make([]*Clique, 0, n)
	for _, c := range prev {
		if dirty[c.ID.Owner] {
			continue
		}
		for ; len(fresh) > 0 && compareIDs(fresh[0].ID, c.ID) < 0; fresh = fresh[1:] {
			list = append(list, fresh[0])
		}
		list = append(list, c)
	}
	return append(list, fresh...)
}

// compareCliques orders cliques canonically: by their sorted link lists,
// lexicographically, a proper prefix first.
func compareCliques(a, b *Clique) int {
	return slices.CompareFunc(a.Links, b.Links, compareLinks)
}

// All returns every proper contention clique.
func (s *Set) All() []*Clique { return s.cliques }

// Of returns the cliques that contain the (undirected) link l, in
// canonical order. A bandwidth-saturated link always belongs to at least
// one of these (§3.3). O(log links). The slice is shared; callers must
// not modify it.
func (s *Set) Of(l topology.Link) []*Clique {
	i, ok := slices.BinarySearchFunc(s.links, l.Undirected(), compareLinks)
	if !ok {
		return nil
	}
	return s.of[i]
}

// Incremental maintenance of the contention-clique decomposition under
// node motion. Contention between two links depends only on their
// endpoints' identities and carrier-sense adjacency, so cliques built
// entirely from links away from the nodes whose neighbor lists changed
// survive; the rest is re-enumerated from the links at those nodes.
package clique

import (
	"slices"

	"gmp/internal/topology"
)

// Update returns the clique decomposition of topo after a topology
// change, reusing old (the decomposition before the change). nodes must
// cover the change: every node pair whose Tx or carrier-sense adjacency
// flipped has an endpoint in nodes. Any such set works; the cost tracks
// the covered nodes' neighborhoods, so the smaller the better.
// topology.Diff.Cover is the small cover MoveNodes builds for this, and
// Diff.Moved is a valid, larger one. The result is deep-equal to
// Build(topo) — identifiers and Of included — and the from-scratch Build
// is kept as the differential oracle (TestUpdateMatchesBuild). old is
// not modified: the result shares with it the cliques of every owner
// whose clique list did not change, and the by-link lists that no
// changed clique is on.
//
// Correctness sketch. Call a link covered when an endpoint is in nodes.
// An uncovered link exists before and after the change, and two uncovered
// links contend after it iff they did before. Every maximal clique K of
// the new contention graph is found by exactly one of three routes:
//   - K holds a covered link. Bron–Kerbosch is rooted at each covered
//     link a, over a's contention neighborhood N(a) with the smaller
//     covered links in X, so K is emitted once, from its smallest
//     covered link. Maximality inside {a} ∪ N(a) is maximality in the
//     graph: any extender contends with a. K may equal an old clique,
//     which is then kept.
//   - K is uncovered and was maximal before: it is an old clique without
//     a covered link (kept). Only a covered link a can extend it now, and
//     then K ∪ {a} lies in a clique K' of the first route whose uncovered
//     part is exactly K (that part was a clique before, and K was
//     maximal). So a kept clique is dropped iff it is the uncovered part
//     of a new first-route clique.
//   - K is uncovered and was not maximal before. Its old extender was
//     covered (an uncovered one would still extend it), so K lay inside
//     an old clique D holding a covered link, and K is D's uncovered part
//     exactly: that part is still a clique, and K is maximal. So the
//     uncovered part of each such D is a candidate, kept when no link of
//     the new graph extends it. It was not maximal before (D extends it),
//     so it is no kept clique; and when the first route found D again,
//     D extends it still.
//
// The old cliques with a covered link are found through the by-link
// index, so no uncovered clique's links are examined: each is kept as
// is unless the first route drops it.
func Update(topo *topology.Topology, old *Set, nodes []topology.NodeID) *Set {
	w := getWork(topo)
	defer w.release()
	w.covered = zeroed(w.covered, topo.NumNodes())
	covered := w.covered
	for _, v := range nodes {
		covered[v] = true
	}
	isCovered := func(l topology.Link) bool { return covered[l.From] || covered[l.To] }

	// The new topology's contention graph around the covered nodes. The
	// covered links are numbered first, as the roots of the first route.
	g := &w.linkGraph
	for _, v := range nodes {
		first := topo.FirstLink(v)
		for k := range topo.Neighbors(v) {
			g.vertex(v, k, first)
		}
	}

	// What becomes of each old clique, by position in old.All(); an old
	// clique's position is its owner's first position plus its Seq.
	const (
		untouched = iota // no covered link, and no new clique extends it
		found            // holds a covered link, and is maximal still
		dropped
	)
	w.state = zeroed(w.state, len(old.cliques))
	w.first = zeroed(w.first, topo.NumNodes())
	state, first := w.state, w.first
	for p, c := range old.cliques {
		if c.ID.Seq == 0 {
			first[c.ID.Owner] = int32(p)
		}
	}
	position := func(c *Clique) int { return int(first[c.ID.Owner]) + c.ID.Seq }
	var added []*Clique

	// Route 1: every clique holding a covered link, from its smallest one.
	links, rest := w.links, w.rest
	g.rooted(int32(len(g.links)), func(r []int32) {
		links = g.sortedLinks(links[:0], r)
		if q := findClique(old.Of(links[0]), links); q != nil {
			state[position(q)] = found
			return
		}
		added = append(added, &Clique{Links: slices.Clone(links)})
		rest = uncoveredPart(rest[:0], links, isCovered)
		if len(rest) == 0 {
			return
		}
		if q := findClique(old.Of(rest[0]), rest); q != nil {
			state[position(q)] = dropped
		}
	})

	// Route 3 over the old cliques with a covered link that route 1 did
	// not find again: each is dropped, and its uncovered part is a
	// candidate.
	w.cands, w.candEnd = w.cands[:0], w.candEnd[:0]
	for i, l := range old.links {
		if !isCovered(l) {
			continue
		}
		for _, c := range old.of[i] {
			p := position(c)
			if state[p] != untouched {
				continue
			}
			state[p] = dropped
			rest = uncoveredPart(rest[:0], c.Links, isCovered)
			if len(rest) == 0 || w.seen(rest) {
				continue
			}
			w.cands = append(w.cands, rest...)
			w.candEnd = append(w.candEnd, len(w.cands))
			if !g.extendable(rest) {
				added = append(added, &Clique{Links: slices.Clone(rest)})
			}
		}
	}
	w.links, w.rest = links, rest

	// An owner with a dropped or a new clique is dirty: finish renumbers
	// its whole list, so its kept cliques join the new ones as fresh
	// values, and old's stay as they are.
	w.dirty = zeroed(w.dirty, topo.NumNodes())
	dirty := w.dirty
	for _, c := range added {
		dirty[c.minNode()] = true
	}
	for p, st := range state {
		if st == dropped {
			dirty[old.cliques[p].ID.Owner] = true
		}
	}
	for p, c := range old.cliques {
		if dirty[c.ID.Owner] && state[p] != dropped {
			added = append(added, &Clique{Links: c.Links})
		}
	}
	return w.finish(old, dirty, added)
}

// uncoveredPart appends to dst the links of ls with no covered endpoint,
// in order.
func uncoveredPart(dst, ls []topology.Link, isCovered func(topology.Link) bool) []topology.Link {
	for _, l := range ls {
		if !isCovered(l) {
			dst = append(dst, l)
		}
	}
	return dst
}

// seen reports whether links is one of Update's route-3 candidates so
// far.
func (w *work) seen(links []topology.Link) bool {
	start := 0
	for _, end := range w.candEnd {
		if slices.Equal(w.cands[start:end], links) {
			return true
		}
		start = end
	}
	return false
}

// findClique returns the clique of cs whose links are exactly links, or
// nil.
func findClique(cs []*Clique, links []topology.Link) *Clique {
	for _, c := range cs {
		if slices.Equal(c.Links, links) {
			return c
		}
	}
	return nil
}

// extendable reports whether some link outside members (canonically
// sorted links of the graph's topology) contends with every member, i.e.
// the clique is not maximal in the full graph. An extender contends with
// members[0] in particular, so only that link's contention row is
// searched.
func (g *linkGraph) extendable(members []topology.Link) bool {
	for _, j := range g.row(g.vertexOf(members[0])) {
		d := g.links[j]
		if _, in := slices.BinarySearchFunc(members, d, compareLinks); in {
			continue
		}
		all := true
		for _, l := range members[1:] {
			if !g.topo.LinksContend(d, l) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

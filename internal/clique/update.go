// Incremental maintenance of the contention-clique decomposition under
// node motion. Contention between two links depends only on their
// endpoints' identities and carrier-sense adjacency, so cliques built
// entirely from links away from the nodes whose neighbor lists changed
// survive; the rest is re-enumerated from the links at those nodes.
package clique

import (
	"slices"
	"sort"

	"gmp/internal/topology"
)

// Update returns the clique decomposition of topo after a topology
// change, reusing old (the decomposition before the change). nodes must
// cover the change: every node pair whose Tx or carrier-sense adjacency
// flipped has an endpoint in nodes. topology.Diff.Touched is the smallest
// such set MoveNodes reports, and Diff.Moved is a valid, larger one. The
// result is deep-equal to Build(topo) — identifiers included — at a cost
// that tracks the covered nodes' neighborhoods; the from-scratch Build is
// kept as the differential oracle (TestUpdateMatchesBuild). old is not
// modified.
//
// Correctness sketch. Call a link covered when an endpoint is in nodes.
// An uncovered link exists before and after the change, and two uncovered
// links contend after it iff they did before. Every maximal clique K of
// the new contention graph is found by exactly one of three routes:
//   - K holds a covered link. Bron–Kerbosch is rooted at each covered
//     link a, over a's contention neighborhood N(a) with the smaller
//     covered links in X, so K is emitted once, from its smallest
//     covered link. Maximality inside {a} ∪ N(a) is maximality in the
//     graph: any extender contends with a.
//   - K is uncovered and was maximal before: it is an old clique without
//     a covered link (kept). Only a covered link a can extend it now, and
//     then K ∪ {a} lies in a clique K' of the first route whose uncovered
//     part is exactly K (that part was a clique before, and K was
//     maximal). So a kept clique is dropped iff it is the uncovered part
//     of a first-route clique.
//   - K is uncovered and was not maximal before. Its old extender was
//     covered (an uncovered one would still extend it), so K lay inside
//     an old clique D holding a covered link, and K is D's uncovered part
//     exactly: that part is still a clique, and K is maximal. So the
//     uncovered part of each such D is a candidate, kept when no link of
//     the new graph extends it. It was not maximal before (D extends it),
//     so it is no kept clique.
func Update(topo *topology.Topology, old *Set, nodes []topology.NodeID) *Set {
	covered := make([]bool, topo.NumNodes())
	for _, v := range nodes {
		covered[v] = true
	}
	isCovered := func(l topology.Link) bool { return covered[l.From] || covered[l.To] }

	// The new topology's contention graph, whose rows are computed on
	// first use: only the links near the covered nodes ever need one.
	g := newLinkGraph(topo)

	// Covered links.
	var cov []int32
	isCov := make([]bool, len(g.links))
	for _, v := range nodes {
		for _, i := range g.incident[v] {
			if !isCov[i] {
				isCov[i] = true
				cov = append(cov, i)
			}
		}
	}

	// Route 1: every clique holding a covered link, from its smallest one.
	var out []*Clique
	extended := make(map[*Clique]bool)
	var rest []topology.Link
	g.rooted(cov, isCov, func(c *Clique) {
		out = append(out, c)
		rest = uncoveredPart(rest[:0], c.Links, isCovered)
		if len(rest) == 0 {
			return
		}
		if q := findClique(old.Of(rest[0]), rest); q != nil {
			extended[q] = true
		}
	})

	// Routes 2 and 3 over the old cliques. Kept cliques get new Clique
	// values: finish reassigns identifiers and must not write through to
	// old.
	candidates := make(map[topology.Link][]*Clique)
	for _, c := range old.cliques {
		rest = uncoveredPart(rest[:0], c.Links, isCovered)
		if len(rest) == len(c.Links) {
			if !extended[c] {
				out = append(out, &Clique{Links: c.Links})
			}
			continue
		}
		if len(rest) == 0 || findClique(candidates[rest[0]], rest) != nil {
			continue
		}
		k := &Clique{Links: slices.Clone(rest)}
		candidates[rest[0]] = append(candidates[rest[0]], k)
		if !extendable(topo, g.links, g.row(int32(findLink(g.links, rest[0]))), k.Links) {
			out = append(out, k)
		}
	}
	return finish(topo, out)
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
// sorted) contends with every member, i.e. the clique is not maximal in
// the full graph. An extender contends with members[0] in particular, so
// only that link's contention row row0 is searched.
func extendable(topo *topology.Topology, links []topology.Link, row0 []int32, members []topology.Link) bool {
	for _, j := range row0 {
		d := links[j]
		if _, in := slices.BinarySearchFunc(members, d, compareLinks); in {
			continue
		}
		all := true
		for _, l := range members[1:] {
			if !topo.LinksContend(d, l) {
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

// findLink returns l's index in the canonically sorted link table, or
// -1 when absent. O(log L).
func findLink(links []topology.Link, l topology.Link) int {
	at := sort.Search(len(links), func(i int) bool {
		if links[i].From != l.From {
			return links[i].From > l.From
		}
		return links[i].To >= l.To
	})
	if at < len(links) && links[at] == l {
		return at
	}
	return -1
}

package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"gmp/internal/geom"
)

// Diff records what one MoveNodes call changed. The session hands
// OldLinks to the radio medium, whose airtime ledger is indexed by dense
// link number, and Cover to the incremental clique updater.
type Diff struct {
	// Moved lists the nodes whose positions changed, ascending.
	Moved []NodeID
	// Cover is a vertex cover of the flipped pairs, ascending: every
	// node pair whose Tx or CS adjacency flipped has an endpoint in
	// Cover, and each node of Cover is a mover whose Tx or CS neighbor
	// list changed. It is built greedily from the movers, taking the one
	// on the most uncovered flipped pairs, ties to the lower ID, so equal
	// moves give equal covers. When every node moves, each flipped pair
	// has two movers at its ends, and Cover holds about half of the
	// movers whose lists changed; clique.Update costs what its node set
	// covers.
	Cover []NodeID
	// OldLinks is the dense directed-link slice as it was before the
	// update. Dense per-link state recorded under the old indices must be
	// re-keyed through these Link values into the new index space.
	OldLinks []Link
}

// Changed reports whether the update altered any adjacency at all: a
// neighbor list changes iff a pair flips, iff the cover is non-empty.
// When false, positions moved but every neighbor list, link index and
// contention relation is exactly as before.
func (d *Diff) Changed() bool { return len(d.Cover) > 0 }

// Version returns the topology's adjacency version: 0 at New, bumped by
// every MoveNodes call whose Diff reports Changed. Structures derived
// from the adjacency (lazy routing tables) record it to detect that they
// went stale.
func (t *Topology) Version() uint64 { return t.version }

// moveScratch is MoveNodes' working memory, allocated by the first call
// and reused by every later one.
type moveScratch struct {
	isMover []bool
	near    []int32  // grid candidates
	tx, cs  []NodeID // a mover's recomputed lists
	added   []NodeID
	removed []NodeID
	flipped []nodePair
	onPairs []int32 // per node: uncovered flipped pairs, while covering
	cursor  []int32 // per node: renumberLinks' reverse-slot cursor
	// spare is the link slice before the last renumbering, whose
	// backing array the next renumbering fills.
	spare []Link
}

// nodePair is an unordered node pair, stored low ID first.
type nodePair struct{ a, b NodeID }

// MoveNodes updates the positions of the given nodes in place and
// incrementally repairs every derived structure — Tx/CS neighbor lists,
// the dense directed-link index and the spatial grid — without the
// O(N²) scan of a from-scratch rebuild. Each mover's neighborhood is
// recomputed from the grid's O(density) candidate cells, so cost is
// O(movers·density + N + L); the N + L term is the dense link index
// regeneration, skipped when no link appeared or vanished.
//
// newPos[i] is the new position of moved[i]. The moved list must name
// valid nodes with no duplicates. From-scratch construction via New
// remains in-tree as the differential oracle: for any sequence of
// MoveNodes calls the mutated topology is deep-equal to New on the final
// positions (enforced by TestIncrementalMatchesRebuild).
//
// Neighbor lists handed out before the call (Neighbors, CSNeighbors)
// are never mutated: a changed list is replaced with a fresh slice, and
// a mover whose lists did not change keeps its slices. The link slice
// is double-buffered: a slice from Links stays valid through the next
// MoveNodes call, so a Diff's OldLinks stays valid until the call after,
// and a later call that renumbers the links may overwrite it. Apart from
// the returned Diff and the changed lists, a call allocates only when a
// buffer must grow.
func (t *Topology) MoveNodes(moved []NodeID, newPos []geom.Point) (*Diff, error) {
	if len(moved) != len(newPos) {
		return nil, fmt.Errorf("topology: %d moved nodes but %d positions", len(moved), len(newPos))
	}
	if t.move == nil {
		t.move = &moveScratch{
			isMover: make([]bool, len(t.pos)),
			onPairs: make([]int32, len(t.pos)),
			cursor:  make([]int32, len(t.pos)),
		}
	}
	sc := t.move
	isMover := sc.isMover
	defer func() {
		for _, m := range moved {
			if t.Valid(m) {
				isMover[m] = false
			}
		}
	}()
	for _, m := range moved {
		if !t.Valid(m) {
			return nil, fmt.Errorf("topology: moved node %d out of range", m)
		}
		if isMover[m] {
			return nil, fmt.Errorf("topology: node %d moved twice in one update", m)
		}
		isMover[m] = true
	}
	diff := &Diff{
		Moved:    slices.Clone(moved),
		OldLinks: t.links,
	}
	slices.Sort(diff.Moved)
	if len(moved) == 0 {
		return diff, nil
	}
	for i, m := range moved {
		t.pos[m] = newPos[i]
		if t.grid != nil {
			t.grid.Move(int(m), newPos[i])
		}
	}

	// Recompute each mover's neighbor lists into scratch. With a grid
	// (every topology built by New) the candidates come from the
	// CSRange-sized cells around the mover's new position — O(density)
	// per mover; all grid buckets were brought current above, so
	// mover–mover edges resolve against new positions on both sides,
	// exactly as the scan does. Grid-less topologies (the brute-force
	// oracle path) fall back to one O(N) scan per mover. A list that
	// changed replaces the mover's and is spliced into its non-moving
	// neighbors' lists; an unchanged one leaves both alone. With equal
	// ranges the CS lists alias the Tx ones and follow them.
	sameRange := t.cfg.CSRange == t.cfg.TxRange
	linksChanged := false
	sc.flipped = sc.flipped[:0]
	for _, m := range diff.Moved {
		sc.tx, sc.cs = sc.tx[:0], sc.cs[:0]
		scan := func(j NodeID) {
			if j == m {
				return
			}
			if geom.WithinRange(t.pos[m], t.pos[j], t.cfg.TxRange) {
				sc.tx = append(sc.tx, j)
			}
			if !sameRange && geom.WithinRange(t.pos[m], t.pos[j], t.cfg.CSRange) {
				sc.cs = append(sc.cs, j)
			}
		}
		if t.grid != nil {
			sc.near = t.grid.Near(t.pos[m], t.cfg.CSRange, sc.near[:0])
			for _, jj := range sc.near {
				scan(NodeID(jj))
			}
			// The grid returns candidates in bucket order; sort the
			// filtered lists into the ascending order the scan yields.
			slices.Sort(sc.tx)
			slices.Sort(sc.cs)
		} else {
			for j := range t.pos {
				scan(NodeID(j))
			}
		}
		if t.replaceList(t.neighbors, m, sc.tx) {
			linksChanged = true
		}
		if !sameRange {
			t.replaceList(t.csNeighbors, m, sc.cs)
		}
	}
	if len(sc.flipped) > 0 {
		t.version++
		diff.Cover = sc.cover()
	}

	if linksChanged {
		// Fill the spare buffer: the links before the last renumbering,
		// which only the last call's Diff still names.
		t.links, sc.spare = t.renumberLinks(sc.spare, sc.cursor), t.links
	}
	return diff, nil
}

// replaceList installs cur (sorted scratch) as m's list in lists when it
// differs from the current one, splices m into or out of its non-moving
// neighbors' lists, records the flipped pairs, and reports whether the
// list changed. A mover's list is recomputed whole, so mover–mover pairs
// need no splice.
func (t *Topology) replaceList(lists [][]NodeID, m NodeID, cur []NodeID) bool {
	sc := t.move
	sc.added, sc.removed = diffSorted(sc.added[:0], sc.removed[:0], lists[m], cur)
	if len(sc.added) == 0 && len(sc.removed) == 0 {
		return false
	}
	for _, x := range sc.added {
		if !sc.isMover[x] {
			lists[x] = insertID(lists[x], m)
		}
		sc.flipped = append(sc.flipped, orderedPair(m, x))
	}
	for _, x := range sc.removed {
		if !sc.isMover[x] {
			lists[x] = removeID(lists[x], m)
		}
		sc.flipped = append(sc.flipped, orderedPair(m, x))
	}
	lists[m] = copyIDs(cur)
	return true
}

func orderedPair(a, b NodeID) nodePair {
	if a > b {
		a, b = b, a
	}
	return nodePair{a, b}
}

// cover returns a vertex cover of the flipped pairs, ascending, drawn
// from the movers: repeatedly the mover on the most uncovered pairs,
// ties to the lower ID. Every flipped pair has a mover at one end, so
// the loop ends with all of them covered.
func (sc *moveScratch) cover() []NodeID {
	pairs := sc.flipped
	// A pair that flipped in both lists, or between two movers, was
	// recorded more than once.
	slices.SortFunc(pairs, func(p, q nodePair) int {
		if c := cmp.Compare(p.a, q.a); c != 0 {
			return c
		}
		return cmp.Compare(p.b, q.b)
	})
	pairs = slices.Compact(pairs)
	for _, p := range pairs {
		sc.onPairs[p.a]++
		sc.onPairs[p.b]++
	}
	var out []NodeID
	for len(pairs) > 0 {
		best := NodeID(-1)
		for _, p := range pairs {
			for _, v := range [2]NodeID{p.a, p.b} {
				if sc.isMover[v] && (best < 0 || sc.onPairs[v] > sc.onPairs[best] || (sc.onPairs[v] == sc.onPairs[best] && v < best)) {
					best = v
				}
			}
		}
		out = append(out, best)
		// best's pairs are covered: drop them from the counts and from
		// the uncovered ones.
		uncovered := pairs[:0]
		for _, p := range pairs {
			if p.a == best || p.b == best {
				sc.onPairs[p.a]--
				sc.onPairs[p.b]--
			} else {
				uncovered = append(uncovered, p)
			}
		}
		pairs = uncovered
	}
	slices.Sort(out)
	return out
}

// renumberLinks numbers the directed links densely from the Tx lists, in
// O(N + L), into buf's backing array (a fresh one when buf is short),
// and rewrites linkBase and the reverse slots in place. cursor is
// per-node scratch, len NumNodes, left zeroed.
//
// The reverse slots need no search: Tx adjacency is symmetric and every
// list ascends, so as the sources are visited in ascending order, the
// k-th visit to a target j comes from j's k-th smallest neighbor, and
// cursor[j] counts the visits.
func (t *Topology) renumberLinks(buf []Link, cursor []int32) []Link {
	total := 0
	for i, nb := range t.neighbors {
		t.linkBase[i] = total
		total += len(nb)
	}
	t.linkBase[len(t.neighbors)] = total
	if cap(buf) < total {
		buf = make([]Link, 0, total)
	}
	if cap(t.revSlots) < total {
		t.revSlots = make([]int32, total)
	}
	rev := t.revSlots[:total]
	links := buf[:0]
	for i, nb := range t.neighbors {
		for _, j := range nb {
			rev[len(links)] = cursor[j]
			cursor[j]++
			links = append(links, Link{From: NodeID(i), To: j})
		}
	}
	clear(cursor)
	t.revSlots = rev
	return links
}

// diffSorted appends to added the elements of b not in a and to removed
// those of a not in b. Both inputs are sorted ascending.
func diffSorted(added, removed, a, b []NodeID) ([]NodeID, []NodeID) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			removed = append(removed, a[i])
			i++
		default:
			added = append(added, b[j])
			j++
		}
	}
	removed = append(removed, a[i:]...)
	added = append(added, b[j:]...)
	return added, removed
}

// insertID returns a fresh sorted copy of list with id inserted. The
// input slice is not mutated (callers may hold references to it).
func insertID(list []NodeID, id NodeID) []NodeID {
	at := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	out := make([]NodeID, 0, len(list)+1)
	out = append(out, list[:at]...)
	out = append(out, id)
	return append(out, list[at:]...)
}

// removeID returns a fresh copy of list with id removed (no-op copy when
// absent). The input slice is not mutated.
func removeID(list []NodeID, id NodeID) []NodeID {
	at := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	if at == len(list) || list[at] != id {
		return list
	}
	if len(list) == 1 {
		return nil // match New, which leaves empty lists nil
	}
	out := make([]NodeID, 0, len(list)-1)
	out = append(out, list[:at]...)
	return append(out, list[at+1:]...)
}

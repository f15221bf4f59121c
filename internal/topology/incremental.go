package topology

import (
	"fmt"
	"slices"
	"sort"

	"gmp/internal/geom"
)

// Diff records what one MoveNodes call changed. The session hands
// OldLinks to the radio medium, whose airtime ledger is indexed by dense
// link number, and Touched to the incremental clique updater.
type Diff struct {
	// Moved lists the nodes whose positions changed, ascending.
	Moved []NodeID
	// Touched lists the movers whose Tx or carrier-sense neighbor list
	// changed, ascending; Touched ⊆ Moved. Every node pair whose Tx or
	// CS adjacency flipped has an endpoint in Touched, so it covers the
	// change for clique.Update.
	Touched []NodeID
	// OldLinks is the dense directed-link slice as it was before the
	// update. Dense per-link state recorded under the old indices must be
	// re-keyed through these Link values into the new index space.
	OldLinks []Link
}

// Changed reports whether the update altered any adjacency at all: a
// flipped pair always has a mover at one end, whose list then changed,
// so this is exactly a non-empty Touched. When false, positions moved
// but every neighbor list, link index and contention relation is exactly
// as before.
func (d *Diff) Changed() bool { return len(d.Touched) > 0 }

// Version returns the topology's adjacency version: 0 at New, bumped by
// every MoveNodes call whose Diff reports Changed. Structures derived
// from the adjacency (lazy routing tables) record it to detect that they
// went stale.
func (t *Topology) Version() uint64 { return t.version }

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
// Slices handed out before the call (Neighbors, CSNeighbors, Links) are
// never mutated: every changed list is replaced with a fresh slice, so
// old snapshots — including Diff.OldLinks — stay valid.
func (t *Topology) MoveNodes(moved []NodeID, newPos []geom.Point) (*Diff, error) {
	if len(moved) != len(newPos) {
		return nil, fmt.Errorf("topology: %d moved nodes but %d positions", len(moved), len(newPos))
	}
	n := len(t.pos)
	isMover := make([]bool, n)
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
		Moved:    append([]NodeID(nil), moved...),
		OldLinks: t.links,
	}
	sort.Slice(diff.Moved, func(i, j int) bool { return diff.Moved[i] < diff.Moved[j] })
	if len(moved) == 0 {
		return diff, nil
	}

	// Snapshot the movers' old neighbor lists before touching anything:
	// they drive the edge diffs.
	sameRange := t.cfg.CSRange == t.cfg.TxRange
	oldTx := make([][]NodeID, len(diff.Moved))
	oldCS := make([][]NodeID, len(diff.Moved))
	for i, m := range diff.Moved {
		oldTx[i] = t.neighbors[m]
		oldCS[i] = t.csNeighbors[m]
	}
	for i, m := range moved {
		t.pos[m] = newPos[i]
		if t.grid != nil {
			t.grid.Move(int(m), newPos[i])
		}
	}

	// Recompute each mover's neighbor lists. With a grid (every topology
	// built by New) the candidates come from the CSRange-sized cells
	// around the mover's new position — O(density) per mover; all grid
	// buckets were brought current above, so mover–mover edges resolve
	// against new positions on both sides, exactly as the scan does.
	// Grid-less topologies (the brute-force oracle path) fall back to
	// one O(N) scan per mover.
	newTx := make([][]NodeID, len(diff.Moved))
	newCS := make([][]NodeID, len(diff.Moved))
	var buf []int32
	for i, m := range diff.Moved {
		var tx, cs []NodeID
		scan := func(j NodeID) {
			if j == m {
				return
			}
			if geom.WithinRange(t.pos[m], t.pos[j], t.cfg.TxRange) {
				tx = append(tx, j)
			}
			if !sameRange && geom.WithinRange(t.pos[m], t.pos[j], t.cfg.CSRange) {
				cs = append(cs, j)
			}
		}
		if t.grid != nil {
			buf = t.grid.Near(t.pos[m], t.cfg.CSRange, buf[:0])
			for _, jj := range buf {
				scan(NodeID(jj))
			}
			// The grid returns candidates in bucket order; sort the
			// filtered lists into the ascending order the scan yields.
			slices.Sort(tx)
			slices.Sort(cs)
		} else {
			for j := 0; j < n; j++ {
				scan(NodeID(j))
			}
		}
		newTx[i] = tx
		if sameRange {
			newCS[i] = tx
		} else {
			newCS[i] = cs
		}
	}

	// Splice each mover into or out of its non-moving neighbors' sorted
	// lists; the movers' own lists are replaced wholesale below. A mover
	// is touched when either of its own lists changed, which every
	// flipped pair — a mover at one end — reports. With equal ranges the
	// CS lists alias the Tx ones and are already up to date.
	touched := make([]bool, len(diff.Moved))
	linksChanged := false
	for i, m := range diff.Moved {
		touched[i] = splice(t.neighbors, m, oldTx[i], newTx[i], isMover)
		linksChanged = linksChanged || touched[i]
	}
	if !sameRange {
		for i, m := range diff.Moved {
			if splice(t.csNeighbors, m, oldCS[i], newCS[i], isMover) {
				touched[i] = true
			}
		}
	}
	// Install the movers' fresh lists. With equal ranges the outer
	// csNeighbors slice is the same object as neighbors, so the element
	// assignment keeps the alias intact.
	for i, m := range diff.Moved {
		t.neighbors[m] = newTx[i]
		if !sameRange {
			t.csNeighbors[m] = newCS[i]
		}
		if touched[i] {
			diff.Touched = append(diff.Touched, m)
		}
	}
	if diff.Changed() {
		t.version++
	}

	if linksChanged {
		t.indexLinks() // a fresh slice: Diff.OldLinks stays intact
	}
	return diff, nil
}

// splice patches the lists of m's non-moving neighbors after m's own list
// went from old to cur, and reports whether it changed. A mover's list is
// recomputed whole, so mover–mover pairs need no patch.
func splice(lists [][]NodeID, m NodeID, old, cur []NodeID, isMover []bool) bool {
	added, removed := diffSorted(old, cur)
	for _, x := range added {
		if !isMover[x] {
			lists[x] = insertID(lists[x], m)
		}
	}
	for _, x := range removed {
		if !isMover[x] {
			lists[x] = removeID(lists[x], m)
		}
	}
	return len(added) > 0 || len(removed) > 0
}

// diffSorted returns the elements of b not in a (added) and of a not in b
// (removed). Both inputs are sorted ascending.
func diffSorted(a, b []NodeID) (added, removed []NodeID) {
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

package clique

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/topology"
)

// maximalCliques enumerates every maximal clique of the graph given by
// its adjacency matrix, using Bron–Kerbosch with pivoting: the dense
// oracle the rooted, bitset-based enumerator is checked against.
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

// denseFromSparse converts sorted adjacency lists to the boolean matrix
// the dense oracle consumes.
func denseFromSparse(n int, nbr [][]int32) [][]bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for _, j := range nbr[i] {
			adj[i][j] = true
		}
	}
	return adj
}

// canonCliques renders a clique family order-independently so the two
// enumerators can be compared regardless of emission order.
func canonCliques(cs [][]int32) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		s := append([]int32(nil), c...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		out[i] = fmt.Sprint(s)
	}
	sort.Strings(out)
	return out
}

// TestSparseMatchesDenseEnumeration is the differential oracle for the
// rooted sparse Bron–Kerbosch: on random graphs across a density sweep,
// rooting enumerator.root at each vertex in turn with the smaller
// vertices excluded, as rooted does, must emit exactly the maximal
// cliques the dense matrix-based enumerator finds, each once (including
// isolated vertices, which both report as singletons). A search rooted
// at each vertex with nothing excluded, as Update roots one at a covered
// link, must find exactly the cliques holding that vertex. From seed 12
// on, sparse graphs of up to 150 vertices gain hubs adjacent to every
// vertex, whose neighborhoods span several 64-bit words of the
// enumerator's bitsets.
func TestSparseMatchesDenseEnumeration(t *testing.T) {
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		p := rng.Float64() // edge probability: sparse through near-complete
		hubs := 0
		if seed >= 12 {
			n, p, hubs = 70+rng.Intn(80), 0.05+0.1*rng.Float64(), 1+rng.Intn(3)
		}
		nbr := make([][]int32, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if i < hubs || rng.Float64() < p {
					nbr[i] = append(nbr[i], int32(j))
					nbr[j] = append(nbr[j], int32(i))
				}
			}
		}
		var e enumerator
		var found [][]int32
		for v := int32(0); v < int32(n); v++ {
			e.root(nbr, v, func(w int32) bool { return w < v }, func(r []int32) {
				found = append(found, append([]int32(nil), r...))
			})
		}
		sparse := canonCliques(found)
		var dense32 [][]int32
		for _, c := range maximalCliques(n, denseFromSparse(n, nbr)) {
			c32 := make([]int32, len(c))
			for i, v := range c {
				c32[i] = int32(v)
			}
			dense32 = append(dense32, c32)
		}
		dense := canonCliques(dense32)
		if len(sparse) != len(dense) {
			t.Fatalf("seed %d (n=%d p=%.2f): sparse found %d cliques, dense %d",
				seed, n, p, len(sparse), len(dense))
		}
		for i := range sparse {
			if sparse[i] != dense[i] {
				t.Fatalf("seed %d (n=%d p=%.2f): clique %d differs\nsparse: %s\n dense: %s",
					seed, n, p, i, sparse[i], dense[i])
			}
		}

		for v := int32(0); v < int32(n); v++ {
			var rooted, holding [][]int32
			e.root(nbr, v, func(int32) bool { return false }, func(r []int32) {
				rooted = append(rooted, append([]int32(nil), r...))
			})
			for _, c := range dense32 {
				if slices.Contains(c, v) {
					holding = append(holding, c)
				}
			}
			if got, want := canonCliques(rooted), canonCliques(holding); !slices.Equal(got, want) {
				t.Fatalf("seed %d (n=%d p=%.2f): rooted at %d found %v, want %v", seed, n, p, v, got, want)
			}
		}
	}
}

// denseDecomposition is Build's decomposition derived independently of
// the link graph, the enumerator and finish: the maximal cliques of the
// all-pairs LinksContend matrix over the undirected links, as canonically
// sorted link lists in canonical order, each named owner.seq (§6.3) by
// its smallest node and its rank among that node's cliques.
func denseDecomposition(topo *topology.Topology) ([]ID, [][]topology.Link) {
	var links []topology.Link
	for _, l := range topo.Links() {
		if l.From < l.To {
			links = append(links, l)
		}
	}
	adj := make([][]bool, len(links))
	for i := range adj {
		adj[i] = make([]bool, len(links))
		for j := range links {
			adj[i][j] = i != j && topo.LinksContend(links[i], links[j])
		}
	}
	var cliques [][]topology.Link
	for _, c := range maximalCliques(len(links), adj) {
		ls := make([]topology.Link, len(c))
		for i, v := range c {
			ls[i] = links[v]
		}
		slices.SortFunc(ls, compareLinks)
		cliques = append(cliques, ls)
	}
	slices.SortFunc(cliques, func(a, b []topology.Link) int { return slices.CompareFunc(a, b, compareLinks) })
	ids := make([]ID, len(cliques))
	for i, c := range cliques {
		ids[i] = ID{Owner: c[0].From}
		if i > 0 && ids[i-1].Owner == ids[i].Owner {
			ids[i].Seq = ids[i-1].Seq + 1
		}
	}
	return ids, cliques
}

// TestBuildMatchesDense is Build's independent oracle: its cliques, their
// owner.seq identifiers and its by-link index must match the dense
// decomposition on chains, a grid, the Figure 2 geometry and random
// placements at carrier-sense range equal to and 1.7 times the
// transmission range.
func TestBuildMatchesDense(t *testing.T) {
	type placement struct {
		name string
		pos  []geom.Point
		cfg  topology.Config
	}
	cfg := topology.DefaultConfig()
	var cases []placement
	for _, n := range []int{2, 4, 6, 9} {
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: 200 * float64(i)}
		}
		cases = append(cases, placement{fmt.Sprintf("chain %d", n), pos, cfg})
	}
	var grid []geom.Point
	for i := 0; i < 25; i++ {
		grid = append(grid, geom.Point{X: 200 * float64(i%5), Y: 200 * float64(i/5)})
	}
	cases = append(cases, placement{"grid 5x5", grid, cfg})
	cases = append(cases, placement{"fig2", []geom.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0},
		{X: 430, Y: 390}, {X: 430, Y: 150}, {X: 650, Y: 80},
	}, cfg})
	for _, csFactor := range []float64{1, 1.7} {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 8; trial++ {
			pos := make([]geom.Point, 8+rng.Intn(25))
			for i := range pos {
				pos[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			}
			cases = append(cases, placement{
				fmt.Sprintf("random cs %.1f trial %d", csFactor, trial), pos,
				topology.Config{TxRange: 250, CSRange: 250 * csFactor},
			})
		}
	}
	for _, tc := range cases {
		topo := topology.MustNew(tc.pos, tc.cfg)
		ids, want := denseDecomposition(topo)
		set := Build(topo)
		var gotIDs []ID
		var got [][]topology.Link
		for _, c := range set.All() {
			gotIDs = append(gotIDs, c.ID)
			got = append(got, c.Links)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotIDs, ids) {
			t.Fatalf("%s: Build holds %d cliques %v %v, dense %d %v %v", tc.name, len(got), gotIDs, got, len(want), ids, want)
		}
		for _, l := range topo.Links() {
			var of []ID
			for _, c := range set.Of(l) {
				of = append(of, c.ID)
			}
			var wantOf []ID
			for i, c := range want {
				if slices.Contains(c, l.Undirected()) {
					wantOf = append(wantOf, ids[i])
				}
			}
			if !reflect.DeepEqual(of, wantOf) {
				t.Fatalf("%s: Of(%v) = %v, dense %v", tc.name, l, of, wantOf)
			}
		}
	}
}

package clique

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

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
// degeneracy-ordered sparse Bron–Kerbosch: on random graphs across a
// density sweep it must emit exactly the maximal cliques the dense
// matrix-based enumerator finds (including isolated vertices, which both
// report as singletons). A search rooted at each vertex with nothing
// excluded, as Update roots one at a covered link, must find exactly the
// cliques holding that vertex. From seed 12 on, sparse graphs of up to
// 150 vertices gain hubs adjacent to every vertex, whose neighborhoods
// span several 64-bit words of the enumerator's bitsets.
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
		sparse := canonCliques(maximalCliquesSparse(n, nbr))
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

		var e enumerator
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

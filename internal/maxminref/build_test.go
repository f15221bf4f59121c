package maxminref

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/clique"
	"gmp/internal/routing"
	"gmp/internal/scenario"
	"gmp/internal/topology"
)

// buildProblemScan is the construction BuildProblem replaced, kept as its
// differential oracle: every clique of the set is scanned for every path
// link with Clique.Contains, and a clique no path crosses is skipped.
func buildProblemScan(flows []FlowSpec, routes *routing.Table, cliques *clique.Set, capacity func(*clique.Clique) float64) (*Problem, error) {
	p := &Problem{
		Weights: make([]float64, len(flows)),
		Demands: make([]float64, len(flows)),
	}
	pathLinks := make([][]topology.Link, len(flows))
	for i, f := range flows {
		p.Weights[i] = f.Weight
		p.Demands[i] = f.Demand
		links, err := routes.Links(f.Src, f.Dst)
		if err != nil {
			return nil, fmt.Errorf("maxminref: flow %d: %w", i, err)
		}
		pathLinks[i] = links
	}
	for _, c := range cliques.All() {
		row := make([]float64, len(flows))
		used := false
		for i, links := range pathLinks {
			for _, l := range links {
				if c.Contains(l) {
					row[i]++
					used = true
				}
			}
		}
		if !used {
			continue
		}
		p.Usage = append(p.Usage, row)
		p.Capacities = append(p.Capacities, capacity(c))
	}
	return p, nil
}

// TestBuildProblemMatchesScan checks BuildProblem against the clique scan
// on random connected topologies with random flows and on the 2000-node
// city with its own flows. Given Build's cliques, and given only the
// cliques Holding the flows' path links (what a session without a GMP
// runtime or churn admission passes), the Problem must deep-equal the
// scan over Build's cliques. Each clique's capacity is a function of its
// links, so a row paired with another clique's capacity shows.
func TestBuildProblemMatchesScan(t *testing.T) {
	capacity := func(c *clique.Clique) float64 {
		return 100 + 10*float64(len(c.Links)) + float64(c.Links[0].From) + float64(c.Links[len(c.Links)-1].To)/1000
	}
	check := func(name string, sc scenario.Scenario, flows []FlowSpec) {
		t.Helper()
		topo, err := sc.Topology()
		if err != nil {
			t.Fatal(err)
		}
		routes := routing.BuildLazy(topo)
		full := clique.Build(topo)
		want, err := buildProblemScan(flows, routes, full, capacity)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(want.Usage) == 0 {
			t.Fatalf("%s: no path crosses a clique", name)
		}
		var links []topology.Link
		for _, f := range flows {
			path, err := routes.Links(f.Src, f.Dst)
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, path...)
		}
		for _, set := range []struct {
			name    string
			cliques *clique.Set
		}{{"Build", full}, {"Holding", clique.Holding(topo, links)}} {
			got, err := BuildProblem(flows, routes, set.cliques, capacity)
			if err != nil {
				t.Fatalf("%s from %s: %v", name, set.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s from %s: %d constraints, want %d\n got %+v\n want %+v", name, set.name, len(got.Usage), len(want.Usage), got, want)
			}
		}
	}

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		side := math.Sqrt(float64(n)) * (100 + 45*rng.Float64()) // 4-10 neighbors per node
		sc, err := scenario.RandomConnected(n, 1, side, side, seed)
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]FlowSpec, 1+rng.Intn(8))
		for i := range flows {
			src := topology.NodeID(rng.Intn(n))
			dst := topology.NodeID(rng.Intn(n - 1))
			if dst >= src {
				dst++
			}
			flows[i] = FlowSpec{Src: src, Dst: dst, Weight: 0.5 + 3*rng.Float64(), Demand: 1 + 999*rng.Float64()}
		}
		check(fmt.Sprintf("random seed %d", seed), sc, flows)
	}
	city, err := scenario.City(2000, 8, 24, 220, 1)
	if err != nil {
		t.Fatal(err)
	}
	var flows []FlowSpec
	for _, f := range city.Flows {
		flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Weight: f.Weight, Demand: f.DesiredRate})
	}
	check("city", city, flows)
}

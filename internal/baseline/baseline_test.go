package baseline

import (
	"math"
	"testing"

	"gmp/internal/clique"
	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/maxminref"
	"gmp/internal/routing"
	"gmp/internal/topology"
)

func chainTopo(t *testing.T, n int) (*routing.Table, *clique.Set) {
	t.Helper()
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 200}
	}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return routing.Build(topo), clique.Build(topo)
}

func TestPlain80211ForwardingConfig(t *testing.T) {
	cfg := Plain80211Forwarding(300)
	if cfg.Mode != forwarding.Shared || cfg.CongestionAvoidance {
		t.Errorf("unexpected config %+v", cfg)
	}
	if cfg.QueueSlots != 300 {
		t.Errorf("slots = %d", cfg.QueueSlots)
	}
}

func TestTwoPPForwardingConfig(t *testing.T) {
	cfg := TwoPPForwarding(10)
	if cfg.Mode != forwarding.PerFlow || !cfg.CongestionAvoidance {
		t.Errorf("unexpected config %+v", cfg)
	}
	if cfg.StaleAfter <= 0 {
		t.Error("stale timeout unset")
	}
}

func TestTwoPPAllocationFig3Shape(t *testing.T) {
	// Chain 0-1-2-3, flows <0,3>, <1,3>, <2,3>: one clique, three flows,
	// crossings 3/2/1. Basic shares C/(3*3), C/(3*2), C/(3*1); the whole
	// capacity is then consumed, so the allocation is exactly the basic
	// shares with no remainder for long flows but (the clique is tight)
	// none for the short one either.
	routes, cliques := chainTopo(t, 4)
	flows := []maxminref.FlowSpec{
		{Src: 0, Dst: 3, Weight: 1, Demand: 800},
		{Src: 1, Dst: 3, Weight: 1, Demand: 800},
		{Src: 2, Dst: 3, Weight: 1, Demand: 800},
	}
	const c = 520.0
	rates, err := TwoPPAllocation(flows, routes, cliques, UniformCliqueCapacity(c))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{c / 9, c / 6, c / 3}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-6 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	// The signature bias: short flow gets 3x the 3-hop flow.
	if rates[2]/rates[0] < 2.5 {
		t.Errorf("short-flow bias missing: %v", rates)
	}
}

func TestTwoPPRemainderGoesToShortFlows(t *testing.T) {
	// Two disjoint single-link cliques... build a 2-link chain with one
	// 2-hop flow and one 1-hop flow on the second link.
	routes, cliques := chainTopo(t, 3)
	flows := []maxminref.FlowSpec{
		{Src: 0, Dst: 2, Weight: 1, Demand: 800}, // 2 hops
		{Src: 1, Dst: 2, Weight: 1, Demand: 800}, // 1 hop
	}
	const c = 520.0
	rates, err := TwoPPAllocation(flows, routes, cliques, UniformCliqueCapacity(c))
	if err != nil {
		t.Fatal(err)
	}
	// Basic shares: f0 = C/(2*2) = 130, f1 = C/(2*1) = 260. Load =
	// 2*130 + 260 = 520 = C; no remainder. Short flow gets double.
	if math.Abs(rates[0]-130) > 1e-6 || math.Abs(rates[1]-260) > 1e-6 {
		t.Fatalf("rates = %v, want [130 260]", rates)
	}
}

func TestTwoPPFeasibility(t *testing.T) {
	routes, cliques := chainTopo(t, 6)
	flows := []maxminref.FlowSpec{
		{Src: 0, Dst: 5, Weight: 1, Demand: 800},
		{Src: 1, Dst: 4, Weight: 1, Demand: 800},
		{Src: 2, Dst: 3, Weight: 1, Demand: 800},
		{Src: 4, Dst: 5, Weight: 1, Demand: 800},
	}
	const c = 520.0
	rates, err := TwoPPAllocation(flows, routes, cliques, UniformCliqueCapacity(c))
	if err != nil {
		t.Fatal(err)
	}
	problem, err := maxminref.BuildProblem(flows, routes, cliques, UniformCliqueCapacity(c))
	if err != nil {
		t.Fatal(err)
	}
	for q, row := range problem.Usage {
		load := 0.0
		for f, u := range row {
			load += u * rates[f]
		}
		if load > problem.Capacities[q]+1e-6 {
			t.Errorf("clique %d overloaded: %v > %v", q, load, problem.Capacities[q])
		}
	}
	for f, r := range rates {
		if r <= 0 {
			t.Errorf("flow %d got nothing", f)
		}
		if r > flows[f].Demand+1e-9 {
			t.Errorf("flow %d exceeds demand", f)
		}
	}
}

func TestTwoPPDemandCap(t *testing.T) {
	routes, cliques := chainTopo(t, 2)
	flows := []maxminref.FlowSpec{{Src: 0, Dst: 1, Weight: 1, Demand: 50}}
	rates, err := TwoPPAllocation(flows, routes, cliques, UniformCliqueCapacity(520))
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 50 {
		t.Errorf("rate = %v, want demand cap 50", rates[0])
	}
}

func TestTwoPPEmptyFlows(t *testing.T) {
	routes, cliques := chainTopo(t, 2)
	rates, err := TwoPPAllocation(nil, routes, cliques, UniformCliqueCapacity(520))
	if err != nil || rates != nil {
		t.Errorf("empty allocation = %v, %v", rates, err)
	}
}

func TestTwoPPBasicShareBelowMaxmin(t *testing.T) {
	// On the fig3 chain the 2PP basic share of the 3-hop flow (C/9) is
	// well below its maxmin rate (C/6) — the conservatism §1 criticizes.
	routes, cliques := chainTopo(t, 4)
	flows := []maxminref.FlowSpec{
		{Src: 0, Dst: 3, Weight: 1, Demand: 800},
		{Src: 1, Dst: 3, Weight: 1, Demand: 800},
		{Src: 2, Dst: 3, Weight: 1, Demand: 800},
	}
	const c = 520.0
	twopp, err := TwoPPAllocation(flows, routes, cliques, UniformCliqueCapacity(c))
	if err != nil {
		t.Fatal(err)
	}
	problem, err := maxminref.BuildProblem(flows, routes, cliques, UniformCliqueCapacity(c))
	if err != nil {
		t.Fatal(err)
	}
	maxmin, err := problem.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if twopp[0] >= maxmin[0] {
		t.Errorf("2PP long-flow rate %v not below maxmin %v", twopp[0], maxmin[0])
	}
}

func TestPathCost(t *testing.T) {
	routes, _ := chainTopo(t, 4)
	if got := PathCost(routes, 0, 3); got != 3 {
		t.Errorf("PathCost = %d, want 3", got)
	}
}

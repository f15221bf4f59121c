package core

import (
	"math"
	"testing"
	"time"

	"gmp/internal/clique"
	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/measure"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Period: 0, Beta: 0.1, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 0, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 1, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 0.1, OmegaThreshold: 0, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 0.1, OmegaThreshold: 0.25, AdditiveIncrease: 0, HalveGap: 3},
		{Period: time.Second, Beta: 0.1, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestBetaEquality(t *testing.T) {
	r := &rules{params: Params{Beta: 0.10}}
	tests := []struct {
		a, b float64
		want bool
	}{
		{100, 100, true},
		{100, 91, true},   // 9% below
		{100, 89, false},  // 11% below
		{91, 100, true},   // symmetric
		{0, 0, true},      // degenerate
		{0, 1, false},     // zero vs positive
		{1000, 905, true}, // scales with magnitude
	}
	for _, tt := range tests {
		if got := r.eq(tt.a, tt.b); got != tt.want {
			t.Errorf("eq(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRequestAggregation(t *testing.T) {
	r := make(reqSet)
	// Increases keep the smallest factor.
	r.add(0, Request{Factor: 2.0})
	r.add(0, Request{Factor: 1.1})
	if req := r[0]; req.Reduce || req.Factor != 1.1 {
		t.Errorf("increase aggregation = %+v", req)
	}
	r.add(0, Request{Factor: 1.5})
	if req := r[0]; req.Factor != 1.1 {
		t.Errorf("larger increase overwrote smaller: %+v", req)
	}
	// A reduction overrides any increase.
	r.add(0, Request{Reduce: true, Factor: 0.9})
	if req := r[0]; !req.Reduce || req.Factor != 0.9 {
		t.Errorf("reduce did not override: %+v", req)
	}
	// Later increases cannot displace a reduction.
	r.add(0, Request{Factor: 1.1})
	if req := r[0]; !req.Reduce {
		t.Errorf("increase displaced a reduction: %+v", req)
	}
	// Among reductions the largest cut (smallest factor) wins.
	r.add(0, Request{Reduce: true, Factor: 0.5})
	if req := r[0]; req.Factor != 0.5 {
		t.Errorf("reduce aggregation = %+v", req)
	}
	r.add(0, Request{Reduce: true, Factor: 0.9})
	if req := r[0]; req.Factor != 0.5 {
		t.Errorf("weaker reduce overwrote stronger: %+v", req)
	}
}

// engineHarness wires a minimal two-node network with one flow so apply()
// can be exercised against real sources.
type engineHarness struct {
	sched  *sim.Scheduler
	engine *Engine
	reg    *flow.Registry
	src    *flow.Source
}

func newEngineHarness(t *testing.T) *engineHarness {
	t.Helper()
	pos := []geom.Point{{X: 0}, {X: 200}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	routes := routing.Build(topo)
	node := forwarding.NewNode(0, sched, forwarding.DefaultConfig(), routes, nil, nil)
	specs := []flow.Spec{{ID: 0, Src: 0, Dst: 1, Weight: 1, DesiredRate: 800, SizeBytes: 1024}}
	reg, err := flow.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	src := flow.NewSource(specs[0], sched, node, 4*time.Second, sim.NewRand(1))
	reg.AttachSource(0, src)

	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(2))
	collector := measure.NewCollector([]*forwarding.Node{node}, medium, 0.25)
	engine, err := NewEngine(sched, topo, clique.Build(topo), reg, collector, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &engineHarness{sched: sched, engine: engine, reg: reg, src: src}
}

func emptySnap() *measure.Snapshot {
	return &measure.Snapshot{
		Omega:     map[measure.VNodeID]float64{},
		Saturated: map[measure.VNodeID]bool{},
		VLinks:    map[forwarding.VLinkKey]*measure.VLinkState{},
		WLinks:    map[topology.Link]*measure.WLinkState{},
	}
}

func TestApplyReduceSetsLimitFromRate(t *testing.T) {
	h := newEngineHarness(t)
	reqs := map[packet.FlowID]Request{0: {Reduce: true, Factor: 0.5}}
	h.engine.apply(reqs, []float64{200}, emptySnap())
	limit, ok := h.src.Limited()
	if !ok || math.Abs(limit-100) > 1e-9 {
		t.Errorf("limit = %v,%v; want 100", limit, ok)
	}
}

func TestApplyReduceUsesTighterOfRateAndLimit(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(50)
	reqs := map[packet.FlowID]Request{0: {Reduce: true, Factor: 0.9}}
	h.engine.apply(reqs, []float64{200}, emptySnap())
	limit, _ := h.src.Limited()
	if math.Abs(limit-45) > 1e-9 {
		t.Errorf("limit = %v, want 45 (0.9 x min(200, 50))", limit)
	}
}

func TestApplyIncreaseScalesLimit(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	reqs := map[packet.FlowID]Request{0: {Factor: 1.1}}
	h.engine.apply(reqs, []float64{100}, emptySnap())
	limit, _ := h.src.Limited()
	if math.Abs(limit-110) > 1e-9 {
		t.Errorf("limit = %v, want 110", limit)
	}
}

func TestApplyIncreaseNoOpWhenUnlimited(t *testing.T) {
	h := newEngineHarness(t)
	reqs := map[packet.FlowID]Request{0: {Factor: 2}}
	h.engine.apply(reqs, []float64{100}, emptySnap())
	if _, ok := h.src.Limited(); ok {
		t.Error("increase created a limit out of nothing")
	}
}

func TestRateLimitConditionAdditiveIncrease(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	snap := emptySnap()
	// Running at the limit: probe upward by the additive step.
	h.engine.apply(nil, []float64{99}, snap)
	limit, _ := h.src.Limited()
	want := 100 + DefaultParams().AdditiveIncrease
	if math.Abs(limit-want) > 1e-9 {
		t.Errorf("limit = %v, want %v", limit, want)
	}
}

func TestUnnecessaryLimitRemovedAfterTwoSlackRounds(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	snap := emptySnap() // source queue idle (omega 0)
	h.engine.apply(nil, []float64{50}, snap)
	if _, ok := h.src.Limited(); !ok {
		t.Fatal("limit removed after a single slack round")
	}
	h.engine.apply(nil, []float64{50}, snap)
	if _, ok := h.src.Limited(); ok {
		t.Error("limit not removed after two slack rounds")
	}
}

func TestLimitKeptWhileSourceQueueSaturated(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	snap := emptySnap()
	v := measure.VNodeID{Node: 0, Queue: packet.QueueForDest(1)}
	snap.Omega[v] = 0.5
	snap.Saturated[v] = true
	for i := 0; i < 5; i++ {
		h.engine.apply(nil, []float64{50}, snap)
	}
	if _, ok := h.src.Limited(); !ok {
		t.Error("limit removed while the source was backpressured")
	}
}

func TestSlackCounterResets(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	idle := emptySnap()
	h.engine.apply(nil, []float64{50}, idle) // slack 1
	h.engine.apply(nil, []float64{99}, idle) // at limit: resets slack
	h.engine.apply(nil, []float64{50}, idle) // slack 1 again
	if _, ok := h.src.Limited(); !ok {
		t.Error("limit removed despite the slack streak being broken")
	}
}

func TestTraceRecordsRounds(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	h.engine.apply(nil, []float64{100}, emptySnap())
	trace := h.engine.Trace()
	if len(trace) != 1 {
		t.Fatalf("trace rounds = %d, want 1", len(trace))
	}
	if len(trace[0].Rates) != 1 || trace[0].Rates[0] != 100 {
		t.Errorf("trace rates = %v", trace[0].Rates)
	}
	if math.IsInf(trace[0].Limits[0], 1) {
		t.Error("limit missing from trace")
	}
}

func TestEvaluateSourceConditionGeneratesRequests(t *testing.T) {
	// A saturated virtual node hosts a limited local flow at mu=100 and
	// receives a buffer-saturated upstream link at mu=10: the local flow
	// must be asked down and the upstream primary up, halved and doubled
	// because the gap exceeds HalveGap.
	r := newRules(DefaultParams())
	reqs := make(reqSet)
	ups := []upLink{{
		link: topology.Link{From: 1, To: 0}, mu: 10, bufferSat: true,
		primaries: map[packet.FlowID]topology.NodeID{5: 1},
	}}
	r.sourceAndBuffer(0, ups, []localFlow{{id: 0, mu: 100, limited: true}}, reqs.add, nil)
	if req := reqs[0]; !req.Reduce || req.Factor != 0.5 {
		t.Errorf("local flow request = %+v, want a halving", req)
	}
	if req := reqs[5]; req.Reduce || req.Factor != 2 {
		t.Errorf("upstream primary request = %+v, want a doubling", req)
	}

	// The engine feeds the rule from its snapshot: at virtual node 0_1,
	// a fat upstream link (mu=100) and a starved buffer-saturated one
	// (mu=10) get the same treatment.
	h := newEngineHarness(t)
	snap := emptySnap()
	q := packet.QueueForDest(1)
	v := measure.VNodeID{Node: 0, Queue: q}
	snap.Saturated[v] = true
	snap.Omega[v] = 0.9
	for _, st := range []*measure.VLinkState{
		{Key: forwarding.VLinkKey{From: 1, To: 0, Queue: q}, NormRate: 100, Primaries: map[packet.FlowID]topology.NodeID{5: 1}, Type: measure.BufferSaturated},
		{Key: forwarding.VLinkKey{From: 2, To: 0, Queue: q}, NormRate: 10, Primaries: map[packet.FlowID]topology.NodeID{6: 2}, Type: measure.BufferSaturated},
	} {
		snap.VLinks[st.Key] = st
		snap.InsertUpstream(v, st)
	}
	reqs = h.engine.evaluate(snap)
	if req := reqs[5]; !req.Reduce || req.Factor != 0.5 {
		t.Errorf("primary of the fat upstream link: %+v, want a halving", req)
	}
	if req := reqs[6]; req.Reduce || req.Factor != 2 {
		t.Errorf("primary of the starved upstream link: %+v, want a doubling", req)
	}
}

func TestEvaluateBandwidthConditionGeneratesRequests(t *testing.T) {
	// Two contending links on the chain 0-1-2-3 (one clique): link (2,3)
	// bandwidth-saturated at mu=10 while link (0,1) carries mu=100.
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	routes := routing.Build(topo)
	node := forwarding.NewNode(0, sched, forwarding.DefaultConfig(), routes, nil, nil)
	specs := []flow.Spec{{ID: 0, Src: 0, Dst: 1, Weight: 1, DesiredRate: 800, SizeBytes: 1024}}
	reg, err := flow.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachSource(0, flow.NewSource(specs[0], sched, node, 4*time.Second, sim.NewRand(1)))
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(2))
	collector := measure.NewCollector([]*forwarding.Node{node}, medium, 0.25)
	engine, err := NewEngine(sched, topo, clique.Build(topo), reg, collector, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	snap := emptySnap()
	q1 := packet.QueueForDest(1)
	q3 := packet.QueueForDest(3)
	fat := &measure.VLinkState{
		Key:       forwarding.VLinkKey{From: 0, To: 1, Queue: q1},
		NormRate:  100,
		Primaries: map[packet.FlowID]topology.NodeID{0: 0},
		Type:      measure.BandwidthSaturated,
	}
	starved := &measure.VLinkState{
		Key:       forwarding.VLinkKey{From: 2, To: 3, Queue: q3},
		NormRate:  10,
		Primaries: map[packet.FlowID]topology.NodeID{7: 2},
		Type:      measure.BandwidthSaturated,
	}
	snap.VLinks[fat.Key] = fat
	snap.VLinks[starved.Key] = starved
	snap.WLinks[topology.Link{From: 0, To: 1}] = &measure.WLinkState{
		Link: topology.Link{From: 0, To: 1}, Occupancy: 0.4, NormRate: 100,
	}
	snap.WLinks[topology.Link{From: 2, To: 3}] = &measure.WLinkState{
		Link: topology.Link{From: 2, To: 3}, Occupancy: 0.3, NormRate: 10,
	}

	reqs := engine.evaluate(snap)
	if req, ok := reqs[0]; !ok || !req.Reduce {
		t.Errorf("clique-topping flow not reduced: %v", reqs)
	}
	if req, ok := reqs[7]; !ok || req.Reduce {
		t.Errorf("starved bandwidth-saturated flow not increased: %v", reqs)
	}
}

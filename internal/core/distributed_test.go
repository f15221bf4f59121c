package core

import (
	"testing"
	"time"

	"gmp/internal/clique"
	"gmp/internal/dissemination"
	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/mac"
	"gmp/internal/measure"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/scenario"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// distStack wires the full distributed runtime over a scenario with the
// out-of-band control bus.
type distStack struct {
	sched *sim.Scheduler
	reg   *flow.Registry
	dist  *Distributed
}

func newDistStack(t *testing.T, sc scenario.Scenario) *distStack {
	t.Helper()
	topo, err := sc.Topology()
	if err != nil {
		t.Fatal(err)
	}
	routes := routing.Build(topo)
	sched := sim.NewScheduler()
	master := sim.NewRand(1)
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(master.Int63()))
	reg, err := flow.NewRegistry(sc.Flows)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := forwarding.DefaultConfig()
	nodes := make([]*forwarding.Node, topo.NumNodes())
	for _, id := range topo.Nodes() {
		n := forwarding.NewNode(id, sched, fcfg, routes, reg.OnDeliver, reg.OnDrop)
		st := mac.NewStation(id, sched, medium, mac.DefaultConfig(), master.Int63(), n)
		n.SetMAC(st)
		nodes[id] = n
	}
	for _, spec := range sc.Flows {
		src := flow.NewSource(spec, sched, nodes[spec.Src], 4*time.Second, sim.NewRand(master.Int63()))
		reg.AttachSource(spec.ID, src)
		src.Start()
	}
	bus := dissemination.NewBus(topo)
	diss := make([]*dissemination.Agent, topo.NumNodes())
	for _, id := range topo.Nodes() {
		diss[id] = bus.NewAgent(id, topo)
	}
	board := measure.NewOccupancyBoard(medium, 4*time.Second)
	dist, err := StartDistributed(sched, topo, clique.Build(topo), board, nodes, diss,
		reg, DefaultParams(), sim.NewRand(master.Int63()))
	if err != nil {
		t.Fatal(err)
	}
	return &distStack{sched: sched, reg: reg, dist: dist}
}

func TestDistributedEqualizesFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(300 * time.Second)
	st.reg.Mark(300 * time.Second)
	st.sched.Run(400 * time.Second)
	rates := st.reg.MeasuredRates(400 * time.Second)
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo <= 0 {
		t.Fatalf("a flow starved: %v", rates)
	}
	if lo/hi < 0.55 {
		t.Errorf("distributed GMP failed to equalize: %v (I_mm %.3f)", rates, lo/hi)
	}
}

func TestDistributedAgentsExchangeState(t *testing.T) {
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(20 * time.Second)
	// After a few periods, node 0's agent must know the state of link
	// (2,3) — two hops away — through dissemination.
	a0 := st.dist.Agents[0]
	if _, ok := a0.lsdb[topology.Link{From: 2, To: 3}]; !ok {
		t.Error("agent 0 missing two-hop link state")
	}
	// And the saturation bit of node 1's queue for destination 3.
	if _, ok := a0.satdb[measure.VNodeID{Node: 1, Queue: packet.QueueForDest(3)}]; !ok {
		t.Error("agent 0 missing neighbor vnode saturation bit")
	}
}

func TestDistributedViolationsFire(t *testing.T) {
	st := newDistStack(t, scenario.Fig2([4]float64{1, 1, 1, 1}))
	st.sched.Run(120 * time.Second)
	// Node 1 hosts the structurally starved flow f2: its agent must have
	// originated bandwidth-condition violations.
	if st.dist.Agents[1].Violations() == 0 {
		t.Error("agent 1 never flagged the bandwidth-saturated condition")
	}
	// Other agents must have processed them.
	processed := int64(0)
	for _, a := range st.dist.Agents {
		processed += a.ViolationsReceived()
	}
	if processed == 0 {
		t.Error("no agent processed a violation")
	}
}

func TestDistributedTraceRecorded(t *testing.T) {
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(40 * time.Second)
	trace := st.dist.Trace()
	if len(trace) < 8 {
		t.Fatalf("trace rounds = %d, want ~10", len(trace))
	}
	if len(trace[0].Rates) != 3 {
		t.Errorf("trace rates per round = %d, want 3", len(trace[0].Rates))
	}
}

func TestNewAgentValidation(t *testing.T) {
	sc := scenario.Fig3()
	topo, err := sc.Topology()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAgent(0, sim.NewScheduler(), topo, clique.Build(topo), nil, nil, nil, DefaultParams(), nil)
	if err == nil {
		t.Error("nil deliver accepted")
	}
	bad := DefaultParams()
	bad.Beta = 0
	_, err = NewAgent(0, sim.NewScheduler(), topo, clique.Build(topo), nil, nil, nil, bad, func(packet.FlowID, Request) {})
	if err == nil {
		t.Error("invalid params accepted")
	}
}

// TestAgentIdleInput pins the agent's input to the rate-limit step: a
// limited source running below its limit counts as idle, and sheds the
// limit after two slack rounds, only while its queue is not saturated.
// A saturated queue (measured Ω, or a binding limit) keeps it probing.
func TestAgentIdleInput(t *testing.T) {
	h := newEngineHarness(t)
	spec := h.reg.Specs()[0]
	agent := func(saturated bool) *Agent {
		return &Agent{
			rules:        newRules(DefaultParams()),
			localFlows:   []flow.Spec{spec},
			localSources: []*flow.Source{h.src},
			saturated:    map[packet.QueueID]bool{packet.QueueForDest(spec.Dst): saturated},
			rates:        map[packet.FlowID]float64{spec.ID: 50},
			pending:      make(reqSet),
		}
	}

	h.src.SetLimit(100)
	idle := agent(false)
	idle.applyPending()
	if _, ok := h.src.Limited(); !ok {
		t.Fatal("limit removed after a single slack round")
	}
	idle.applyPending()
	if _, ok := h.src.Limited(); ok {
		t.Error("idle source kept its limit after two slack rounds")
	}

	h.src.SetLimit(100)
	busy := agent(true)
	for i := 0; i < 3; i++ {
		busy.applyPending()
	}
	if limit, ok := h.src.Limited(); !ok || limit != 100+3*DefaultParams().AdditiveIncrease {
		t.Errorf("saturated source limit = %v,%v; want three additive probes over 100", limit, ok)
	}

	// A delivered request overrides the idle test and is consumed.
	busy.pending.add(spec.ID, Request{Reduce: true, Factor: 0.5})
	busy.applyPending()
	if limit, _ := h.src.Limited(); limit != 25 {
		t.Errorf("limit after a halving = %v, want 25 (0.5 x min(rate 50, limit))", limit)
	}
	if len(busy.pending) != 0 {
		t.Errorf("pending requests not consumed: %v", busy.pending)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"gmp/internal/clique"
	"gmp/internal/conditions"
	"gmp/internal/maxminref"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// collect records every request the rule hands out, per flow and in
// order, without aggregating them.
type collect map[packet.FlowID][]Request

func (c collect) add(f packet.FlowID, req Request) { c[f] = append(c[f], req) }

func primaries(ids ...packet.FlowID) map[packet.FlowID]topology.NodeID {
	m := make(map[packet.FlowID]topology.NodeID, len(ids))
	for _, f := range ids {
		m[f] = topology.NodeID(f)
	}
	return m
}

// newRecorder returns a telemetry recorder whose clock stands still.
func newRecorder() *obs.Recorder {
	return obs.NewRecorder(2, 8, time.Second, func() time.Duration { return 0 })
}

func TestAskRoutesEveryFlow(t *testing.T) {
	flows := map[packet.FlowID]topology.NodeID{3: 30, 1: 10, 2: 20}
	req := Request{Reduce: true, Factor: 0.9}
	r := newRules(DefaultParams())
	got := make(collect)
	r.ask(got.add, flows, 7, obs.CondBandwidth, req, provenance{})
	if fmt.Sprint(map[packet.FlowID][]Request(got)) != "map[1:[{true 0.9}] 2:[{true 0.9}] 3:[{true 0.9}]]" {
		t.Errorf("requests without recording = %v", got)
	}

	// Recording, the same requests go out in flow-ID order, each with
	// its condition event.
	r.probe = &obs.Probe{Tel: newRecorder()}
	var order []packet.FlowID
	r.ask(func(f packet.FlowID, _ Request) { order = append(order, f) }, flows, 7, obs.CondBandwidth, req, provenance{})
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("recorded routing order = %v, want [1 2 3]", order)
	}
	events := r.probe.Tel.Finalize("", "", nil).Conditions
	if len(events) != len(order) {
		t.Fatalf("%d conditions recorded for %d requests", len(events), len(order))
	}
	for i, ev := range events {
		if ev.Flow != order[i] || ev.Node != 7 || ev.Cond != obs.CondBandwidth || !ev.Reduce || ev.Factor != 0.9 {
			t.Errorf("condition %d = %+v", i, ev)
		}
	}
}

func TestSourceAndBufferRule(t *testing.T) {
	beta := DefaultParams().Beta
	down, up := Request{Reduce: true, Factor: 1 - beta}, Request{Factor: 1 + beta}
	halve, double := Request{Reduce: true, Factor: 0.5}, Request{Factor: 2}
	cases := []struct {
		name    string
		ups     []upLink
		locals  []localFlow
		want    map[packet.FlowID][]Request
		cond    obs.Condition // recorded for every request
		reduced []topology.Link
	}{
		{
			name:   "local flow at L1 asked down",
			ups:    []upLink{{link: topology.Link{From: 1, To: 0}, mu: 10, bufferSat: true, primaries: primaries(5)}},
			locals: []localFlow{{id: 0, mu: 20}},
			want:   map[packet.FlowID][]Request{0: {down}, 5: {up}},
			cond:   obs.CondSource,
		},
		{
			name: "limited local flow at S1 asked up",
			ups:  []upLink{{link: topology.Link{From: 1, To: 0}, mu: 20, bufferSat: true, primaries: primaries(5)}},
			locals: []localFlow{
				{id: 0, mu: 10, limited: true},
			},
			want:    map[packet.FlowID][]Request{0: {up}, 5: {down}},
			cond:    obs.CondSource,
			reduced: []topology.Link{{From: 1, To: 0}},
		},
		{
			name:    "unlimited local flow at S1 not asked up",
			ups:     []upLink{{link: topology.Link{From: 1, To: 0}, mu: 20, bufferSat: true, primaries: primaries(5)}},
			locals:  []localFlow{{id: 0, mu: 10}},
			want:    map[packet.FlowID][]Request{5: {down}},
			cond:    obs.CondSource,
			reduced: []topology.Link{{From: 1, To: 0}},
		},
		{
			name:   "halve and double past HalveGap",
			ups:    []upLink{{link: topology.Link{From: 1, To: 0}, mu: 10, bufferSat: true, primaries: primaries(5)}},
			locals: []localFlow{{id: 0, mu: 31, limited: true}},
			want:   map[packet.FlowID][]Request{0: {halve}, 5: {double}},
			cond:   obs.CondSource,
		},
		{
			name:   "step by beta at exactly HalveGap",
			ups:    []upLink{{link: topology.Link{From: 1, To: 0}, mu: 10, bufferSat: true, primaries: primaries(5)}},
			locals: []localFlow{{id: 0, mu: 30, limited: true}},
			want:   map[packet.FlowID][]Request{0: {down}, 5: {up}},
			cond:   obs.CondSource,
		},
		{
			name: "local flows without a measured rate ignored",
			ups:  []upLink{{link: topology.Link{From: 1, To: 0}, mu: 10, bufferSat: true, primaries: primaries(5)}},
			locals: []localFlow{
				{id: 0, mu: 0, limited: true},
				{id: 1, mu: 10.5, limited: true},
			},
			want: nil,
		},
		{
			name: "unmeasured local flow still makes a source node",
			ups: []upLink{
				{link: topology.Link{From: 1, To: 0}, mu: 20, bufferSat: true, primaries: primaries(5)},
				{link: topology.Link{From: 2, To: 0}, mu: 10, bufferSat: true, primaries: primaries(7)},
			},
			locals:  []localFlow{{id: 0, limited: true}},
			want:    map[packet.FlowID][]Request{5: {down}, 7: {up}},
			cond:    obs.CondSource,
			reduced: []topology.Link{{From: 1, To: 0}},
		},
		{
			name: "pure relay attributed to the buffer condition",
			ups: []upLink{
				{link: topology.Link{From: 1, To: 0}, mu: 20, bufferSat: true, primaries: primaries(5, 6)},
				{link: topology.Link{From: 2, To: 0}, mu: 10, bufferSat: true, primaries: primaries(7)},
				{link: topology.Link{From: 3, To: 0}, mu: 5, primaries: primaries(8)},
			},
			want:    map[packet.FlowID][]Request{5: {down}, 6: {down}, 7: {up}},
			cond:    obs.CondBuffer,
			reduced: []topology.Link{{From: 1, To: 0}},
		},
		{
			name: "no buffer-saturated upstream and no local flow",
			ups:  []upLink{{link: topology.Link{From: 1, To: 0}, mu: 20, primaries: primaries(5)}},
			want: nil,
		},
		{
			name: "L1 holder without primaries is not reported reduced",
			ups: []upLink{
				{link: topology.Link{From: 1, To: 0}, mu: 20, bufferSat: true},
				{link: topology.Link{From: 2, To: 0}, mu: 10, bufferSat: true, primaries: primaries(7)},
			},
			want: map[packet.FlowID][]Request{7: {up}},
			cond: obs.CondBuffer,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRules(DefaultParams())
			r.probe = &obs.Probe{Tel: newRecorder()}
			got := make(collect)
			var reduced []topology.Link
			r.sourceAndBuffer(0, tc.ups, tc.locals, got.add, func(l topology.Link) { reduced = append(reduced, l) })
			if fmt.Sprint(map[packet.FlowID][]Request(got)) != fmt.Sprint(tc.want) {
				t.Errorf("requests = %v, want %v", got, tc.want)
			}
			if fmt.Sprint(reduced) != fmt.Sprint(tc.reduced) {
				t.Errorf("reduced links = %v, want %v", reduced, tc.reduced)
			}
			events := r.probe.Tel.Finalize("", "", nil).Conditions
			if len(events) != len(got) {
				t.Errorf("%d conditions recorded for %d requests", len(events), len(got))
			}
			for _, ev := range events {
				if ev.Cond != tc.cond {
					t.Errorf("flow %d: condition %v recorded, want %v", ev.Flow, ev.Cond, tc.cond)
				}
			}
		})
	}
}

func TestSaturatedCliques(t *testing.T) {
	r := newRules(DefaultParams())
	occupancy := map[topology.Link]float64{{From: 0, To: 1}: 0.5, {From: 1, To: 2}: 0.45, {From: 2, To: 3}: 0.2, {From: 3, To: 4}: 0.6}
	owners := []*clique.Clique{
		{Links: []topology.Link{{From: 0, To: 1}}},
		{Links: []topology.Link{{From: 1, To: 2}}},
		{Links: []topology.Link{{From: 1, To: 2}, {From: 2, To: 3}}},
		{Links: []topology.Link{{From: 3, To: 4}}},
	}
	sat, occ, maxOcc := r.saturatedCliques(owners, func(l topology.Link) float64 { return occupancy[l] })
	if maxOcc != 0.65 || fmt.Sprint(occ) != "[0.5 0.45 0.65 0.6]" {
		t.Errorf("occupancy = %v (max %v)", occ, maxOcc)
	}
	// 0.5 is more than β below 0.65; 0.6 is within β of it.
	if len(sat) != 2 || sat[0] != owners[2] || sat[1] != owners[3] {
		t.Errorf("saturated = %v, want the third and fourth cliques", sat)
	}
}

// fluidChain builds a random single-destination chain instance of the
// fluid model (flows entering at random depths, cliques over windows of
// consecutive links plus one covering clique).
func fluidChain(rng *rand.Rand) *conditions.Instance {
	links := 2 + rng.Intn(5)
	in := &conditions.Instance{}
	for f, n := 0, 1+rng.Intn(4); f < n; f++ {
		var path []conditions.LinkID
		for l := rng.Intn(links); l < links; l++ {
			path = append(path, conditions.LinkID(l))
		}
		in.Flows = append(in.Flows, conditions.Flow{Weight: 0.5 + rng.Float64()*2, Demand: 100 + rng.Float64()*700, Path: path})
	}
	window := func(start, width int, capacity float64) conditions.CliqueSpec {
		c := conditions.CliqueSpec{Capacity: capacity}
		for l := start; l < start+width; l++ {
			c.Links = append(c.Links, conditions.LinkID(l))
		}
		return c
	}
	for q, n := 0, 1+rng.Intn(3); q < n; q++ {
		start := rng.Intn(links)
		in.Cliques = append(in.Cliques, window(start, 1+rng.Intn(links-start), 200+rng.Float64()*800))
	}
	in.Cliques = append(in.Cliques, window(0, links, 300+rng.Float64()*900))
	return in
}

// waterfill solves the instance's weighted maxmin allocation.
func waterfill(t *testing.T, in *conditions.Instance) []float64 {
	t.Helper()
	p := &maxminref.Problem{}
	for _, f := range in.Flows {
		p.Weights = append(p.Weights, f.Weight)
		p.Demands = append(p.Demands, f.Demand)
	}
	for _, c := range in.Cliques {
		row := make([]float64, len(in.Flows))
		for f, flow := range in.Flows {
			for _, l := range flow.Path {
				for _, m := range c.Links {
					if l == m {
						row[f]++
					}
				}
			}
		}
		p.Usage = append(p.Usage, row)
		p.Capacities = append(p.Capacities, c.Capacity)
	}
	rates, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return rates
}

// fluidVNode is the virtual node of tree link l in a fluid steady state,
// as the shared rule sees it: its upstream links are the path
// predecessors of the flows crossing l, its local flows those whose path
// starts at l, and a flow is limited when it runs below its demand.
func fluidVNode(in *conditions.Instance, a *conditions.Analysis, r []float64, l conditions.LinkID) ([]upLink, []localFlow) {
	mu := func(f int) float64 { return r[f] / in.Flows[f].Weight }
	var ups []upLink
	seen := map[conditions.LinkID]bool{}
	for _, flow := range in.Flows {
		for i := 1; i < len(flow.Path); i++ {
			up := flow.Path[i-1]
			if flow.Path[i] != l || seen[up] {
				continue
			}
			seen[up] = true
			u := upLink{
				link:      topology.Link{From: topology.NodeID(up), To: topology.NodeID(l)},
				mu:        a.Mu[up],
				bufferSat: a.State[up] == conditions.BufferSaturated,
				primaries: map[packet.FlowID]topology.NodeID{},
			}
			for g, other := range in.Flows {
				for _, m := range other.Path {
					if m == up && mu(g) == a.Mu[up] {
						u.primaries[packet.FlowID(g)] = topology.NodeID(other.Path[0])
					}
				}
			}
			ups = append(ups, u)
		}
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].link.From < ups[j].link.From })
	var locals []localFlow
	for f, flow := range in.Flows {
		if flow.Path[0] == l {
			locals = append(locals, localFlow{id: packet.FlowID(f), mu: mu(f), limited: a.Constrained[f]})
		}
	}
	return ups, locals
}

// saturatedVNodes lists the tree links whose virtual node is saturated
// in the fluid steady state.
func saturatedVNodes(a *conditions.Analysis) []conditions.LinkID {
	var out []conditions.LinkID
	for l, st := range a.State {
		if st == conditions.BufferSaturated || st == conditions.BandwidthSaturated {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSourceAndBufferRuleAgreesWithFluidOracle checks the shared rule
// against the independent fluid-model oracle of internal/conditions, on
// random chain instances: the water-filling (maxmin) allocation, and
// perturbations of it in which one constrained flow is held to half its
// maxmin rate while the others fill the freed capacity. At every
// saturated virtual node the rule must request nothing exactly when the
// oracle finds the source/buffer-saturated condition satisfied, and must
// ask the L1 holders down and the S1 holders up when it does not. The
// theorem is one-directional, so a few maxmin allocations are flagged
// too (see conditions.TestTheoremIsOneDirectional).
func TestSourceAndBufferRuleAgreesWithFluidOracle(t *testing.T) {
	params := DefaultParams()
	r := newRules(params)
	var held, flagged int
	check := func(seed int64, in *conditions.Instance, rates []float64) {
		a, err := in.Analyze(rates)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		violations, err := in.Check(rates, params.Beta)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		violated := map[conditions.LinkID]bool{}
		for _, v := range violations {
			var l conditions.LinkID
			if v.Condition != "source/buffer-saturated" {
				continue
			}
			if _, err := fmt.Sscanf(v.Detail, "vnode of link %d:", &l); err != nil {
				t.Fatalf("unparsable violation %q: %v", v.Detail, err)
			}
			violated[l] = true
		}
		for _, l := range saturatedVNodes(a) {
			ups, locals := fluidVNode(in, a, rates, l)
			got := make(collect)
			r.sourceAndBuffer(0, ups, locals, got.add, nil)
			where := fmt.Sprintf("seed %d, rates %v, vnode of link %d", seed, rates, l)
			if !violated[l] {
				held++
				if len(got) > 0 {
					t.Errorf("%s: condition holds, yet requests %v", where, got)
				}
				continue
			}
			flagged++
			checkHolders(t, where, ups, locals, got)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		in := fluidChain(rand.New(rand.NewSource(seed)))
		rates := waterfill(t, in)
		check(seed, in, rates)
		for victim := range in.Flows {
			if rates[victim] >= in.Flows[victim].Demand-1 {
				continue // demand-satisfied: no maxmin share to withhold
			}
			capped := *in
			capped.Flows = append([]conditions.Flow(nil), in.Flows...)
			capped.Flows[victim].Demand = rates[victim] / 2
			check(seed, in, waterfill(t, &capped))
		}
	}
	if held < 100 || flagged < 100 {
		t.Fatalf("too few virtual nodes exercised: %d satisfied, %d violated", held, flagged)
	}
	t.Logf("%d satisfied and %d violated virtual nodes checked", held, flagged)
}

// checkHolders asserts that the flows holding the largest normalized
// rate L1 were asked down and those holding the smallest S1 (limited
// local flows, primaries of buffer-saturated upstream links) were asked
// up.
func checkHolders(t *testing.T, where string, ups []upLink, locals []localFlow, got collect) {
	t.Helper()
	l1, s1 := 0.0, -1.0
	for _, u := range ups {
		l1 = max(l1, u.mu)
		if u.bufferSat && (s1 < 0 || u.mu < s1) {
			s1 = u.mu
		}
	}
	for _, lf := range locals {
		l1 = max(l1, lf.mu)
		if s1 < 0 || lf.mu < s1 {
			s1 = lf.mu
		}
	}
	asked := func(f packet.FlowID, reduce bool) bool {
		for _, req := range got[f] {
			if req.Reduce == reduce {
				return true
			}
		}
		return false
	}
	for _, u := range ups {
		for f := range u.primaries {
			if u.mu == l1 && !asked(f, true) {
				t.Errorf("%s: L1 holder %d (upstream) not asked down: %v", where, f, got)
			}
			if u.bufferSat && u.mu == s1 && !asked(f, false) {
				t.Errorf("%s: S1 holder %d (upstream) not asked up: %v", where, f, got)
			}
		}
	}
	for _, lf := range locals {
		if lf.mu == l1 && !asked(lf.id, true) {
			t.Errorf("%s: L1 holder %d (local) not asked down: %v", where, lf.id, got)
		}
		if lf.limited && lf.mu == s1 && !asked(lf.id, false) {
			t.Errorf("%s: S1 holder %d (local) not asked up: %v", where, lf.id, got)
		}
	}
}

// Package core implements GMP, the paper's primary contribution: the
// Global Maxmin Protocol (§6). Time is divided into alternating
// measurement and adjustment periods. At the end of each measurement
// period links are classified from the collected measurements (§3.2)
// and the four local conditions (§5.3) are tested:
//
//  1. Source condition — at a saturated virtual node that hosts flow
//     sources, no upstream link or co-located flow may exceed the local
//     flows' normalized rates.
//  2. Buffer-saturated condition — a buffer-saturated virtual link must
//     carry the largest normalized rate into its downstream virtual node.
//  3. Bandwidth-saturated condition — a bandwidth-saturated virtual link
//     must have the largest normalized rate in at least one saturated
//     clique it belongs to.
//  4. Rate-limit condition — sources not asked to adjust probe upward
//     (additive increase), and limits that are not binding are removed.
//
// Violations generate rate adjustment requests for the primary flows of
// the offending links; requests are aggregated per flow with the paper's
// control-packet rule (any reduction overrides all increases; the largest
// reduction / smallest increase wins) and applied at the end of the
// following adjustment period.
//
// One rule set, two runtimes. rules.go holds the rules: β-equality, the
// source/buffer-saturated test at one saturated virtual node,
// saturated-clique selection, request routing with condition
// recording, the binding-limit test and the rate-limit step. Each
// runtime gathers its own view, feeds the rules plain values and routes
// the resulting requests its own way:
//
//   - Engine (ProtocolGMP) evaluates one network-wide snapshot per
//     period and aggregates every request centrally;
//   - Agent (distributed.go, ProtocolGMPDistributed) is §6's per-node
//     runtime: local meters plus disseminated two-hop state, with each
//     request walked to the agent at the flow's source.
//
// The runtimes keep the rules on which they deliberately differ:
//
//   - when a link tops its clique: the engine requires worst ≥ max or
//     β-equality; an agent accepts worst ≥ max·(1−2β), because its
//     view of remote links is one dissemination round stale;
//   - the response to a bandwidth violation: the engine reduces and
//     increases directly over the saturated cliques; an agent floods
//     the violation and every receiver applies its own rule;
//   - the idle test for removing a limit: the engine requires the
//     source queue's Ω below 0.05, an agent that the queue is not
//     saturated;
//   - call order: an agent tests binding-limit pressure before closing
//     its sources' period, so it reads the previous period's rate; the
//     engine tests it after;
//   - only the engine marks overloaded cliques, for the admission
//     watchdog.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gmp/internal/clique"
	"gmp/internal/flow"
	"gmp/internal/measure"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// Params are GMP's protocol constants (§6, §7).
type Params struct {
	// Period is the length of one measurement or adjustment period
	// (4 s in §7).
	Period time.Duration
	// Beta is the equality tolerance: values within Beta (fractionally)
	// are "equal", and adjustments step by Beta (10% in §7).
	Beta float64
	// OmegaThreshold is the buffer-saturation threshold (25% in §6.2).
	OmegaThreshold float64
	// AdditiveIncrease is the rate-limit probe step in packets/second
	// (§6.3 "a small amount").
	AdditiveIncrease float64
	// HalveGap is the L1/S1 ratio beyond which requests halve or double
	// rates instead of stepping by Beta (3 in §6.3).
	HalveGap float64
}

// DefaultParams mirrors the paper's simulation setup.
func DefaultParams() Params {
	return Params{
		Period:           4 * time.Second,
		Beta:             0.10,
		OmegaThreshold:   measure.DefaultOmegaThreshold,
		AdditiveIncrease: 4,
		HalveGap:         3,
	}
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("core: non-positive period %v", p.Period)
	}
	if p.Beta <= 0 || p.Beta >= 1 {
		return fmt.Errorf("core: beta %v outside (0,1)", p.Beta)
	}
	if p.OmegaThreshold <= 0 || p.OmegaThreshold >= 1 {
		return fmt.Errorf("core: omega threshold %v outside (0,1)", p.OmegaThreshold)
	}
	if p.AdditiveIncrease <= 0 {
		return fmt.Errorf("core: non-positive additive increase %v", p.AdditiveIncrease)
	}
	if p.HalveGap <= 1 {
		return fmt.Errorf("core: halve gap %v must exceed 1", p.HalveGap)
	}
	return nil
}

// Request is one aggregated rate adjustment for a flow (§6.3). Factor
// multiplies the flow's current rate: 0.5 and 2 for the halve/double fast
// path, 1±Beta otherwise.
type Request struct {
	Reduce bool
	Factor float64
}

// Round records one adjustment round for convergence traces.
type Round struct {
	Time time.Duration
	// Rates are the flows' injection rates over the period just ended.
	Rates []float64
	// Limits are the flows' rate limits after applying requests
	// (math.Inf(1) when unlimited).
	Limits []float64
	// Requests counts flows that received an adjustment request.
	Requests int
	// SaturatedVNodes counts buffer-saturated virtual nodes observed.
	SaturatedVNodes int
	// DownNodes lists the nodes crashed by fault injection at the moment
	// the round closed (nil in fault-free runs).
	DownNodes []topology.NodeID
}

// Engine drives GMP centrally over a running simulation.
type Engine struct {
	rules
	sched     *sim.Scheduler
	topo      *topology.Topology
	cliques   *clique.Set
	registry  *flow.Registry
	collector *measure.Collector

	pending reqSet
	lastSat int

	// faultProbe, when set, reports the currently crashed nodes so each
	// trace Round records the fault state it was measured under.
	faultProbe func() []topology.NodeID

	// overloadNotifier, when set, receives after every round the cliques
	// whose §5.3 reduce-conditions fired (sorted, deduplicated; empty
	// slice on calm rounds so streak-based consumers can reset). The
	// admission watchdog sheds flows from persistently overloaded
	// cliques through it.
	overloadNotifier func([]clique.ID)
	overloaded       map[clique.ID]bool

	trace []Round
}

// NewEngine wires the protocol over the simulation components. Flows must
// use per-destination queueing (forwarding.PerDestination); the engine's
// virtual-node bookkeeping assumes QueueID == destination.
func NewEngine(sched *sim.Scheduler, topo *topology.Topology, cliques *clique.Set, registry *flow.Registry, collector *measure.Collector, params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		rules:     newRules(params),
		sched:     sched,
		topo:      topo,
		cliques:   cliques,
		registry:  registry,
		collector: collector,
	}, nil
}

// Start schedules the alternating period boundaries.
func (e *Engine) Start() {
	e.sched.After(e.params.Period, e.onBoundary)
}

// Trace returns the recorded adjustment rounds.
func (e *Engine) Trace() []Round { return e.trace }

// SetCliques replaces the clique decomposition the engine consults when
// testing the bandwidth-saturated condition. Called on mobility epochs
// after the incremental clique update; takes effect from the next round.
func (e *Engine) SetCliques(s *clique.Set) { e.cliques = s }

// SetFaultProbe installs a callback reporting the currently crashed
// nodes (fault injection); each recorded Round carries its result.
func (e *Engine) SetFaultProbe(fn func() []topology.NodeID) { e.faultProbe = fn }

// SetProbe installs the run's observers (nil disables, the default).
// They only observe condition outcomes and limit changes; they never
// alter the requests themselves.
func (e *Engine) SetProbe(p *obs.Probe) { e.probe = p }

// SetOverloadNotifier installs the per-round overload callback (nil
// disables). It observes which cliques generated reduce requests; it
// cannot alter the requests.
func (e *Engine) SetOverloadNotifier(fn func([]clique.ID)) { e.overloadNotifier = fn }

// OnFlowDeparted drops the engine's per-flow adjustment state when a
// flow leaves mid-run (churn): its pending request and slack streak
// must not outlive it — flow IDs are never reused, but the maps would
// otherwise grow without bound under sustained churn.
func (e *Engine) OnFlowDeparted(f packet.FlowID) {
	delete(e.slack, f)
	delete(e.pending, f)
}

// markOverloaded notes a clique as having generated a reduce this round.
func (e *Engine) markOverloaded(id clique.ID) {
	if e.overloaded == nil {
		e.overloaded = make(map[clique.ID]bool)
	}
	e.overloaded[id] = true
}

func (e *Engine) onBoundary() {
	rates := make([]float64, e.registry.NumFlows())
	for i, src := range e.registry.Sources() {
		rates[i] = src.EndPeriod()
	}
	snap := e.collector.Collect(e.params.Period)

	// Requests evaluated from the previous period's measurements are
	// delivered now (the paper's adjustment period), then this period's
	// measurements are evaluated for the next round. Periods therefore
	// alternate roles exactly as in §6.1, pipelined so that every
	// boundary closes one measurement period and one adjustment period.
	e.apply(e.pending, rates, snap)
	e.pending = e.evaluate(snap)
	e.lastSat = len(snap.Saturated)
	if e.overloadNotifier != nil {
		ids := make([]clique.ID, 0, len(e.overloaded))
		for id := range e.overloaded {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].Owner != ids[j].Owner {
				return ids[i].Owner < ids[j].Owner
			}
			return ids[i].Seq < ids[j].Seq
		})
		e.overloadNotifier(ids)
	}
	e.sched.After(e.params.Period, e.onBoundary)
}

// evaluate tests conditions 1–3 on the snapshot and returns the
// aggregated per-flow requests.
func (e *Engine) evaluate(snap *measure.Snapshot) reqSet {
	e.augmentWithLimitPressure(snap)
	e.overloaded = nil
	reqs := make(reqSet)
	e.testSourceAndBufferConditions(snap, reqs)
	e.testBandwidthCondition(snap, reqs)
	return reqs
}

// augmentWithLimitPressure marks the source virtual node of every flow
// running against a binding rate limit saturated (see bindingLimit) and
// re-derives the link types by §3.2's rules.
func (e *Engine) augmentWithLimitPressure(snap *measure.Snapshot) {
	changed := false
	for _, src := range e.registry.Sources() {
		if !e.bindingLimit(src) {
			continue
		}
		spec := src.Spec()
		v := measure.VNodeID{Node: spec.Src, Queue: packet.QueueForDest(spec.Dst)}
		if !snap.Saturated[v] {
			snap.Saturated[v] = true
			changed = true
		}
	}
	if !changed {
		return
	}
	for _, st := range snap.VLinks {
		st.Type = measure.Classify(st.Key, snap.VNodeSaturated)
	}
}

// testSourceAndBufferConditions applies the source/buffer-saturated
// rule at every saturated virtual node of the snapshot. Its local flows
// are the flows with source v.Node destined to the node v.Queue
// identifies.
func (e *Engine) testSourceAndBufferConditions(snap *measure.Snapshot, reqs reqSet) {
	var reduced func(topology.Link)
	if e.overloadNotifier != nil {
		reduced = func(l topology.Link) {
			for _, c := range e.cliques.Of(l) {
				e.markOverloaded(c.ID)
			}
		}
	}
	for v := range snap.Saturated {
		var ups []upLink
		for _, st := range snap.Upstream(v) {
			ups = append(ups, upLink{
				link:      topology.Link{From: st.Key.From, To: st.Key.To},
				mu:        st.NormRate,
				bufferSat: st.Type == measure.BufferSaturated,
				primaries: st.Primaries,
			})
		}
		var locals []localFlow
		for _, spec := range e.registry.Specs() {
			if spec.Src == v.Node && packet.QueueForDest(spec.Dst) == v.Queue {
				src := e.registry.Source(spec.ID)
				_, limited := src.Limited()
				locals = append(locals, localFlow{id: spec.ID, mu: src.NormRate(), limited: limited})
			}
		}
		e.sourceAndBuffer(v.Node, ups, locals, reqs.add, reduced)
	}
}

// testBandwidthCondition enforces §5.3's bandwidth-saturated condition on
// every wireless link carrying at least one bandwidth-saturated virtual
// link: that link's most penalized virtual link must carry the largest
// normalized rate in at least one saturated clique, otherwise the clique's
// top flows are asked down and the penalized link's primaries up.
func (e *Engine) testBandwidthCondition(snap *measure.Snapshot, reqs reqSet) {
	// Group virtual links by directed wireless link.
	byWLink := make(map[topology.Link][]*measure.VLinkState)
	for key, st := range snap.VLinks {
		wl := topology.Link{From: key.From, To: key.To}
		byWLink[wl] = append(byWLink[wl], st)
	}

	for wl, vlinks := range byWLink {
		// The bandwidth-saturated virtual link with the smallest
		// normalized rate is the one the condition protects.
		var worst *measure.VLinkState
		for _, st := range vlinks {
			if st.Type != measure.BandwidthSaturated || st.NormRate == 0 {
				continue
			}
			if worst == nil || st.NormRate < worst.NormRate {
				worst = st
			}
		}
		if worst == nil {
			continue
		}

		saturated, occ, maxOcc := e.saturatedCliques(e.cliques.Of(wl), snap.UndirectedOccupancy)

		// Satisfied if worst's rate tops at least one saturated clique.
		topped := false
		l2 := 0.0
		for _, c := range saturated {
			cliqueMax := 0.0
			for _, l := range c.Links {
				if nr := snap.UndirectedNormRate(l); nr > cliqueMax {
					cliqueMax = nr
				}
			}
			if cliqueMax > l2 {
				l2 = cliqueMax
			}
			if worst.NormRate >= cliqueMax || e.eq(worst.NormRate, cliqueMax) {
				topped = true
				break
			}
		}
		if topped || l2 == 0 {
			continue
		}

		// Violation: ask the top flows of the saturated cliques down by β
		// and the penalized link's peers up by β (§6.3).
		if e.overloadNotifier != nil {
			for _, c := range saturated {
				e.markOverloaded(c.ID)
			}
		}
		down := Request{Reduce: true, Factor: 1 - e.params.Beta}
		up := Request{Factor: 1 + e.params.Beta}
		seen := make(map[topology.Link]bool)
		for _, c := range saturated {
			prov := provenance{clique: c.ID.String(), occ: occ, maxOcc: maxOcc}
			for _, l := range c.Links {
				for _, dir := range []topology.Link{l, l.Reverse()} {
					if seen[dir] {
						continue
					}
					seen[dir] = true
					for _, kv := range byWLink[dir] {
						if e.eq(kv.NormRate, l2) && kv.NormRate > 0 {
							e.ask(reqs.add, kv.Primaries, kv.Key.From, obs.CondBandwidth, down, prov)
						}
						if kv.Type == measure.BandwidthSaturated && e.eq(kv.NormRate, worst.NormRate) {
							e.ask(reqs.add, kv.Primaries, kv.Key.From, obs.CondBandwidth, up, prov)
						}
					}
				}
			}
		}
	}
}

// apply runs the rate-limit step (§6.3) on every flow with the
// requests aggregated last round. A limit counts as "not binding" only
// while the flow's source queue is idle: a backpressured source running
// below its limit is congested, not undemanding, and removing its limit
// would let it burst past its peers the moment congestion eases.
func (e *Engine) apply(reqs reqSet, rates []float64, snap *measure.Snapshot) {
	limits := make([]float64, e.registry.NumFlows())
	for i, src := range e.registry.Sources() {
		// Idle means the source queue is essentially never full. A queue
		// full even a modest fraction of the time (below the Ω
		// classification threshold) already throttles the source below
		// its limit, which must not be mistaken for low demand.
		const idleOmega = 0.05
		spec := src.Spec()
		idle := snap.Omega[measure.VNodeID{Node: spec.Src, Queue: packet.QueueForDest(spec.Dst)}] < idleOmega
		e.stepLimit(src, reqs, rates[i], idle)
		limits[i] = math.Inf(1)
		if l, ok := src.Limited(); ok && !src.Stopped() {
			limits[i] = l
		}
	}
	round := Round{
		Time:            e.sched.Now(),
		Rates:           rates,
		Limits:          limits,
		Requests:        len(reqs),
		SaturatedVNodes: e.lastSat,
	}
	if e.faultProbe != nil {
		round.DownNodes = e.faultProbe()
	}
	e.trace = append(e.trace, round)
}

package core

import (
	"math"
	"sort"

	"gmp/internal/clique"
	"gmp/internal/flow"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// rules is the §5.3/§6.3 rule set both runtimes apply. Engine and Agent
// each embed one and feed it plain values gathered from their own view:
// the engine's network-wide snapshot, or an agent's local meters plus
// disseminated state. Requests leave through the add function the
// caller passes in: the engine aggregates them into its next round, an
// agent walks them to the agent at the flow's source.
type rules struct {
	params Params
	// slack counts consecutive rounds a flow ran under its limit with an
	// idle source; the limit is removed only after two, so a single
	// noisy period cannot unleash a burst.
	slack map[packet.FlowID]int
	// probe reaches the run's observers (nil when all are off).
	// Telemetry records which local condition generated each adjustment
	// request and every applied limit change; spans receive the same
	// events with decision provenance attached.
	probe *obs.Probe
}

func newRules(params Params) rules {
	return rules{params: params, slack: make(map[packet.FlowID]int)}
}

// eq reports β-equality (§6.3): a and b differ by less than Beta of the
// larger magnitude.
func (r *rules) eq(a, b float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= r.params.Beta*m
}

// reqSet aggregates requests per flow with §6.3's control-packet rule.
type reqSet map[packet.FlowID]Request

// add merges req into f's request: any reduction overrides all
// increases, the largest reduction and the smallest increase win.
func (s reqSet) add(f packet.FlowID, req Request) {
	if cur, ok := s[f]; ok && (cur.Reduce && !req.Reduce || cur.Reduce == req.Reduce && cur.Factor <= req.Factor) {
		return
	}
	s[f] = req
}

// provenance is the bandwidth condition's evidence for the span
// recorder: the saturated clique and, from the engine, the channel
// occupancy of every clique owning the link and their maximum.
type provenance struct {
	clique string
	occ    []float64
	maxOcc float64
}

// ask hands req to every flow in flows through add and records that
// condition cond at node generated it — in flow-ID order when recording,
// so neither stream inherits map iteration order.
func (r *rules) ask(add func(packet.FlowID, Request), flows map[packet.FlowID]topology.NodeID, node topology.NodeID, cond obs.Condition, req Request, prov provenance) {
	if r.probe == nil {
		for f := range flows {
			add(f, req)
		}
		return
	}
	ids := make([]packet.FlowID, 0, len(flows))
	for f := range flows {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, f := range ids {
		r.askOne(add, f, node, cond, req, prov)
	}
}

// askOne is ask for a single flow.
func (r *rules) askOne(add func(packet.FlowID, Request), f packet.FlowID, node topology.NodeID, cond obs.Condition, req Request, prov provenance) {
	if r.probe != nil {
		r.probe.Tel.Condition(f, node, cond, req.Reduce, req.Factor)
		r.probe.Spans.Condition(f, node, cond.String(), req.Reduce, req.Factor, prov.clique, prov.occ, prov.maxOcc)
	}
	add(f, req)
}

// upLink is an upstream virtual link of a saturated virtual node: the
// wireless link it crosses, its normalized rate μ, whether it is
// buffer-saturated, and its primary flows.
type upLink struct {
	link      topology.Link
	mu        float64
	bufferSat bool
	primaries map[packet.FlowID]topology.NodeID
}

// localFlow is a flow whose source feeds the saturated virtual node
// directly: its normalized rate μ (0 before its first completed period)
// and whether it runs under a rate limit.
type localFlow struct {
	id      packet.FlowID
	mu      float64
	limited bool
}

// sourceAndBuffer enforces §5.3's source and buffer-saturated conditions
// at one saturated virtual node of node: the largest normalized rate L1
// feeding it must equal the smallest S1 among its local flows and
// buffer-saturated upstream links. Otherwise the L1 holders are asked
// down and the S1 holders up, by β, or halved and doubled when L1
// exceeds HalveGap·S1. reduced, when non-nil, hears of every upstream
// link whose primaries were asked down.
func (r *rules) sourceAndBuffer(node topology.NodeID, ups []upLink, locals []localFlow, add func(packet.FlowID, Request), reduced func(topology.Link)) {
	l1, s1 := 0.0, math.Inf(1)
	for _, u := range ups {
		if u.mu > l1 {
			l1 = u.mu
		}
		if u.bufferSat && u.mu > 0 && u.mu < s1 {
			s1 = u.mu
		}
	}
	for _, lf := range locals {
		if lf.mu == 0 {
			continue // no completed measurement period yet
		}
		if lf.mu > l1 {
			l1 = lf.mu
		}
		if lf.mu < s1 {
			s1 = lf.mu
		}
	}
	if math.IsInf(s1, 1) || l1 == 0 || r.eq(s1, l1) {
		return // nothing to equalize, or already equal
	}
	down, up := 1-r.params.Beta, 1+r.params.Beta
	if l1 > r.params.HalveGap*s1 {
		down, up = 0.5, 2
	}
	// Telemetry attribution: a saturated virtual node hosting flow
	// sources enforces the source condition; a pure relay enforces the
	// buffer-saturated condition.
	cond := obs.CondBuffer
	if len(locals) > 0 {
		cond = obs.CondSource
	}
	for _, u := range ups {
		if r.eq(u.mu, l1) {
			r.ask(add, u.primaries, node, cond, Request{Reduce: true, Factor: down}, provenance{})
			if reduced != nil && len(u.primaries) > 0 {
				reduced(u.link)
			}
		}
		if u.bufferSat && r.eq(u.mu, s1) {
			r.ask(add, u.primaries, node, cond, Request{Factor: up}, provenance{})
		}
	}
	for _, lf := range locals {
		if lf.mu == 0 {
			continue
		}
		if r.eq(lf.mu, l1) {
			r.askOne(add, lf.id, node, cond, Request{Reduce: true, Factor: down}, provenance{})
		}
		if lf.limited && r.eq(lf.mu, s1) {
			r.askOne(add, lf.id, node, cond, Request{Factor: up}, provenance{})
		}
	}
}

// saturatedCliques picks the saturated cliques among a link's owners:
// those whose channel occupancy, the sum of occupancy over their links,
// is β-equal to the largest (§6.3). It also returns every owner's
// occupancy and the maximum, the provenance of a bandwidth decision.
func (r *rules) saturatedCliques(owners []*clique.Clique, occupancy func(topology.Link) float64) (sat []*clique.Clique, occ []float64, maxOcc float64) {
	occ = make([]float64, len(owners))
	for i, c := range owners {
		for _, l := range c.Links {
			occ[i] += occupancy(l)
		}
		if occ[i] > maxOcc {
			maxOcc = occ[i]
		}
	}
	for i, c := range owners {
		if r.eq(occ[i], maxOcc) {
			sat = append(sat, c)
		}
	}
	return sat, occ, maxOcc
}

// bindingLimit reports whether src ran against its rate limit over the
// last period. In the paper the rate limit paces the *release* of
// packets, so a constrained source's buffer stays full (§2.2) and its
// links classify as saturated; our limiter paces generation instead, so
// both runtimes mark the source's virtual node saturated themselves.
// Without that, limited flows would drop out of the bandwidth-saturated
// condition's rebalancing for good.
func (r *rules) bindingLimit(src *flow.Source) bool {
	limit, limited := src.Limited()
	return limited && src.LastPeriodRate() >= limit*(1-r.params.Beta)
}

// stepLimit runs §6.3's rate-limit step on one flow's source at the end
// of an adjustment period and records any change. The flow's aggregated
// request in reqs scales its limit: a reduction from the tighter of its
// rate over the period and its limit, an increase from the limit (an
// unlimited flow has nothing to raise). Without a request a limited
// flow probes upward additively, unless it ran below its limit while
// its runtime judged the source idle; two such rounds in a row remove
// the limit.
func (r *rules) stepLimit(src *flow.Source, reqs reqSet, rate float64, idle bool) {
	spec := src.Spec()
	f := spec.ID
	if src.Stopped() {
		// A departed churn flow's final partial period can still show a
		// nonzero rate crossing a saturated clique; a limit installed on
		// it would persist forever (the stale-limit bug).
		delete(r.slack, f)
		return
	}
	req, has := reqs[f]
	limit, limited := src.Limited()
	// before/action feed the telemetry limit timeline; -1 encodes "no
	// limit" (JSON-encodable, unlike +Inf).
	before := -1.0
	if limited {
		before = limit
	}
	var action obs.LimitAction
	switch {
	case has && req.Reduce:
		base := rate
		if limited && limit < base {
			base = limit
		}
		src.SetLimit(base * req.Factor)
		action = obs.ActionReduce
	case has && !req.Reduce:
		if limited {
			src.SetLimit(limit * req.Factor)
			action = obs.ActionIncrease
		}
	case limited:
		if rate < limit*(1-r.params.Beta) && idle {
			r.slack[f]++
			if r.slack[f] >= 2 {
				// The limit is persistently not binding: remove it.
				src.RemoveLimit()
				r.slack[f] = 0
				action = obs.ActionRemove
			}
		} else {
			r.slack[f] = 0
			src.SetLimit(limit + r.params.AdditiveIncrease)
			action = obs.ActionProbe
		}
	}
	if action == "" {
		return
	}
	after := -1.0
	if l, ok := src.Limited(); ok {
		after = l
	}
	if r.probe == nil {
		return
	}
	r.probe.Tel.LimitChange(f, action, before, after)
	if action == obs.ActionProbe || action == obs.ActionRemove {
		// The rate-limit condition (§5.3 c4): a source with a
		// non-binding limit probes upward or sheds the limit.
		factor := 0.0
		if action == obs.ActionProbe && before > 0 && after > 0 {
			factor = after / before
		}
		r.probe.Tel.Condition(f, spec.Src, obs.CondRateLimit, false, factor)
	}
	r.probe.Spans.LimitChange(f, spec.Src, string(action), before, after)
}

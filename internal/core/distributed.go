// Distributed runtime: the second runtime of the §5.3 rule set in
// rules.go, beside the central Engine (see the package comment for the
// rules the two keep apart on purpose). It executes the
// conditions the way §6 describes — one Agent per node, acting only on
// information a real node has:
//
//   - its own queues' buffer-full fractions Ω and its local flow sources;
//   - sender- and receiver-side virtual-link meters learned from the
//     packets themselves (rates, normalized rates, primary-flow sources);
//   - neighbors' per-queue saturation bits and two-hop link state
//     (normalized rate and channel occupancy per wireless link) received
//     through the in-band dissemination protocol of §6.2 step 2 —
//     broadcasts plus dominating-set relays that consume real airtime
//     and can be lost to collisions;
//   - bandwidth-saturated-condition violations flooded two hops (§6.3)
//     as further in-band broadcasts.
//
// Only two simplifications remain relative to a deployment: the
// end-of-period control packet that carries a flow's aggregated rate
// adjustment request along its route is delivered instantly and without
// airtime (DESIGN.md substitution 3), and channel occupancy is sampled
// from a shared board that agents read only for their adjacent links
// (a real node measures those locally).

package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gmp/internal/clique"
	"gmp/internal/dissemination"
	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/measure"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// linkStateRecord is one disseminated wireless-link state (§6.2: "the
// normalized rate and the channel occupancy of a wireless link").
type linkStateRecord struct {
	Link      topology.Link
	Occupancy float64
	Mu        float64
}

// vnodeRecord carries one virtual node's period-level buffer state
// (the "saturated or not" bit of §6.2).
type vnodeRecord struct {
	Queue     packet.QueueID
	Saturated bool
}

// stateRecords is an agent's per-period dissemination payload.
type stateRecords struct {
	Links  []linkStateRecord
	VNodes []vnodeRecord
}

// violationMsg floods a bandwidth-saturated-condition violation to the
// two-hop neighborhood (§6.3): nodes with links in the listed saturated
// cliques respond by adjusting their primary flows. The paper requires
// the information to reach two hops from *either* endpoint of the
// violating link, so the To endpoint re-floods first-hand copies.
type violationMsg struct {
	Link    topology.Link
	L2      float64
	MuStar  float64
	Cliques []clique.ID
	// Refloods counts how many endpoint re-floods this copy went
	// through (at most one, by the To endpoint).
	Refloods int
}

// Agent is one node's GMP instance in the distributed runtime.
type Agent struct {
	rules
	id    topology.NodeID
	sched *sim.Scheduler
	topo  *topology.Topology
	node  *forwarding.Node
	diss  *dissemination.Agent
	board *measure.OccupancyBoard

	// cliques is the decomposition the agent reads in place: the
	// cliques of each adjacent link (§6.3), which are also the cliques a
	// violation message's identifiers resolve to.
	cliques *clique.Set

	localFlows   []flow.Spec
	localSources []*flow.Source

	// deliver hands an aggregated rate adjustment request to a flow's
	// source agent (the end-of-period control packet walk).
	deliver func(f packet.FlowID, req Request)

	lsdb  map[topology.Link]linkStateRecord
	satdb map[measure.VNodeID]bool

	outMeters map[forwarding.VLinkKey]*forwarding.VLinkMeter
	inMeters  map[forwarding.VLinkKey]*forwarding.VLinkMeter
	saturated map[packet.QueueID]bool
	rates     map[packet.FlowID]float64

	pending reqSet

	violations int64 // bandwidth-condition violations originated (stats)
	vReceived  int64 // violation messages processed (stats)
}

// ViolationsReceived reports processed violation messages.
func (a *Agent) ViolationsReceived() int64 { return a.vReceived }

// Violations reports how many bandwidth-saturated-condition violations
// this agent originated.
func (a *Agent) Violations() int64 { return a.violations }

// NewAgent builds the GMP agent for one node of the distributed runtime.
func NewAgent(id topology.NodeID, sched *sim.Scheduler, topo *topology.Topology, cliques *clique.Set,
	node *forwarding.Node, diss *dissemination.Agent, board *measure.OccupancyBoard,
	params Params, deliver func(packet.FlowID, Request)) (*Agent, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("core: agent %d needs a request delivery path", id)
	}
	a := &Agent{
		rules:   newRules(params),
		id:      id,
		sched:   sched,
		topo:    topo,
		node:    node,
		diss:    diss,
		board:   board,
		cliques: cliques,
		deliver: deliver,
		lsdb:    make(map[topology.Link]linkStateRecord),
		satdb:   make(map[measure.VNodeID]bool),
		pending: make(reqSet),
		rates:   make(map[packet.FlowID]float64),
	}
	diss.SetUpdateHandler(a.onDissemination)
	// measure reads both ends of every virtual link at the node.
	node.RecordMeters(true)
	return a, nil
}

// AttachLocalFlow registers a flow originating at this node.
func (a *Agent) AttachLocalFlow(spec flow.Spec, src *flow.Source) {
	if spec.Src != a.id {
		panic(fmt.Sprintf("core: flow %d (src %d) attached to agent %d", spec.ID, spec.Src, a.id))
	}
	a.localFlows = append(a.localFlows, spec)
	a.localSources = append(a.localSources, src)
}

// Start schedules the agent's period boundaries; offset desynchronizes
// nodes ("loosely synchronized clocks", §6.1).
func (a *Agent) Start(offset time.Duration) {
	a.sched.After(a.params.Period+offset, a.onBoundary)
}

func (a *Agent) onBoundary() {
	a.measure()
	a.applyPending()
	a.broadcastState()
	a.evaluate()
	a.sched.After(a.params.Period, a.onBoundary)
}

// measure closes the local measurement period (§6.2 step 1).
func (a *Agent) measure() {
	a.outMeters = a.node.TakeMeters()
	a.inMeters = a.node.TakeReceived()
	a.saturated = make(map[packet.QueueID]bool)
	for _, qid := range a.node.Queues() {
		omega := a.node.FullFraction(qid, a.params.Period)
		if omega >= a.params.OmegaThreshold {
			a.saturated[qid] = true
		}
	}
	// Limit pressure: a binding rate limit keeps the paper's source
	// buffer full. The sources' period closes only below, so this reads
	// the previous period's rate; the order is observable (see the
	// package comment).
	for i, src := range a.localSources {
		if a.bindingLimit(src) {
			a.saturated[packet.QueueForDest(a.localFlows[i].Dst)] = true
		}
	}
	for i, src := range a.localSources {
		a.rates[a.localFlows[i].ID] = src.EndPeriod()
	}
}

// applyPending runs the rate-limit step (§6.3) on the local sources with
// the requests delivered since the last boundary. A source counts as
// idle while its queue is not saturated: neither measured full for Ω
// of the period nor held full by a binding limit.
func (a *Agent) applyPending() {
	for i, src := range a.localSources {
		f := a.localFlows[i]
		a.stepLimit(src, a.pending, a.rates[f.ID], !a.saturated[packet.QueueForDest(f.Dst)])
	}
	a.pending = make(reqSet)
}

// broadcastState floods this node's measured link state and vnode bits
// to the two-hop neighborhood via the in-band dissemination layer. Both
// directions of every adjacent link are included (the sender direction
// from the node's own meters, the incoming direction from its
// receiver-side meters), which realizes the paper's requirement that a
// link's state reach every node within two hops of *either* endpoint —
// each endpoint's flood covers its own side.
func (a *Agent) broadcastState() {
	var recs stateRecords
	for _, nb := range a.topo.Neighbors(a.id) {
		out := topology.Link{From: a.id, To: nb}
		recs.Links = append(recs.Links, linkStateRecord{
			Link:      out,
			Occupancy: a.board.Fraction(out),
			Mu:        a.linkMu(out),
		})
		in := out.Reverse()
		recs.Links = append(recs.Links, linkStateRecord{
			Link:      in,
			Occupancy: a.board.Fraction(in),
			Mu:        a.inboundMu(in),
		})
	}
	for qid, sat := range a.saturated {
		recs.VNodes = append(recs.VNodes, vnodeRecord{Queue: qid, Saturated: sat})
	}
	a.diss.Broadcast(recs, len(recs.Links)+len(recs.VNodes))
}

// inboundMu is the largest normalized rate this node observed on an
// incoming wireless link (receiver-side meters, §6.2: both endpoints of
// a virtual link learn its normalized rate from the packets).
func (a *Agent) inboundMu(l topology.Link) float64 {
	mu := 0.0
	for key, m := range a.inMeters {
		if key.From == l.From && key.To == l.To && m.Primary.NormRate > mu {
			mu = m.Primary.NormRate
		}
	}
	return mu
}

// linkMu is the largest normalized rate among the virtual links this
// node sends on wireless link l (§4.2, measured from passing packets).
func (a *Agent) linkMu(l topology.Link) float64 {
	mu := 0.0
	for key, m := range a.outMeters {
		if key.From == l.From && key.To == l.To && m.Primary.NormRate > mu {
			mu = m.Primary.NormRate
		}
	}
	return mu
}

// onDissemination handles accepted broadcasts: link-state records update
// the local databases; violation floods trigger §6.3's response.
func (a *Agent) onDissemination(origin topology.NodeID, records any) {
	switch recs := records.(type) {
	case stateRecords:
		for _, r := range recs.Links {
			a.lsdb[r.Link] = r
		}
		for _, v := range recs.VNodes {
			a.satdb[measure.VNodeID{Node: origin, Queue: v.Queue}] = v.Saturated
		}
	case violationMsg:
		a.onViolation(recs)
	case int:
		// Plain overhead-measurement broadcasts (Run's InBandControl
		// without the distributed runtime) carry record counts only.
	default:
		panic(fmt.Sprintf("core: agent %d received unknown records %T", a.id, records))
	}
}

// vnodeSaturated resolves a virtual node's saturation bit: own queues
// from local measurement, neighbors' from the disseminated bits. The
// final destination consumes instantly and is never saturated.
func (a *Agent) vnodeSaturated(v measure.VNodeID) bool {
	if v.Node == a.id {
		return a.saturated[v.Queue]
	}
	if packet.QueueForDest(v.Node) == v.Queue {
		return false
	}
	return a.satdb[v]
}

// evaluate runs conditions 1-3 on this node's view (§6.3).
func (a *Agent) evaluate() {
	a.testSourceAndBuffer()
	a.testBandwidth()
}

// testSourceAndBuffer applies the source/buffer-saturated rule at every
// saturated virtual node owned by this node, using the receiver-side
// meters for upstream links.
func (a *Agent) testSourceAndBuffer() {
	for _, qid := range a.node.Queues() {
		if !a.saturated[qid] {
			continue
		}
		var ups []upLink
		for key, m := range a.inMeters {
			if key.Queue == qid && key.To == a.id {
				ups = append(ups, upLink{
					link:      topology.Link{From: key.From, To: key.To},
					mu:        m.Primary.NormRate,
					bufferSat: measure.Classify(key, a.vnodeSaturated) == measure.BufferSaturated,
					primaries: m.Primary.Flows,
				})
			}
		}
		var locals []localFlow
		for i, spec := range a.localFlows {
			if packet.QueueForDest(spec.Dst) == qid {
				_, limited := a.localSources[i].Limited()
				locals = append(locals, localFlow{id: spec.ID, mu: a.localSources[i].NormRate(), limited: limited})
			}
		}
		a.sourceAndBuffer(a.id, ups, locals, a.deliver, nil)
	}
}

// testBandwidth checks the bandwidth-saturated condition for every
// adjacent outgoing wireless link and floods a violation when found.
func (a *Agent) testBandwidth() {
	for _, nb := range a.topo.Neighbors(a.id) {
		wl := topology.Link{From: a.id, To: nb}
		var worstMu float64 = math.Inf(1)
		found := false
		for key, m := range a.outMeters {
			if key.From != wl.From || key.To != wl.To {
				continue
			}
			if measure.Classify(key, a.vnodeSaturated) != measure.BandwidthSaturated {
				continue
			}
			if mu := m.Primary.NormRate; mu > 0 && mu < worstMu {
				worstMu = mu
				found = true
			}
		}
		if !found {
			continue
		}
		saturated, _, _ := a.saturatedCliques(a.cliques.Of(wl), func(l topology.Link) float64 {
			return a.occupancyOf(l) + a.occupancyOf(l.Reverse())
		})
		// Toppedness is judged with a doubled tolerance: the remote
		// normalized rates in this view are a dissemination round stale,
		// and an originator that keeps crying wolf inside the noise band
		// feeds a see-saw of increases that blocks the joint ratchet
		// toward the condition's fixed point.
		topped := false
		l2 := 0.0
		for _, c := range saturated {
			cliqueMax := 0.0
			for _, l := range c.Links {
				if mu := a.muOf(l); mu > cliqueMax {
					cliqueMax = mu
				}
			}
			if cliqueMax > l2 {
				l2 = cliqueMax
			}
			if worstMu >= cliqueMax*(1-2*a.params.Beta) {
				topped = true
				break
			}
		}
		if topped || l2 == 0 {
			continue
		}
		ids := make([]clique.ID, len(saturated))
		for i, c := range saturated {
			ids[i] = c.ID
		}
		msg := violationMsg{Link: wl, L2: l2, MuStar: worstMu, Cliques: ids}
		a.violations++
		a.diss.Broadcast(msg, 2+len(ids))
		a.onViolation(msg) // the originator reacts too
	}
}

// occupancyOf reads a directed link's channel occupancy: locally for
// adjacent links, from the dissemination database otherwise.
func (a *Agent) occupancyOf(l topology.Link) float64 {
	if l.From == a.id || l.To == a.id {
		return a.board.Fraction(l)
	}
	return a.lsdb[l].Occupancy
}

// muOf reads a wireless link's normalized rate (max of both directions).
func (a *Agent) muOf(l topology.Link) float64 {
	best := 0.0
	for _, dir := range []topology.Link{l, l.Reverse()} {
		if dir.From == a.id {
			if mu := a.linkMu(dir); mu > best {
				best = mu
			}
		} else if rec, ok := a.lsdb[dir]; ok && rec.Mu > best {
			best = rec.Mu
		}
	}
	return best
}

// onViolation implements §6.3's response to a bandwidth-condition
// violation: every node with a wireless link in one of the saturated
// cliques adjusts the primary flows of its virtual links. The To
// endpoint of the violating link re-floods the message once so it
// reaches two hops from either endpoint.
func (a *Agent) onViolation(v violationMsg) {
	a.vReceived++
	if a.id == v.Link.To && v.Refloods == 0 {
		reflood := v
		reflood.Refloods = 1
		a.diss.Broadcast(reflood, 2+len(v.Cliques))
	}
	for _, id := range v.Cliques {
		c := a.adjacentClique(id)
		if c == nil {
			continue // clique outside this node's two-hop knowledge
		}
		// The originator's L2 is a dissemination round stale, so exact
		// matching against it misses moving targets. Each receiver
		// instead judges toppedness with its own freshest view of the
		// clique: reduce own primaries at (or within β of) the local
		// maximum, and raise own bandwidth-saturated links at or below
		// the starved rate μ*. Both rules are monotone toward the
		// bandwidth-saturated condition's fixed point.
		prov := provenance{clique: id.String()}
		localMax := 0.0
		for _, l := range c.Links {
			if mu := a.muOf(l); mu > localMax {
				localMax = mu
			}
		}
		if localMax == 0 {
			continue
		}
		for _, l := range c.Links {
			for _, dir := range []topology.Link{l, l.Reverse()} {
				if dir.From != a.id {
					continue
				}
				for key, m := range a.outMeters {
					if key.From != dir.From || key.To != dir.To {
						continue
					}
					mu := m.Primary.NormRate
					if mu > 0 && mu >= localMax*(1-a.params.Beta) && mu > v.MuStar*(1+a.params.Beta) {
						a.ask(a.deliver, m.Primary.Flows, a.id, obs.CondBandwidth, Request{Reduce: true, Factor: 1 - a.params.Beta}, prov)
					}
					if measure.Classify(key, a.vnodeSaturated) == measure.BandwidthSaturated && mu > 0 && mu <= v.MuStar*(1+a.params.Beta) {
						a.ask(a.deliver, m.Primary.Flows, a.id, obs.CondBandwidth, Request{Factor: 1 + a.params.Beta}, prov)
					}
				}
			}
		}
	}
}

// adjacentClique resolves a clique identifier among the cliques of this
// node's outgoing links, or returns nil.
func (a *Agent) adjacentClique(id clique.ID) *clique.Clique {
	for _, nb := range a.topo.Neighbors(a.id) {
		for _, c := range a.cliques.Of(topology.Link{From: a.id, To: nb}) {
			if c.ID == id {
				return c
			}
		}
	}
	return nil
}

// Distributed is the handle returned by StartDistributed.
type Distributed struct {
	Agents   []*Agent
	registry *flow.Registry
	trace    []Round

	// faultProbe, when set, reports the currently crashed nodes so each
	// trace Round records the fault state it was measured under.
	faultProbe func() []topology.NodeID
}

// Trace returns per-period flow rates recorded at the shared boundary
// ticks (for convergence inspection; limits are not tracked here because
// they live inside each agent).
func (d *Distributed) Trace() []Round { return d.trace }

// SetFaultProbe installs a callback reporting the currently crashed
// nodes (fault injection). Install it before the first boundary tick
// (i.e. right after StartDistributed returns, before sched.Run).
func (d *Distributed) SetFaultProbe(fn func() []topology.NodeID) { d.faultProbe = fn }

// SetProbe installs the run's observers on every agent (nil disables,
// the default). Install it before sched.Run, like SetFaultProbe.
func (d *Distributed) SetProbe(p *obs.Probe) {
	for _, a := range d.Agents {
		a.probe = p
	}
}

// OnFlowDeparted drops the per-flow adjustment state a departed churn
// flow left on its source's agent (pending request, slack streak), so
// long churn runs do not accumulate state for dead flows.
func (d *Distributed) OnFlowDeparted(f packet.FlowID) {
	a := d.Agents[d.registry.Specs()[f].Src]
	delete(a.slack, f)
	delete(a.pending, f)
}

// SetCliques hands every agent a new clique decomposition after a
// topology change under mobility.
func (d *Distributed) SetCliques(cliques *clique.Set) {
	for _, a := range d.Agents {
		a.cliques = cliques
	}
}

// StartDistributed builds and starts the full distributed runtime: a
// dissemination agent and a GMP agent per node, a shared occupancy board
// sampled at exact period boundaries, and the control-packet delivery
// path between agents. The mediumBoard must be constructed over the
// simulation's radio medium. Agents start with small random offsets
// ("loosely synchronized clocks", §6.1).
func StartDistributed(sched *sim.Scheduler, topo *topology.Topology, cliques *clique.Set,
	board *measure.OccupancyBoard, nodes []*forwarding.Node,
	dissAgents []*dissemination.Agent, registry *flow.Registry,
	params Params, rng *rand.Rand) (*Distributed, error) {

	d := &Distributed{Agents: make([]*Agent, topo.NumNodes()), registry: registry}
	deliver := func(f packet.FlowID, req Request) {
		// The control packet's walk ends at the source's agent, which
		// aggregates requests by §6.3's rule.
		d.Agents[registry.Specs()[f].Src].pending.add(f, req)
	}
	for _, id := range topo.Nodes() {
		agent, err := NewAgent(id, sched, topo, cliques, nodes[id], dissAgents[id], board, params, deliver)
		if err != nil {
			return nil, err
		}
		nodes[id].SetBroadcastHandler(dissAgents[id].OnBroadcast)
		d.Agents[id] = agent
	}
	for _, spec := range registry.Specs() {
		d.Agents[spec.Src].AttachLocalFlow(spec, registry.Source(spec.ID))
	}

	// The board samples at exact boundaries; agents follow within the
	// first tenth of the period so they read the fresh sample.
	var tick func()
	tick = func() {
		board.Sample()
		rates := make([]float64, registry.NumFlows())
		for i, src := range registry.Sources() {
			rates[i] = src.LastPeriodRate()
		}
		round := Round{Time: sched.Now(), Rates: rates}
		if d.faultProbe != nil {
			round.DownNodes = d.faultProbe()
		}
		d.trace = append(d.trace, round)
		sched.After(params.Period, tick)
	}
	sched.After(params.Period, tick)
	for _, agent := range d.Agents {
		offset := time.Millisecond + time.Duration(rng.Float64()*float64(params.Period)/10)
		agent.Start(offset)
	}
	return d, nil
}

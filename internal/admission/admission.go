// Package admission implements distributed admission control for flow
// arrivals under the 2-hop interference model, plus the overload
// watchdog that sheds flows when admission's static test proves too
// optimistic at runtime.
//
// The admission test is the per-clique sufficient condition of
// Ganesan's admission-control analysis (see PAPERS.md): under 2-hop
// interference every set of mutually contending links is covered by the
// contention cliques of internal/clique, and a set of flows is
// serveable at per-weight share s if, for every clique Q,
//
//	Σ_f  w(f) · crossings(f, Q) · s  ≤  headroom · capacity(Q)
//
// where crossings(f, Q) counts the flow's path links inside Q — the
// identical accounting internal/maxminref uses to build its capacity
// constraints. A flow's source can evaluate the test locally from the
// clique utilizations the dissemination layer already carries
// (DESIGN.md documents the centralized-oracle substitution used here,
// the same one the ProtocolGMP engine makes).
//
// The test is static: it guarantees the *booked* load fits, not that
// 802.11's imperfect scheduling actually delivers it. The Watchdog
// covers the gap: when a clique's §5.3 reduce-condition persists for K
// consecutive adjustment periods, the newest admitted flow crossing
// that clique is shed — graceful degradation instead of collapse.
package admission

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"gmp/internal/clique"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// Reason classifies why a flow was refused or removed.
type Reason int

// Refusal reasons. The zero value means "admitted".
const (
	// NoRoute: the flow's source is down or no route to its destination
	// exists at arrival time.
	NoRoute Reason = iota + 1
	// CliqueOverload: admitting the flow would push some path clique's
	// booked load past its capacity budget.
	CliqueOverload
	// Shed: the flow was admitted but later removed by the overload
	// watchdog.
	Shed
)

// String names the reason as in telemetry and CLI output.
func (r Reason) String() string {
	switch r {
	case NoRoute:
		return "no-route"
	case CliqueOverload:
		return "clique-overload"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Params parameterizes the admission test and the overload watchdog.
type Params struct {
	// MinShare is the weighted per-flow share in pkt/s that every
	// admitted flow must remain entitled to: an arrival is admitted only
	// if every clique on its path can still grant MinShare per unit of
	// weighted link-crossing to all booked flows. Required positive.
	MinShare float64
	// Headroom is the fraction of each clique's capacity admission may
	// book, in (0,1]. Zero defaults to 1 (book the full capacity).
	Headroom float64
	// ShedAfter is the watchdog threshold K: a clique whose §5.3
	// reduce-condition persists for K consecutive adjustment periods
	// sheds its newest admitted flow. Zero defaults to 3.
	ShedAfter int
}

// DefaultShedAfter is the watchdog's default persistence threshold.
const DefaultShedAfter = 3

// WithDefaults returns a copy with zero optional fields replaced.
func (p Params) WithDefaults() Params {
	if p.Headroom == 0 {
		p.Headroom = 1
	}
	if p.ShedAfter == 0 {
		p.ShedAfter = DefaultShedAfter
	}
	return p
}

// Validate checks the parameters (after WithDefaults).
func (p Params) Validate() error {
	if math.IsNaN(p.MinShare) || math.IsInf(p.MinShare, 0) || p.MinShare <= 0 {
		return fmt.Errorf("admission: min share %v must be a positive finite rate", p.MinShare)
	}
	if math.IsNaN(p.Headroom) || p.Headroom <= 0 || p.Headroom > 1 {
		return fmt.Errorf("admission: headroom %v outside (0,1]", p.Headroom)
	}
	if p.ShedAfter < 0 {
		return fmt.Errorf("admission: negative shed-after %d", p.ShedAfter)
	}
	return nil
}

// entry is the booked state of one admitted flow.
type entry struct {
	weight float64
	links  []topology.Link // path links, undirected canonical form
	seq    int             // admission order (newest = largest)
}

// Controller books admitted flows against the clique capacities and
// answers the admission test for new arrivals. It is the source-side
// decision logic; the simulator evaluates it centrally (the same oracle
// substitution DESIGN.md documents for ProtocolGMP).
type Controller struct {
	params   Params
	cliques  *clique.Set
	capacity float64 // uniform clique capacity in pkt/s

	booked map[clique.ID]float64 // Σ weight·crossings per clique
	flows  map[packet.FlowID]*entry
	seq    int
	order  []*entry // SetCliques' scratch
}

// NewController builds a controller over the clique decomposition with
// a uniform clique capacity (radio.Params.SaturationRate). Params must
// already be validated.
func NewController(params Params, cliques *clique.Set, capacity float64) *Controller {
	return &Controller{
		params:   params.WithDefaults(),
		cliques:  cliques,
		capacity: capacity,
		booked:   make(map[clique.ID]float64),
		flows:    make(map[packet.FlowID]*entry),
	}
}

// crossings tallies weight·(path links inside each clique) for a path.
func (c *Controller) crossings(weight float64, links []topology.Link) map[clique.ID]float64 {
	out := make(map[clique.ID]float64)
	for _, l := range links {
		for _, q := range c.cliques.Of(l) {
			out[q.ID] += weight
		}
	}
	return out
}

// Admit runs the per-clique test for a new flow and books it when it
// passes. links is the flow's current routing path. Returns zero on
// admission, CliqueOverload when some path clique's budget is exhausted.
func (c *Controller) Admit(id packet.FlowID, weight float64, links []topology.Link) Reason {
	add := c.crossings(weight, links)
	budget := c.params.Headroom * c.capacity
	for q, w := range add {
		if (c.booked[q]+w)*c.params.MinShare > budget {
			return CliqueOverload
		}
	}
	c.book(id, weight, links, add)
	return 0
}

// Book registers a flow without running the test — the grandfathering
// path for a scenario's static flows, which were never subject to
// admission but still consume clique budget.
func (c *Controller) Book(id packet.FlowID, weight float64, links []topology.Link) {
	c.book(id, weight, links, c.crossings(weight, links))
}

func (c *Controller) book(id packet.FlowID, weight float64, links []topology.Link, add map[clique.ID]float64) {
	for q, w := range add {
		c.booked[q] += w
	}
	c.flows[id] = &entry{
		weight: weight,
		links:  append([]topology.Link(nil), links...),
		seq:    c.seq,
	}
	c.seq++
}

// Release unbooks a departed (or shed) flow. Unknown IDs are a no-op.
func (c *Controller) Release(id packet.FlowID) {
	e, ok := c.flows[id]
	if !ok {
		return
	}
	for q, w := range c.crossings(e.weight, e.links) {
		c.booked[q] -= w
		if c.booked[q] <= 1e-12 {
			delete(c.booked, q)
		}
	}
	delete(c.flows, id)
}

// Booked returns the booked weighted crossings of one clique.
func (c *Controller) Booked(q clique.ID) float64 { return c.booked[q] }

// NumFlows returns how many flows are currently booked.
func (c *Controller) NumFlows() int { return len(c.flows) }

// NewestCrossing returns the most recently admitted flow with ID ≥
// minID whose booked path crosses clique q (the watchdog's shedding
// victim: newest first, and minID excludes grandfathered static flows).
func (c *Controller) NewestCrossing(q clique.ID, minID packet.FlowID) (packet.FlowID, bool) {
	best, bestSeq := packet.FlowID(0), -1
	for id, e := range c.flows {
		if id < minID || e.seq <= bestSeq {
			continue
		}
		for _, l := range e.links {
			if crossesClique(c.cliques, l, q) {
				best, bestSeq = id, e.seq
				break
			}
		}
	}
	return best, bestSeq >= 0
}

func crossesClique(s *clique.Set, l topology.Link, q clique.ID) bool {
	for _, c := range s.Of(l) {
		if c.ID == q {
			return true
		}
	}
	return false
}

// SetCliques swaps in a new clique decomposition (mobility epoch) and
// re-books every retained flow against it. Path links that no longer
// exist simply stop consuming budget; the booked paths themselves are
// not re-routed (the flows' packets follow the repaired routing tables
// regardless — the booking is an accounting approximation, tightened
// again as flows depart and arrive). Flows are re-booked in admission
// order, one weight per path link in each of its cliques, so the sums
// round the same way on every call, whatever the weights.
func (c *Controller) SetCliques(s *clique.Set) {
	c.cliques = s
	clear(c.booked)
	c.order = c.order[:0]
	for _, e := range c.flows {
		c.order = append(c.order, e)
	}
	slices.SortFunc(c.order, func(a, b *entry) int { return cmp.Compare(a.seq, b.seq) })
	for _, e := range c.order {
		for _, l := range e.links {
			for _, q := range s.Of(l) {
				c.booked[q.ID] += e.weight
			}
		}
	}
	clear(c.order)
}

// Watchdog tracks per-clique reduce-condition streaks and fires when a
// streak reaches the ShedAfter threshold.
type Watchdog struct {
	k      int
	streak map[clique.ID]int
}

// NewWatchdog builds a watchdog with threshold k (≥1).
func NewWatchdog(k int) *Watchdog {
	if k < 1 {
		k = DefaultShedAfter
	}
	return &Watchdog{k: k, streak: make(map[clique.ID]int)}
}

// Observe folds one adjustment period's overloaded cliques (those whose
// §5.3 reduce-condition fired) into the streaks and returns, sorted,
// the cliques whose streak just reached the threshold. Fired cliques
// have their streak reset so each firing sheds one flow per clique;
// cliques absent from the report reset to zero.
func (w *Watchdog) Observe(overloaded []clique.ID) []clique.ID {
	seen := make(map[clique.ID]bool, len(overloaded))
	var fired []clique.ID
	for _, q := range overloaded {
		seen[q] = true
		w.streak[q]++
		if w.streak[q] >= w.k {
			w.streak[q] = 0
			fired = append(fired, q)
		}
	}
	for q := range w.streak {
		if !seen[q] {
			delete(w.streak, q)
		}
	}
	sort.Slice(fired, func(i, j int) bool {
		if fired[i].Owner != fired[j].Owner {
			return fired[i].Owner < fired[j].Owner
		}
		return fired[i].Seq < fired[j].Seq
	})
	return fired
}

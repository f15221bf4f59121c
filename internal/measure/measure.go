// Package measure implements §6.2's measurement period: per-virtual-node
// buffer state (the fraction Ω of time the queue stayed full), virtual
// link rates and normalized rates, link-type classification (§3.2), and
// per-wireless-link channel occupancy.
//
// In the paper every node measures its own links and disseminates the
// results two hops out; this package plays the role of those measurements
// plus the dissemination, producing one coherent Snapshot per period that
// the protocol engine then consults with exactly the two-hop scoping the
// paper prescribes.
package measure

import (
	"fmt"
	"time"

	"gmp/internal/forwarding"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/topology"
)

// DefaultOmegaThreshold is the buffer-saturation threshold from §6.2: a
// queue full more than 25% of a period is saturated.
const DefaultOmegaThreshold = 0.25

// VNodeID names a virtual node i_t: the queue at physical node Node
// identified by Queue (the destination t under per-destination queueing).
type VNodeID struct {
	Node  topology.NodeID
	Queue packet.QueueID
}

// String renders the paper's i_t notation.
func (v VNodeID) String() string { return fmt.Sprintf("%d_%d", v.Node, v.Queue) }

// LinkType classifies a (virtual) link per §3.2.
type LinkType int

// Link types. A link (i,j) is classified by the buffer states of its two
// endpoint virtual nodes: sender saturated + receiver unsaturated means
// the link itself is the bottleneck (bandwidth-saturated); both saturated
// means a downstream bottleneck throttles it (buffer-saturated); sender
// unsaturated means nothing constrains it here (unsaturated).
const (
	Unsaturated LinkType = iota + 1
	BufferSaturated
	BandwidthSaturated
)

// String names the link type.
func (t LinkType) String() string {
	switch t {
	case Unsaturated:
		return "unsaturated"
	case BufferSaturated:
		return "buffer-saturated"
	case BandwidthSaturated:
		return "bandwidth-saturated"
	default:
		return fmt.Sprintf("LinkType(%d)", int(t))
	}
}

// Classify types the virtual link key by §3.2's rules (see LinkType)
// from the buffer states of its sender and receiver virtual nodes, as
// saturated reports them.
func Classify(key forwarding.VLinkKey, saturated func(VNodeID) bool) LinkType {
	switch {
	case !saturated(VNodeID{Node: key.From, Queue: key.Queue}):
		return Unsaturated
	case saturated(VNodeID{Node: key.To, Queue: key.Queue}):
		return BufferSaturated
	default:
		return BandwidthSaturated
	}
}

// VLinkState is the measured state of one virtual link over a period.
type VLinkState struct {
	Key forwarding.VLinkKey
	// Rate is the delivered packet rate r(i_t, j_t) in packets/second.
	Rate float64
	// NormRate is μ(i_t,j_t): the largest stamped normalized rate of any
	// flow that crossed the link this period.
	NormRate float64
	// Primaries maps the link's primary flows to their source nodes.
	Primaries map[packet.FlowID]topology.NodeID
	// Type is the §3.2 classification.
	Type LinkType
}

// WLinkState is the measured state of one directed wireless link.
type WLinkState struct {
	Link topology.Link
	// Occupancy is the fraction of the period the channel carried this
	// link's RTS/CTS/DATA/ACK frames.
	Occupancy float64
	// NormRate is the largest normalized rate among the link's virtual
	// links.
	NormRate float64
}

// Snapshot is the network-wide measurement of one period.
type Snapshot struct {
	Period time.Duration
	// Omega is each virtual node's buffer-full fraction.
	Omega map[VNodeID]float64
	// Saturated marks virtual nodes whose Ω exceeded the threshold.
	Saturated map[VNodeID]bool
	// VLinks holds every virtual link that carried traffic this period.
	VLinks map[forwarding.VLinkKey]*VLinkState
	// WLinks holds every directed wireless link that carried traffic.
	WLinks map[topology.Link]*WLinkState
	// upstream indexes incoming virtual links per virtual node.
	upstream map[VNodeID][]*VLinkState
}

// Upstream returns the virtual links that delivered traffic into virtual
// node v this period (the "upstream links" of §2.1).
func (s *Snapshot) Upstream(v VNodeID) []*VLinkState { return s.upstream[v] }

// InsertUpstream registers st as an upstream link of virtual node v.
// The collector does this automatically; it is exported so tests and
// tools can construct snapshots by hand.
func (s *Snapshot) InsertUpstream(v VNodeID, st *VLinkState) {
	if s.upstream == nil {
		s.upstream = make(map[VNodeID][]*VLinkState)
	}
	s.upstream[v] = append(s.upstream[v], st)
}

// VNodeSaturated reports whether virtual node v had a saturated buffer.
func (s *Snapshot) VNodeSaturated(v VNodeID) bool { return s.Saturated[v] }

// UndirectedNormRate returns the larger normalized rate of the two
// directions of wireless link l, which is the paper's normalized rate of
// the (undirected-for-contention) wireless link.
func (s *Snapshot) UndirectedNormRate(l topology.Link) float64 {
	u := l.Undirected()
	best := 0.0
	if st, ok := s.WLinks[u]; ok {
		best = st.NormRate
	}
	if st, ok := s.WLinks[u.Reverse()]; ok && st.NormRate > best {
		best = st.NormRate
	}
	return best
}

// UndirectedOccupancy returns the combined channel occupancy of both
// directions of wireless link l.
func (s *Snapshot) UndirectedOccupancy(l topology.Link) float64 {
	u := l.Undirected()
	occ := 0.0
	if st, ok := s.WLinks[u]; ok {
		occ += st.Occupancy
	}
	if st, ok := s.WLinks[u.Reverse()]; ok {
		occ += st.Occupancy
	}
	return occ
}

// OccupancyBoard samples the medium's per-link airtime once per period
// for the distributed runtime. A real node measures the occupancy of its
// adjacent links locally (§6.2 "Channel Occupancy"); the board centralizes
// the bookkeeping while agents, by convention, read only the entries for
// their own adjacent links.
type OccupancyBoard struct {
	meter  *radio.AirtimeMeter
	period time.Duration
	frac   map[topology.Link]float64
}

// NewOccupancyBoard builds a board sampling the given medium.
func NewOccupancyBoard(medium *radio.Medium, period time.Duration) *OccupancyBoard {
	if period <= 0 {
		panic(fmt.Sprintf("measure: non-positive period %v", period))
	}
	return &OccupancyBoard{
		meter:  medium.NewAirtimeMeter(),
		period: period,
		frac:   make(map[topology.Link]float64),
	}
}

// Sample closes the current period: it reads the per-link airtime
// carried since the previous Sample. Call exactly once per period
// boundary.
func (b *OccupancyBoard) Sample() {
	b.frac = make(map[topology.Link]float64)
	for link, airtime := range b.meter.Take() {
		b.frac[link] = float64(airtime) / float64(b.period)
	}
}

// Fraction returns the directed link's channel occupancy over the last
// sampled period.
func (b *OccupancyBoard) Fraction(l topology.Link) float64 { return b.frac[l] }

// Collector gathers one Snapshot per measurement period.
type Collector struct {
	nodes     []*forwarding.Node
	meter     *radio.AirtimeMeter
	threshold float64
}

// NewCollector builds a collector over all forwarding nodes and the
// shared medium, and turns on the nodes' send meters, the side of each
// virtual link it reads. threshold is the Ω saturation threshold (0.25
// in §6.2).
func NewCollector(nodes []*forwarding.Node, medium *radio.Medium, threshold float64) *Collector {
	if threshold <= 0 || threshold >= 1 {
		panic(fmt.Sprintf("measure: Ω threshold %v outside (0,1)", threshold))
	}
	for _, n := range nodes {
		n.RecordMeters(false)
	}
	return &Collector{nodes: nodes, meter: medium.NewAirtimeMeter(), threshold: threshold}
}

// Collect closes the current measurement period: reads and resets every
// per-period counter and returns the classified snapshot.
func (c *Collector) Collect(period time.Duration) *Snapshot {
	s := &Snapshot{
		Period:    period,
		Omega:     make(map[VNodeID]float64),
		Saturated: make(map[VNodeID]bool),
		VLinks:    make(map[forwarding.VLinkKey]*VLinkState),
		WLinks:    make(map[topology.Link]*WLinkState),
		upstream:  make(map[VNodeID][]*VLinkState),
	}

	// Buffer states.
	for _, n := range c.nodes {
		for _, qid := range n.Queues() {
			v := VNodeID{Node: n.ID(), Queue: qid}
			omega := n.FullFraction(qid, period)
			s.Omega[v] = omega
			if omega >= c.threshold {
				s.Saturated[v] = true
			}
		}
	}

	// Virtual link meters (sender side is canonical).
	for _, n := range c.nodes {
		for key, m := range n.TakeMeters() {
			st := &VLinkState{
				Key:       key,
				Rate:      float64(m.Sent) / period.Seconds(),
				NormRate:  m.Primary.NormRate,
				Primaries: m.Primary.Flows,
				Type:      Classify(key, s.VNodeSaturated),
			}
			s.VLinks[key] = st
			receiver := VNodeID{Node: key.To, Queue: key.Queue}
			s.upstream[receiver] = append(s.upstream[receiver], st)
		}
	}

	// Wireless link occupancy and normalized rate.
	for link, airtime := range c.meter.Take() {
		s.WLinks[link] = &WLinkState{
			Link:      link,
			Occupancy: float64(airtime) / float64(period),
		}
	}
	for key, st := range s.VLinks {
		wl := topology.Link{From: key.From, To: key.To}
		w, ok := s.WLinks[wl]
		if !ok {
			w = &WLinkState{Link: wl}
			s.WLinks[wl] = w
		}
		if st.NormRate > w.NormRate {
			w.NormRate = st.NormRate
		}
	}
	return s
}

// Package obs is the simulator's telemetry layer: packet-lifecycle
// histograms, periodic channel/queue samples, and the GMP
// condition-state timeline, recorded during a run and exported as
// deterministic JSONL/CSV.
//
// The layer is strictly zero-cost when disabled. Every producer (the
// radio medium, the MAC stations, the forwarding nodes, the protocol
// engines) holds one *Probe, which carries this package's Recorder
// beside the causal-span recorder and the channel-event ring and is nil
// when every observer is off. Hooks are gated on that nil check and
// every Recorder method is additionally nil-receiver-safe. A run with
// no observer therefore pays one predictable branch per hook and no
// allocations — the determinism goldens and the AllocsPerRun
// regressions of the hot paths are unaffected (see the zero-cost
// contract in DESIGN.md "Observability").
//
// When enabled, the Recorder only *observes*: it draws no randomness,
// schedules no protocol events, and mutates no protocol state, so a
// telemetry-on run produces byte-identical simulation results to the
// same run with telemetry off.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"gmp/internal/packet"
	"gmp/internal/span"
	"gmp/internal/topology"
	"gmp/internal/trace"
)

// Probe is a producer's one handle on a run's observers: telemetry
// (Tel), causal spans (Spans) and the channel-event ring (Events), any
// of which may be nil. A producer holds a nil *Probe when every
// observer is off, so each hook site pays one nil check; past it, the
// site calls the sinks directly, and every sink method ignores a nil
// receiver.
type Probe struct {
	Tel    *Recorder
	Spans  *span.Recorder
	Events *trace.Ring
}

// Config enables telemetry for a run (gmp.Config.Telemetry).
type Config struct {
	// SampleInterval is the spacing of periodic queue-depth and
	// link-utilization samples. Zero means one sample per GMP period.
	SampleInterval time.Duration
}

// Condition enumerates the paper's four local conditions (§5.3).
type Condition int

// The four local conditions. An event tagged with a condition records
// that the condition was *violated* at the flow's bottleneck node and
// generated a rate adjustment request; rounds in which a flow has no
// events are rounds in which every condition held for it.
const (
	CondSource    Condition = iota + 1 // source condition (§5.3 c1)
	CondBuffer                         // buffer-saturated condition (c2)
	CondBandwidth                      // bandwidth-saturated condition (c3)
	CondRateLimit                      // rate-limit condition (c4)
)

// String names the condition as in the JSONL schema.
func (c Condition) String() string {
	switch c {
	case CondSource:
		return "source"
	case CondBuffer:
		return "buffer"
	case CondBandwidth:
		return "bandwidth"
	case CondRateLimit:
		return "rate-limit"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// DefaultLatencyBounds are the fixed histogram bucket upper bounds used
// for every duration histogram: roughly logarithmic from 1 ms to 60 s.
// Fixed buckets keep recording allocation-free and the export schema
// stable across runs.
var DefaultLatencyBounds = []time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
	20 * time.Second,
	60 * time.Second,
}

// Histogram is a fixed-bucket duration histogram. Counts[i] holds
// observations d <= Bounds[i] (and above Bounds[i-1]); the final slot
// is the overflow bucket, so len(Counts) == len(Bounds)+1.
type Histogram struct {
	Bounds []time.Duration `json:"-"`
	Counts []int64         `json:"counts"`
	Count  int64           `json:"count"`
	Sum    time.Duration   `json:"sum_ns"`
	Min    time.Duration   `json:"min_ns"`
	Max    time.Duration   `json:"max_ns"`
}

// NewHistogram builds a histogram over the default bounds.
func NewHistogram() Histogram {
	return Histogram{
		Bounds: DefaultLatencyBounds,
		Counts: make([]int64, len(DefaultLatencyBounds)+1),
	}
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.Bounds) && d > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.Sum += d
	if h.Count == 1 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
}

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// bucket boundary at or above which the cumulative count reaches
// q*Count. The overflow bucket reports the observed maximum. Returns 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// FlowStats is one flow's accumulated lifecycle telemetry.
type FlowStats struct {
	Flow packet.FlowID `json:"flow"`
	// Latency is the end-to-end delivery latency histogram (packet
	// creation at the source to consumption at the destination).
	Latency Histogram `json:"latency"`
	// Retries counts MAC-layer retransmission timeouts attributed to
	// the flow's packets anywhere along its route.
	Retries int64 `json:"retries"`
	// Delivered counts end-to-end deliveries observed by the recorder.
	Delivered int64 `json:"delivered"`
}

// NodeStats is one node's accumulated per-hop telemetry.
type NodeStats struct {
	Node topology.NodeID `json:"node"`
	// Sojourn is the per-hop span histogram: admission of a packet into
	// this node's queues (or its creation, at the source) until the
	// next hop acknowledged it.
	Sojourn Histogram `json:"sojourn"`
	// MACService is the MAC-only slice of the sojourn: the span from
	// the MAC pulling a packet until its ACK, including every retry.
	MACService Histogram `json:"mac_service"`
	// Retries counts retransmission timeouts at this node's MAC.
	Retries int64 `json:"retries"`
	// Drops counts network-layer packet drops at this node.
	Drops int64 `json:"drops"`
}

// LinkUtil is one directed link's airtime fraction over a sample
// interval.
type LinkUtil struct {
	From topology.NodeID `json:"from"`
	To   topology.NodeID `json:"to"`
	Util float64         `json:"util"`
}

// Sample is one periodic observation of queue depths, per-link channel
// utilization, and per-flow rate limits.
type Sample struct {
	At time.Duration `json:"at_ns"`
	// Queues is the total queued packet count per node.
	Queues []int `json:"queues"`
	// Links lists the directed links that carried airtime since the
	// previous sample, in the order LinkUtils gives them.
	Links []LinkUtil `json:"links"`
	// Limits is the per-flow self-imposed rate limit in pkt/s (-1 when
	// the flow is unlimited).
	Limits []float64 `json:"limits"`
}

// ConditionEvent records one local-condition violation: at time At the
// condition Cond, tested at bottleneck node Node, generated a rate
// adjustment request for Flow (Reduce/Factor per §6.3).
type ConditionEvent struct {
	At     time.Duration   `json:"at_ns"`
	Flow   packet.FlowID   `json:"flow"`
	Node   topology.NodeID `json:"node"`
	Cond   Condition       `json:"-"`
	Reduce bool            `json:"reduce"`
	Factor float64         `json:"factor"`
}

// LimitAction classifies a rate-limit change.
type LimitAction string

// Limit actions: a granted reduction or increase request, the
// rate-limit condition's additive upward probe, and limit removal.
const (
	ActionReduce   LimitAction = "reduce"
	ActionIncrease LimitAction = "increase"
	ActionProbe    LimitAction = "probe"
	ActionRemove   LimitAction = "remove"
)

// LimitEvent records one applied rate-limit change for a flow. Before
// and After are pkt/s; -1 encodes "no limit".
type LimitEvent struct {
	At     time.Duration `json:"at_ns"`
	Flow   packet.FlowID `json:"flow"`
	Action LimitAction   `json:"action"`
	Before float64       `json:"before"`
	After  float64       `json:"after"`
}

// AdmissionEvent records one admission-control decision for an arriving
// churn flow, or a later watchdog shed of an admitted one. Reason is the
// typed refusal reason's string form ("" when admitted).
type AdmissionEvent struct {
	At       time.Duration `json:"at_ns"`
	Flow     packet.FlowID `json:"flow"`
	Admitted bool          `json:"admitted"`
	Reason   string        `json:"reason,omitempty"`
}

// Meta describes the run a Telemetry belongs to.
type Meta struct {
	Scenario       string        `json:"scenario"`
	Protocol       string        `json:"protocol"`
	Flows          int           `json:"flows"`
	Nodes          int           `json:"nodes"`
	SampleInterval time.Duration `json:"sample_interval_ns"`
	// BucketBounds are the histogram bucket upper bounds shared by
	// every histogram in the telemetry, in nanoseconds.
	BucketBounds []time.Duration `json:"bucket_bounds_ns"`
}

// Telemetry is the full recorded output of one run (Result.Telemetry).
type Telemetry struct {
	Meta       Meta
	Flows      []FlowStats
	Nodes      []NodeStats
	Samples    []Sample
	Conditions []ConditionEvent
	Limits     []LimitEvent
	Admissions []AdmissionEvent
}

// Recorder accumulates telemetry during a run. A nil *Recorder is the
// disabled state: every method is a no-op on a nil receiver.
type Recorder struct {
	now func() time.Duration

	flows []FlowStats
	nodes []NodeStats

	samples    []Sample
	conditions []ConditionEvent
	limits     []LimitEvent

	sampleInterval time.Duration
}

// NewRecorder builds an enabled recorder for a run over numNodes nodes
// with numFlows flows. now is the virtual clock (the scheduler's Now).
func NewRecorder(numNodes, numFlows int, sampleInterval time.Duration, now func() time.Duration) *Recorder {
	r := &Recorder{
		now:            now,
		flows:          make([]FlowStats, numFlows),
		nodes:          make([]NodeStats, numNodes),
		sampleInterval: sampleInterval,
	}
	for i := range r.flows {
		r.flows[i].Flow = packet.FlowID(i)
		r.flows[i].Latency = NewHistogram()
	}
	for i := range r.nodes {
		r.nodes[i].Node = topology.NodeID(i)
		r.nodes[i].Sojourn = NewHistogram()
		r.nodes[i].MACService = NewHistogram()
	}
	return r
}

// SampleInterval returns the configured sampling spacing.
func (r *Recorder) SampleInterval() time.Duration {
	if r == nil {
		return 0
	}
	return r.sampleInterval
}

// HopForwarded records that node forwarded one of flow's packets to an
// acknowledging next hop after holding it for sojourn.
func (r *Recorder) HopForwarded(node topology.NodeID, flow packet.FlowID, sojourn time.Duration) {
	if r == nil {
		return
	}
	r.nodes[node].Sojourn.Observe(sojourn)
}

// MACService records one completed MAC exchange at node: pull to ACK,
// retries included.
func (r *Recorder) MACService(node topology.NodeID, flow packet.FlowID, d time.Duration) {
	if r == nil {
		return
	}
	r.nodes[node].MACService.Observe(d)
}

// MACRetry records one retransmission timeout at node for flow.
func (r *Recorder) MACRetry(node topology.NodeID, flow packet.FlowID) {
	if r == nil {
		return
	}
	r.nodes[node].Retries++
	if int(flow) < len(r.flows) {
		r.flows[flow].Retries++
	}
}

// Delivered records an end-to-end delivery of flow with the given
// source-to-sink latency.
func (r *Recorder) Delivered(flow packet.FlowID, latency time.Duration) {
	if r == nil {
		return
	}
	r.flows[flow].Delivered++
	r.flows[flow].Latency.Observe(latency)
}

// PacketDropped records a network-layer drop at node.
func (r *Recorder) PacketDropped(node topology.NodeID, flow packet.FlowID) {
	if r == nil {
		return
	}
	r.nodes[node].Drops++
}

// LinkUtils converts one sampling interval's per-link airtime, a radio
// airtime meter's reading, into utilization fractions: the current links
// of topo in dense link-index order, then pairs that are no longer links
// (their ends moved apart during the interval) ordered by (From, To).
// It returns nil when no link carried airtime.
func LinkUtils(topo *topology.Topology, air map[topology.Link]time.Duration, interval time.Duration) []LinkUtil {
	var out []LinkUtil
	for l, d := range air {
		if d != 0 {
			out = append(out, LinkUtil{From: l.From, To: l.To, Util: float64(d) / float64(interval)})
		}
	}
	// Pairs that are not a link rank after every link.
	rank := func(u LinkUtil) int {
		if idx := topo.LinkIndex(u.From, u.To); idx >= 0 {
			return idx
		}
		return topo.NumLinks()
	}
	slices.SortFunc(out, func(a, b LinkUtil) int {
		return cmp.Or(cmp.Compare(rank(a), rank(b)), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// AddSample appends one periodic sample (built by the run loop, which
// owns the queue and rate-limit accessors).
func (r *Recorder) AddSample(s Sample) {
	if r == nil {
		return
	}
	r.samples = append(r.samples, s)
}

// Condition records one local-condition violation for flow at its
// bottleneck node.
func (r *Recorder) Condition(flow packet.FlowID, node topology.NodeID, cond Condition, reduce bool, factor float64) {
	if r == nil {
		return
	}
	r.conditions = append(r.conditions, ConditionEvent{
		At:     r.now(),
		Flow:   flow,
		Node:   node,
		Cond:   cond,
		Reduce: reduce,
		Factor: factor,
	})
}

// LimitChange records one applied rate-limit change. Pass -1 for
// "no limit" on either side.
func (r *Recorder) LimitChange(flow packet.FlowID, action LimitAction, before, after float64) {
	if r == nil {
		return
	}
	r.limits = append(r.limits, LimitEvent{
		At:     r.now(),
		Flow:   flow,
		Action: action,
		Before: before,
		After:  after,
	})
}

// Finalize assembles the accumulated telemetry, with admissions, the
// run's churn admission decisions in event order (nil without churn).
// The recorder may keep recording afterwards, but the returned value
// owns its slices.
//
// Condition events are put into a canonical total order (time, flow,
// node, condition, direction, factor): the protocol engines iterate Go
// maps while testing conditions, so the raw recording order of
// same-instant events is not reproducible across runs even though the
// event *set* is. Events identical under every key are interchangeable,
// so the sorted stream is byte-deterministic.
func (r *Recorder) Finalize(scenario, protocol string, admissions []AdmissionEvent) *Telemetry {
	if r == nil {
		return nil
	}
	conds := append([]ConditionEvent(nil), r.conditions...)
	sort.SliceStable(conds, func(i, j int) bool {
		a, b := conds[i], conds[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Cond != b.Cond {
			return a.Cond < b.Cond
		}
		if a.Reduce != b.Reduce {
			return a.Reduce
		}
		return a.Factor < b.Factor
	})
	return &Telemetry{
		Meta: Meta{
			Scenario:       scenario,
			Protocol:       protocol,
			Flows:          len(r.flows),
			Nodes:          len(r.nodes),
			SampleInterval: r.sampleInterval,
			BucketBounds:   DefaultLatencyBounds,
		},
		Flows:      append([]FlowStats(nil), r.flows...),
		Nodes:      append([]NodeStats(nil), r.nodes...),
		Samples:    append([]Sample(nil), r.samples...),
		Conditions: conds,
		Limits:     append([]LimitEvent(nil), r.limits...),
		Admissions: append([]AdmissionEvent(nil), admissions...),
	}
}

// FlowConditionCounts tallies flow's condition events by condition:
// [source, buffer, bandwidth, rate-limit].
func (t *Telemetry) FlowConditionCounts(flow packet.FlowID) [4]int64 {
	var out [4]int64
	for _, ev := range t.Conditions {
		if ev.Flow == flow && ev.Cond >= CondSource && ev.Cond <= CondRateLimit {
			out[ev.Cond-CondSource]++
		}
	}
	return out
}

// FinalBottleneck returns the condition of flow's last *reducing*
// condition event — the binding constraint the protocol last enforced
// against the flow — or 0 when the flow was never asked down.
func (t *Telemetry) FinalBottleneck(flow packet.FlowID) Condition {
	for i := len(t.Conditions) - 1; i >= 0; i-- {
		ev := t.Conditions[i]
		if ev.Flow == flow && ev.Reduce {
			return ev.Cond
		}
	}
	return 0
}

// Package span is the causal tracing layer: a deterministic, sampled
// flight recorder that follows individual packets through flow →
// forwarding → MAC → radio and links every §5.3 rate-limit change to
// the condition, clique, and utilization figures that triggered it.
//
// Like the telemetry recorder (internal/obs), the Recorder only
// observes: it draws no randomness, mutates no protocol state, and
// schedules no events, so enabling it cannot change simulation
// behavior. Producers reach it through their one *obs.Probe and gate
// their hooks on that probe's nil check, and all Recorder methods are
// additionally safe on a nil receiver, so the spans-off hot path pays
// one branch and zero allocations.
//
// Memory is bounded by deterministic 1-in-k per-flow sampling: packet
// seq is sampled when seq ≡ offset (mod k), where offset is a seeded
// per-flow hash. Sampling never consults the simulation's random
// sources, so the sampled set is a pure function of (seed, flow, k)
// and spans-on runs reproduce byte for byte.
package span

import (
	"time"

	"gmp/internal/packet"
	"gmp/internal/topology"
)

// DefaultSampleEvery is the default per-flow sampling stride.
const DefaultSampleEvery = 64

// Config enables causal span tracing for a run.
type Config struct {
	// SampleEvery records one packet in every SampleEvery per flow
	// (default DefaultSampleEvery). 1 records every packet.
	SampleEvery int
}

// Kind classifies a span.
type Kind int

// Span kinds. Packet is the root of each sampled packet's tree; Hop
// spans tile the packet's lifetime exactly (each hop runs from the
// packet's admission at a node to its admission at the next node, or
// to delivery/drop), so the hop durations of a delivered packet sum to
// its end-to-end latency.
const (
	KindPacket  Kind = iota + 1 // whole lifetime: creation → delivery/drop
	KindBlocked                 // source held by local backpressure before admission
	KindHop                     // admission at a node → admission at the next
	KindQueue                   // waiting in the node's queue before the MAC pulled it
	KindMAC                     // MAC service: pulled → handed to the next hop
	KindBackoff                 // one DCF backoff countdown segment
	KindDefer                   // access frozen (carrier sense / NAV / response)
	KindAirtime                 // one data-frame transmission carrying the packet
	KindRetry                   // point event: CTS/ACK timeout, exchange retried
	KindCorrupt                 // point event: data frame corrupted at the receiver
)

// String names the kind in exports; ParseKind is its inverse.
func (k Kind) String() string {
	switch k {
	case KindPacket:
		return "packet"
	case KindBlocked:
		return "blocked"
	case KindHop:
		return "hop"
	case KindQueue:
		return "queue"
	case KindMAC:
		return "mac"
	case KindBackoff:
		return "backoff"
	case KindDefer:
		return "defer"
	case KindAirtime:
		return "airtime"
	case KindRetry:
		return "retry"
	case KindCorrupt:
		return "corrupt"
	default:
		return "unknown"
	}
}

// ParseKind maps an export name back to its Kind (0 for unknown).
func ParseKind(s string) Kind {
	for k := KindPacket; k <= KindCorrupt; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// Span is one node of a sampled packet's causal tree. IDs are assigned
// in creation order starting at 1; Parent is 0 for roots. A span's
// parent always has a smaller ID (parents open before their children).
type Span struct {
	ID     int64
	Parent int64
	Kind   Kind
	Flow   packet.FlowID
	Seq    int64
	// Node is where the span happened; Peer is the other party when one
	// exists (next hop for hop/airtime spans, the transmitting neighbor
	// whose carrier deferred us for defer spans), else -1.
	Node  topology.NodeID
	Peer  topology.NodeID
	Start time.Duration
	End   time.Duration
	// Val is a kind-specific scalar: drawn backoff slots for backoff
	// spans, the retry ordinal for retry spans, 0 otherwise.
	Val int64
	// Detail carries the outcome ("delivered", "drop:overflow",
	// "inflight") or the defer cause ("cs", "wait").
	Detail string
}

// LimitSpan is the decision-provenance record for one §5.3 rate-limit
// change: what the engine did, and the condition, bottleneck clique,
// and clique-occupancy figures it acted on.
type LimitSpan struct {
	ID     int64
	At     time.Duration
	Flow   packet.FlowID
	Action string // "reduce" | "increase" | "probe" | "remove"
	// Before and After are the limit in pkt/s around the change; -1
	// encodes "no limit".
	Before float64
	After  float64
	// Cond names the triggering §5.3 condition ("source", "buffer",
	// "bandwidth", "rate-limit"; "" when the engine recorded none), Node
	// the node that raised it, CondAt when it fired, and Factor the
	// requested adjustment factor.
	Cond   string
	Node   topology.NodeID
	CondAt time.Duration
	Factor float64
	// Clique identifies the bottleneck clique for bandwidth conditions
	// ("" otherwise); Occupancy holds the per-candidate-clique channel
	// occupancies the engine compared and MaxOcc their maximum.
	Clique    string
	Occupancy []float64
	MaxOcc    float64
}

// Meta describes the run a trace came from.
type Meta struct {
	Scenario    string        `json:"scenario"`
	Protocol    string        `json:"protocol"`
	Seed        int64         `json:"seed"`
	SampleEvery int           `json:"sample_every"`
	Nodes       int           `json:"nodes"`
	Flows       int           `json:"flows"`
	Duration    time.Duration `json:"duration_ns"`
}

// Trace is a finalized span recording.
type Trace struct {
	Meta   Meta
	Spans  []Span
	Limits []LimitSpan
}

type pktKey struct {
	flow packet.FlowID
	seq  int64
}

// pktState tracks a sampled packet's currently open spans. Slot values
// are span IDs (0 = slot empty); the *Node fields guard against
// cross-hop interleaving (a sender retransmitting after a lost ACK must
// not touch the slots the next hop already owns).
type pktState struct {
	root    int64
	blocked int64
	hop     int64
	queue   int64
	mac     int64
	backoff int64
	defr    int64

	hopNode     topology.NodeID
	queueNode   topology.NodeID
	macNode     topology.NodeID
	backoffNode topology.NodeID
	deferNode   topology.NodeID
}

// condRef is the per-flow memory of the most recent §5.3 condition, the
// provenance attached to the next limit change.
type condRef struct {
	at     time.Duration // -1 = none seen
	cond   string
	node   topology.NodeID
	factor float64
	clique string
	occ    []float64
	maxOcc float64
}

// Recorder accumulates spans during a run. Construct with NewRecorder;
// a nil *Recorder is valid and ignores every call.
type Recorder struct {
	nodes int
	flows int
	seed  int64
	every int64
	now   func() time.Duration

	spans  []Span
	limits []LimitSpan
	states map[pktKey]*pktState

	// offsets is the seeded per-flow sampling phase in [0, every).
	offsets []int64

	// busySrc[n] is the neighbor whose transmission currently holds
	// node n's carrier sense busy (-1 when idle), for defer attribution.
	busySrc []topology.NodeID

	lastReduce   []condRef
	lastIncrease []condRef
}

// NewRecorder builds a recorder for a run with the given node and flow
// counts. seed seeds the per-flow sampling phases; every is the
// sampling stride (values < 1 become DefaultSampleEvery). now reads
// the virtual clock.
func NewRecorder(nodes, flows int, seed int64, every int, now func() time.Duration) *Recorder {
	if every < 1 {
		every = DefaultSampleEvery
	}
	r := &Recorder{
		nodes:        nodes,
		flows:        flows,
		seed:         seed,
		every:        int64(every),
		now:          now,
		states:       make(map[pktKey]*pktState),
		offsets:      make([]int64, flows),
		busySrc:      make([]topology.NodeID, nodes),
		lastReduce:   make([]condRef, flows),
		lastIncrease: make([]condRef, flows),
	}
	for f := range r.offsets {
		r.offsets[f] = int64(splitmix64(uint64(seed)^(uint64(f)+1)*0x9E3779B97F4A7C15) % uint64(every))
	}
	for n := range r.busySrc {
		r.busySrc[n] = -1
	}
	for f := range r.lastReduce {
		r.lastReduce[f].at = -1
		r.lastIncrease[f].at = -1
	}
	return r
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash for
// the per-flow sampling phases.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SampleEvery returns the sampling stride (0 on a nil recorder).
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.every)
}

// Sampled reports whether packet seq of the flow is traced.
func (r *Recorder) Sampled(flow packet.FlowID, seq int64) bool {
	if r == nil || int(flow) >= len(r.offsets) || flow < 0 {
		return false
	}
	return seq%r.every == r.offsets[flow]
}

// open appends a new span and returns its ID. End is provisionally -1
// ("still open"); closeAt or Finalize sets it.
func (r *Recorder) open(kind Kind, parent int64, flow packet.FlowID, seq int64, node, peer topology.NodeID, start time.Duration) int64 {
	r.spans = append(r.spans, Span{
		ID:     int64(len(r.spans) + 1),
		Parent: parent,
		Kind:   kind,
		Flow:   flow,
		Seq:    seq,
		Node:   node,
		Peer:   peer,
		Start:  start,
		End:    -1,
	})
	return int64(len(r.spans))
}

func (r *Recorder) closeAt(id int64, end time.Duration) {
	if id <= 0 || id > int64(len(r.spans)) {
		return
	}
	s := &r.spans[id-1]
	if s.End < 0 {
		s.End = end
	}
}

func (r *Recorder) state(p *packet.Packet) (*pktState, bool) {
	if !r.Sampled(p.Flow, p.Seq) {
		return nil, false
	}
	key := pktKey{flow: p.Flow, seq: p.Seq}
	st := r.states[key]
	if st == nil {
		st = &pktState{}
		r.states[key] = st
	}
	return st, true
}

// SourceBlocked records that the flow source could not admit the
// sampled packet (local queue full) and is waiting for the queue to
// open. Called from the forwarding layer's Enqueue on every refused
// generation attempt; only the first opens the span.
func (r *Recorder) SourceBlocked(p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.blocked != 0 {
		return
	}
	st.blocked = r.open(KindBlocked, 0, p.Flow, p.Seq, p.Src, -1, r.now())
}

// Admitted records the sampled packet entering node's queues: at the
// source this opens the packet root (anchored at the packet's creation
// time) and the first hop; at a relay it closes the previous hop and
// the sender's MAC span (the hand-off instant is the hop boundary) and
// opens the next. A queue-wait span opens either way.
func (r *Recorder) Admitted(node topology.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok {
		return
	}
	now := r.now()
	if st.root == 0 {
		st.root = r.open(KindPacket, 0, p.Flow, p.Seq, p.Src, p.Dst, p.Created)
	}
	if st.blocked != 0 {
		r.closeAt(st.blocked, now)
		st.blocked = 0
	}
	// The hand-off closes everything the previous hop had open.
	r.closeHopState(st, node, now)
	st.hop = r.open(KindHop, st.root, p.Flow, p.Seq, node, -1, now)
	st.hopNode = node
	st.queue = r.open(KindQueue, st.hop, p.Flow, p.Seq, node, -1, now)
	st.queueNode = node
}

// closeHopState closes the open hop and all its open descendants at
// end, recording next as the hop's peer (-1 when unknown).
func (r *Recorder) closeHopState(st *pktState, next topology.NodeID, end time.Duration) {
	for _, slot := range []*int64{&st.defr, &st.backoff, &st.mac, &st.queue} {
		if *slot != 0 {
			r.closeAt(*slot, end)
			*slot = 0
		}
	}
	if st.hop != 0 {
		r.closeAt(st.hop, end)
		r.spans[st.hop-1].Peer = next
		st.hop = 0
	}
}

// Dropped records the sampled packet's loss at node and closes its tree.
func (r *Recorder) Dropped(node topology.NodeID, p *packet.Packet, reason string) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok {
		return
	}
	now := r.now()
	if st.blocked != 0 {
		r.closeAt(st.blocked, now)
		st.blocked = 0
	}
	r.closeHopState(st, -1, now)
	if st.root != 0 {
		r.closeAt(st.root, now)
		r.spans[st.root-1].Detail = "drop:" + reason
	}
	delete(r.states, pktKey{flow: p.Flow, seq: p.Seq})
}

// Delivered records the sampled packet reaching its destination and
// closes its tree. The delivery instant equals the last data frame's
// end of air, so the final hop ends exactly at the recorded end-to-end
// latency.
func (r *Recorder) Delivered(p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok {
		return
	}
	now := r.now()
	r.closeHopState(st, p.Dst, now)
	if st.root != 0 {
		r.closeAt(st.root, now)
		r.spans[st.root-1].Detail = "delivered"
	}
	delete(r.states, pktKey{flow: p.Flow, seq: p.Seq})
}

// Requeued records the MAC abandoning the sampled packet at node (retry
// limit or crash) with the forwarding layer requeueing it: the MAC span
// closes and a fresh queue-wait span opens.
func (r *Recorder) Requeued(node topology.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.hop == 0 {
		return
	}
	now := r.now()
	for _, slot := range []*int64{&st.defr, &st.backoff} {
		if *slot != 0 {
			r.closeAt(*slot, now)
			*slot = 0
		}
	}
	if st.mac != 0 {
		r.closeAt(st.mac, now)
		r.spans[st.mac-1].Detail = "abandon"
		st.mac = 0
	}
	st.queue = r.open(KindQueue, st.hop, p.Flow, p.Seq, node, -1, now)
	st.queueNode = node
}

// MACPulled records the MAC at node taking the sampled packet as its
// current outgoing: the queue wait ends and MAC service begins.
func (r *Recorder) MACPulled(node topology.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.hop == 0 {
		return
	}
	now := r.now()
	if st.queue != 0 && st.queueNode == node {
		r.closeAt(st.queue, now)
		st.queue = 0
	}
	if st.mac == 0 {
		st.mac = r.open(KindMAC, st.hop, p.Flow, p.Seq, node, -1, now)
		st.macNode = node
	}
}

// BackoffStart records a DCF backoff countdown segment beginning at
// node with the given remaining slots.
func (r *Recorder) BackoffStart(node topology.NodeID, p *packet.Packet, slots int) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.mac == 0 || st.macNode != node || st.backoff != 0 {
		return
	}
	id := r.open(KindBackoff, st.mac, p.Flow, p.Seq, node, -1, r.now())
	r.spans[id-1].Val = int64(slots)
	st.backoff = id
	st.backoffNode = node
}

// BackoffEnd closes the open backoff segment at node (countdown
// completed or frozen).
func (r *Recorder) BackoffEnd(node topology.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.backoff == 0 || st.backoffNode != node {
		return
	}
	r.closeAt(st.backoff, r.now())
	st.backoff = 0
}

// MACDeferred records channel access freezing at node while it holds
// the sampled packet. The deferral is attributed to the neighbor whose
// transmission holds the node's carrier sense busy ("cs"); with no such
// neighbor (NAV reservation, SIFS response duty) the cause is "wait".
func (r *Recorder) MACDeferred(node topology.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.mac == 0 || st.macNode != node || st.defr != 0 {
		return
	}
	peer := topology.NodeID(-1)
	if int(node) < len(r.busySrc) {
		peer = r.busySrc[node]
	}
	detail := "wait"
	if peer >= 0 {
		detail = "cs"
	}
	id := r.open(KindDefer, st.mac, p.Flow, p.Seq, node, peer, r.now())
	r.spans[id-1].Detail = detail
	st.defr = id
	st.deferNode = node
}

// MACResumed closes the open defer span at node (access progressed to
// DIFS again).
func (r *Recorder) MACResumed(node topology.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.defr == 0 || st.deferNode != node {
		return
	}
	r.closeAt(st.defr, r.now())
	st.defr = 0
}

// MACRetry records a CTS/ACK timeout for the sampled packet at node as
// a point event carrying the retry ordinal.
func (r *Recorder) MACRetry(node topology.NodeID, p *packet.Packet, retries int) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.mac == 0 || st.macNode != node {
		return
	}
	now := r.now()
	id := r.open(KindRetry, st.mac, p.Flow, p.Seq, node, -1, now)
	r.closeAt(id, now)
	r.spans[id-1].Val = int64(retries)
}

// DataAirtime records one data-frame transmission carrying the sampled
// packet: [start, end) on the air from node from toward to. Called by
// the radio layer at transmit time (the end of air is known up front).
func (r *Recorder) DataAirtime(p *packet.Packet, from, to topology.NodeID, start, end time.Duration) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.mac == 0 || st.macNode != from {
		return
	}
	id := r.open(KindAirtime, st.mac, p.Flow, p.Seq, from, to, start)
	r.closeAt(id, end)
}

// DataCorrupted records the sampled packet's data frame arriving
// corrupted at its intended receiver (collision, half-duplex overlap,
// or injected loss) as a point event.
func (r *Recorder) DataCorrupted(p *packet.Packet, from, at topology.NodeID) {
	if r == nil {
		return
	}
	st, ok := r.state(p)
	if !ok || st.mac == 0 || st.macNode != from {
		return
	}
	now := r.now()
	id := r.open(KindCorrupt, st.mac, p.Flow, p.Seq, at, from, now)
	r.closeAt(id, now)
}

// NodeBusy notes that node's carrier sense went busy because src
// started transmitting (defer attribution state; no span).
func (r *Recorder) NodeBusy(node, src topology.NodeID) {
	if r == nil || int(node) >= len(r.busySrc) {
		return
	}
	r.busySrc[node] = src
}

// NodeIdle notes that node's carrier sense went idle.
func (r *Recorder) NodeIdle(node topology.NodeID) {
	if r == nil || int(node) >= len(r.busySrc) {
		return
	}
	r.busySrc[node] = -1
}

// Condition records a §5.3 condition evaluation touching the flow, as
// provenance for the flow's next limit change. clique names the
// bottleneck clique ("" when not applicable), occ the candidate-clique
// occupancies the engine compared, and maxOcc their maximum.
//
// Engines iterate Go maps while evaluating, so two conditions for the
// same flow can arrive in either order within one boundary; the slot
// keeps the canonically smallest of the newest ones, which makes the
// retained provenance independent of map iteration order.
func (r *Recorder) Condition(flow packet.FlowID, node topology.NodeID, cond string, reduce bool, factor float64, clique string, occ []float64, maxOcc float64) {
	if r == nil || flow < 0 || int(flow) >= r.flows {
		return
	}
	slot := &r.lastIncrease[flow]
	if reduce {
		slot = &r.lastReduce[flow]
	}
	now := r.now()
	next := condRef{at: now, cond: cond, node: node, factor: factor, clique: clique, maxOcc: maxOcc}
	if len(occ) > 0 {
		next.occ = append([]float64(nil), occ...)
	}
	if slot.at == now && !condLess(next, *slot) {
		return
	}
	*slot = next
}

// condLess is the canonical order used to break same-instant condition
// ties deterministically.
func condLess(a, b condRef) bool {
	if a.cond != b.cond {
		return a.cond < b.cond
	}
	if a.node != b.node {
		return a.node < b.node
	}
	if a.clique != b.clique {
		return a.clique < b.clique
	}
	if a.factor != b.factor {
		return a.factor < b.factor
	}
	// Same-instant conditions from different wireless links can name the
	// same clique with occupancy vectors over different owner sets (the
	// engine iterates links in map order); compare the vectors so the
	// retained condition is canonical regardless of arrival order.
	if a.maxOcc != b.maxOcc {
		return a.maxOcc < b.maxOcc
	}
	if len(a.occ) != len(b.occ) {
		return len(a.occ) < len(b.occ)
	}
	for i := range a.occ {
		if a.occ[i] != b.occ[i] {
			return a.occ[i] < b.occ[i]
		}
	}
	return false
}

// LimitChange records a rate-limit change for the flow, attaching the
// provenance of the most recent matching condition: reduce actions link
// the last reduce condition, increase actions the last increase
// condition, and probe/remove actions the §5.3 rate-limit condition
// (which the engine enforces at the source, src).
func (r *Recorder) LimitChange(flow packet.FlowID, src topology.NodeID, action string, before, after float64) {
	if r == nil || flow < 0 || int(flow) >= r.flows {
		return
	}
	now := r.now()
	ls := LimitSpan{
		ID:     int64(len(r.limits) + 1),
		At:     now,
		Flow:   flow,
		Action: action,
		Before: before,
		After:  after,
		Node:   -1,
		CondAt: -1,
	}
	var ref *condRef
	switch action {
	case "reduce":
		ref = &r.lastReduce[flow]
	case "increase":
		ref = &r.lastIncrease[flow]
	case "probe", "remove":
		ls.Cond = "rate-limit"
		ls.Node = src
		ls.CondAt = now
		if action == "probe" && before > 0 && after > 0 {
			ls.Factor = after / before
		}
	}
	if ref != nil && ref.at >= 0 {
		ls.Cond = ref.cond
		ls.Node = ref.node
		ls.CondAt = ref.at
		ls.Factor = ref.factor
		ls.Clique = ref.clique
		ls.MaxOcc = ref.maxOcc
		if len(ref.occ) > 0 {
			ls.Occupancy = append([]float64(nil), ref.occ...)
		}
	}
	r.limits = append(r.limits, ls)
}

// Finalize closes every still-open span at the run's end and returns
// the trace. Open packet roots are marked "inflight". The span slice is
// already in deterministic creation order (the scheduler is single
// threaded), so no sort is needed; patching ends via the states map is
// order independent (each patch touches only its own span).
func (r *Recorder) Finalize(scenario, protocol string, duration time.Duration) *Trace {
	if r == nil {
		return nil
	}
	for _, st := range r.states {
		for _, id := range []int64{st.blocked, st.queue, st.backoff, st.defr, st.mac, st.hop, st.root} {
			r.closeAt(id, duration)
		}
		if st.root != 0 && r.spans[st.root-1].Detail == "" {
			r.spans[st.root-1].Detail = "inflight"
		}
	}
	r.states = make(map[pktKey]*pktState)
	for i := range r.spans {
		if r.spans[i].End < 0 {
			r.spans[i].End = duration
		}
	}
	return &Trace{
		Meta: Meta{
			Scenario:    scenario,
			Protocol:    protocol,
			Seed:        r.seed,
			SampleEvery: int(r.every),
			Nodes:       r.nodes,
			Flows:       r.flows,
			Duration:    duration,
		},
		Spans:  r.spans,
		Limits: r.limits,
	}
}

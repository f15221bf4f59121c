// Package forwarding implements the network layer of the simulator: packet
// queues, next-hop forwarding, and the buffer-based backpressure scheme
// the paper builds on (§2.2).
//
// Three queue layouts match the three protocols evaluated in §7.2:
//
//   - PerDestination: one queue per served destination (GMP, §5.1) — the
//     "virtual node" i_t is exactly the queue for destination t at node i.
//   - PerFlow: one queue per passing flow (2PP, ref [11]).
//   - Shared: one FIFO for everything (plain IEEE 802.11 baseline).
//
// Config.CongestionAvoidance switches between the two disciplines. With
// it (ref [3] of the paper), a node offers the MAC only packets whose
// downstream queue advertised a free slot; the advertisement is the
// buffer-state bit piggybacked on every overheard frame. A full
// downstream queue therefore throttles the upstream node — buffer-based
// backpressure — and the pressure propagates hop by hop to the flow
// source. Without it (plain 802.11), a full queue overwrites its tail.
package forwarding

import (
	"fmt"
	"slices"
	"time"

	"gmp/internal/mac"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
	"gmp/internal/trace"
)

// Mode selects the queueing discipline.
type Mode int

// Queueing disciplines.
const (
	PerDestination Mode = iota + 1
	PerFlow
	Shared
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PerDestination:
		return "per-destination"
	case PerFlow:
		return "per-flow"
	case Shared:
		return "shared-fifo"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// QueueKey returns the queue a packet belongs to under the mode.
func (m Mode) QueueKey(p *packet.Packet) packet.QueueID {
	switch m {
	case PerDestination:
		return packet.QueueForDest(p.Dst)
	case PerFlow:
		return packet.QueueForFlow(p.Flow)
	case Shared:
		return packet.SharedQueue
	default:
		panic(fmt.Sprintf("forwarding: unknown mode %d", int(m)))
	}
}

// Config controls a node's forwarding behavior.
type Config struct {
	Mode Mode
	// QueueSlots is the capacity of each queue in packets (§7.2 uses 10).
	QueueSlots int
	// CongestionAvoidance selects the discipline. With it (ref [3]), a
	// node offers the MAC only packets whose downstream queue advertised
	// room, admits an arrival at a full queue with transient overflow,
	// and puts a packet the MAC gave up on back at the head of its
	// queue: the substrate is loss-free by design, and link-layer
	// persistence keeps backpressure honest about a collision-prone
	// link's true delivery capacity. Without it (the plain-802.11
	// baseline, §7.2) nothing gates, an arrival at a full queue
	// overwrites the tail, and a packet past the retry limit is dropped.
	CongestionAvoidance bool
	// StaleAfter bounds how long a "full" advertisement suppresses
	// transmissions without being refreshed; after it the node attempts
	// anyway (handles failed overhearing, §2.2).
	StaleAfter time.Duration
	// FairAggregation splits each queue into one sub-queue per packet
	// origin (the local source vs each upstream neighbor), each with its
	// own QueueSlots quota, served round-robin. This is an extension
	// beyond the paper, in the spirit of its ref [4] (aggregate fairness
	// toward a common sink): under FIFO with a shared quota the local
	// source instantly refills every freed slot and starves relayed
	// traffic at both admission and service; per-origin quotas and
	// round-robin service remove both advantages.
	FairAggregation bool
}

// DefaultConfig returns GMP's forwarding configuration.
func DefaultConfig() Config {
	return Config{
		Mode:                PerDestination,
		QueueSlots:          10,
		CongestionAvoidance: true,
		StaleAfter:          50 * time.Millisecond,
	}
}

// VLinkKey identifies a virtual link (i_t, j_t): the directed wireless
// link (From, To) restricted to one queue (destination t under GMP).
type VLinkKey struct {
	From  topology.NodeID
	To    topology.NodeID
	Queue packet.QueueID
}

// String renders the key in the paper's (i_t, j_t) flavor.
func (k VLinkKey) String() string {
	return fmt.Sprintf("(%d_%d,%d_%d)", k.From, k.Queue, k.To, k.Queue)
}

// WirelessLink returns the physical link the virtual link rides on.
func (k VLinkKey) WirelessLink() topology.Link {
	return topology.Link{From: k.From, To: k.To}
}

// PrimaryInfo records the primary flows of a virtual link over one
// measurement period: the flows whose stamped normalized rate equals the
// link's (maximum) normalized rate (§6.1).
type PrimaryInfo struct {
	// NormRate is the largest stamped normalized rate observed; zero if
	// no stamped packet passed.
	NormRate float64
	// Flows maps each primary flow to its source node.
	Flows map[packet.FlowID]topology.NodeID
}

// VLinkMeter accumulates per-virtual-link measurements over one period.
type VLinkMeter struct {
	// Sent counts packets acknowledged by the next hop this period.
	Sent int64
	// Primary tracks the largest stamped normalized rate and its flows.
	Primary PrimaryInfo
}

// SinkFunc consumes a packet that reached its final destination.
type SinkFunc func(p *packet.Packet, from topology.NodeID)

// DropReason classifies packet losses.
type DropReason int

// Drop reasons.
const (
	DropOverflow DropReason = iota + 1 // arrival at a full queue; no discipline emits it
	DropTail                           // tail overwritten (802.11 baseline)
	DropRetry                          // MAC retry limit exhausted
	DropNoRoute                        // no route to destination
	DropNodeDown                       // queued at a node that crashed
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropOverflow:
		return "overflow"
	case DropTail:
		return "tail-overwrite"
	case DropRetry:
		return "retry-limit"
	case DropNoRoute:
		return "no-route"
	case DropNodeDown:
		return "node-down"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// DropFunc observes packet losses (for statistics).
type DropFunc func(p *packet.Packet, reason DropReason)

// nbrAdvert is a neighbor's last advertised buffer state for one queue.
type nbrAdvert struct {
	queue packet.QueueID
	free  bool
	at    time.Duration
}

// nbrSlot holds the adverts heard from the neighbor at one slot of this
// node's Tx neighbor list: that neighbor's per-queue states in
// first-heard order. id is noNeighbor while the slot has heard nothing
// since the last reset.
type nbrSlot struct {
	id  topology.NodeID
	ads []nbrAdvert
}

// noNeighbor marks an empty slot.
const noNeighbor topology.NodeID = -1

// findAdvert returns the index of queue q's entry in ads, or -1. The
// search starts at from (at most len(ads)) and wraps around once. A
// neighbor lists its queues in creation order every time, so a search
// that resumes after the previous match finds the next queue at once,
// and a whole advert costs one pass over the entries.
func findAdvert(ads []nbrAdvert, q packet.QueueID, from int) int {
	for k := from; k < len(ads); k++ {
		if ads[k].queue == q {
			return k
		}
	}
	for k := 0; k < from; k++ {
		if ads[k].queue == q {
			return k
		}
	}
	return -1
}

// entry is one queued packet and the virtual time this node admitted it,
// from which the hop's sojourn is measured. The packet itself is shared
// by every hop, so the time lives here.
type entry struct {
	pkt *packet.Packet
	at  time.Duration
}

// fifo is one packet FIFO, pkts[head:]. Pops advance head instead of
// re-slicing, so the backing array is kept and its consumed prefix is
// reclaimed (by pushFront, or by compaction when a push finds it full).
type fifo struct {
	pkts []entry
	head int
}

func (f *fifo) len() int { return len(f.pkts) - f.head }

func (f *fifo) push(e entry) {
	if f.head > 0 && len(f.pkts) == cap(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		clear(f.pkts[n:])
		f.pkts, f.head = f.pkts[:n], 0
	}
	f.pkts = append(f.pkts, e)
}

func (f *fifo) pop() entry {
	e := f.pkts[f.head]
	f.pkts[f.head] = entry{}
	f.head++
	if f.head == len(f.pkts) {
		f.pkts, f.head = f.pkts[:0], 0
	}
	return e
}

// pushFront re-admits e at the head (MAC retry-exhaustion requeue).
func (f *fifo) pushFront(e entry) {
	if f.head == 0 {
		f.pkts = append(f.pkts, entry{})
		copy(f.pkts[1:], f.pkts)
	} else {
		f.head--
	}
	f.pkts[f.head] = e
}

// queue is one packet queue: subs[i] is the FIFO of packets from
// origins[i], served round-robin from rr. Under fair aggregation each
// packet origin (the local source or an upstream neighbor) gets its own
// FIFO, so a chatty local source cannot crowd relayed traffic out of a
// shared per-destination queue; origins join in first-push order and
// stay. Otherwise every origin maps to subs[0], and the queue is one
// FIFO.
type queue struct {
	id   packet.QueueID
	fair bool

	subs    []fifo
	origins []topology.NodeID
	rr      int
	total   int

	fullSince time.Duration // -1 when not full
	fullAccum time.Duration

	// localWasFull tracks the local origin's quota (fair mode), so the
	// queue-open waiters fire when the *local* sub-queue opens even if
	// other origins keep the queue as a whole busy.
	localWasFull bool
}

func (q *queue) length() int { return q.total }

// find returns the index of origin o's FIFO in subs, or -1 if it has
// none yet.
func (q *queue) find(o topology.NodeID) int {
	if q.fair {
		return slices.Index(q.origins, o)
	}
	return len(q.subs) - 1 // the one FIFO, once it exists
}

// sub returns origin o's FIFO, starting one if it has none.
func (q *queue) sub(o topology.NodeID) *fifo {
	i := q.find(o)
	if i < 0 {
		i = len(q.subs)
		q.subs = append(q.subs, fifo{})
		q.origins = append(q.origins, o)
	}
	return &q.subs[i]
}

// push admits e at the tail of its origin's FIFO.
func (q *queue) push(e entry, origin topology.NodeID) {
	q.sub(origin).push(e)
	q.total++
}

// pushFront re-admits e at the head of its origin's FIFO (MAC
// retry-exhaustion requeue), keeping its original admission time.
func (q *queue) pushFront(e entry, origin topology.NodeID) {
	q.sub(origin).pushFront(e)
	q.total++
}

// next returns the index of the FIFO the next pop serves, or -1 when
// the queue is empty.
func (q *queue) next() int {
	for k, i := 0, q.rr; k < len(q.subs); k++ {
		if q.subs[i].len() > 0 {
			return i
		}
		if i++; i == len(q.subs) {
			i = 0
		}
	}
	return -1
}

func (q *queue) peek() *packet.Packet {
	i := q.next()
	if i < 0 {
		return nil
	}
	f := &q.subs[i]
	return f.pkts[f.head].pkt
}

// pop serves the next FIFO and moves round-robin past it.
func (q *queue) pop() (entry, topology.NodeID) {
	i := q.next()
	if i < 0 {
		panic("forwarding: pop from empty queue")
	}
	q.total--
	if q.rr = i + 1; q.rr == len(q.subs) {
		q.rr = 0
	}
	return q.subs[i].pop(), q.origins[i]
}

// Node is the forwarding engine of one physical node. It implements
// mac.Client.
type Node struct {
	id     topology.NodeID
	sched  *sim.Scheduler
	cfg    Config
	routes *routing.Table
	mac    *mac.Station
	sink   SinkFunc
	drop   DropFunc

	// queues, meters, received, openWaiters and kickFn are made on first
	// write: most nodes of a large network never queue a packet.
	queues   map[packet.QueueID]*queue
	order    []*queue // round-robin order (creation order)
	rrOffset int

	// Neighbor adverts by slot, the sender's position in this node's Tx
	// neighbor list (see OnOverhear), up to the highest slot heard since
	// the last ResetNeighborState. An entry stays until the reset even
	// after the neighbor stops listing its queue.
	slots []nbrSlot

	kickTimer sim.Timer
	kickFn    func() // scheduleKick's callback, bound once

	// out is the record NextOutgoing hands the MAC; see mac.Client.
	out mac.Outgoing

	// meters and received are the per-virtual-link send and receive
	// meters, recorded only once a reader turned them on (RecordMeters).
	meters        map[VLinkKey]*VLinkMeter
	received      map[VLinkKey]*VLinkMeter
	meterSent     bool
	meterReceived bool

	openWaiters map[packet.QueueID][]func()
	// waiterFree recycles emptied waiter lists: touchFullState swaps one
	// in before firing the old list, so wake-ups allocate no new list.
	waiterFree [][]func()

	broadcastHandler func(from topology.NodeID, payload any)

	// probe reaches the run's observers (nil when all are off). They see
	// admissions, refused source packets, requeues, acknowledged forwards
	// with their sojourn since admission, deliveries and drops.
	probe *obs.Probe
}

var (
	_ mac.Client            = (*Node)(nil)
	_ mac.BroadcastReceiver = (*Node)(nil)
)

// NewNode builds the forwarding engine for node id. It allocates only
// the Node; its queues, meters and waiter lists are made on first use.
// Attach the MAC station with SetMAC before the simulation starts.
func NewNode(id topology.NodeID, sched *sim.Scheduler, cfg Config, routes *routing.Table, sink SinkFunc, drop DropFunc) *Node {
	if cfg.QueueSlots <= 0 {
		panic(fmt.Sprintf("forwarding: non-positive queue capacity %d", cfg.QueueSlots))
	}
	if sink == nil {
		sink = func(*packet.Packet, topology.NodeID) {}
	}
	if drop == nil {
		drop = func(*packet.Packet, DropReason) {}
	}
	return &Node{
		id:     id,
		sched:  sched,
		cfg:    cfg,
		routes: routes,
		sink:   sink,
		drop:   drop,
	}
}

// SetMAC attaches the MAC station (resolves the construction cycle between
// the two layers).
func (n *Node) SetMAC(st *mac.Station) { n.mac = st }

// SetProbe installs the run's observers (nil disables, the default).
// They never influence queueing decisions, so installing them cannot
// change simulation behavior.
func (n *Node) SetProbe(p *obs.Probe) { n.probe = p }

// dropPkt reports a packet loss at this node: the observers attribute
// it to the node, then the statistics callback runs.
func (n *Node) dropPkt(p *packet.Packet, reason DropReason) {
	if n.probe != nil {
		n.probe.Tel.PacketDropped(n.id, p.Flow)
		n.probe.Spans.Dropped(n.id, p, reason.String())
		if n.probe.Events != nil {
			n.probe.Events.Record(trace.Event{
				At:     n.sched.Now(),
				Kind:   trace.KindDrop,
				Node:   n.id,
				Peer:   -1,
				Detail: fmt.Sprintf("%s %s", p, reason),
			})
		}
	}
	n.drop(p, reason)
}

// SetRoutes swaps in a new routing table (fault-driven route repair).
// The table is consulted live at every dequeue, so already-queued
// packets follow the new routes from their next transmission on. The
// MAC is kicked because packets previously unroutable may have become
// eligible.
func (n *Node) SetRoutes(t *routing.Table) {
	n.routes = t
	if n.mac != nil {
		n.mac.Kick()
	}
}

// DropAll empties every queue, reporting each packet with the given
// reason. Used when the node crashes: a dead node's buffers do not
// survive. Queue-open waiters may fire (the queues just opened); flow
// sources must already be halted so they do not refill a dead node.
func (n *Node) DropAll(reason DropReason) {
	for _, q := range n.order {
		for q.length() > 0 {
			e, _ := q.pop()
			n.dropPkt(e.pkt, reason)
		}
		n.touchFullState(q)
	}
}

// HasQueue reports whether the node currently holds state for the
// queue (teardown-regression tests).
func (n *Node) HasQueue(id packet.QueueID) bool {
	_, ok := n.queues[id]
	return ok
}

// ReleaseQueueIfIdle removes an *empty* queue's bookkeeping: the queue
// struct, its round-robin slot, its piggyback advertisement, and any
// queue-open waiters (a departed flow's waiter must never fire again).
// Called on flow departure so a long run with churn does not leak one
// queue per flow that ever existed; a non-empty queue is left alone
// (the packets still need to drain — call again later). Safe against
// stragglers: queueFor auto-creates, so a late in-flight packet simply
// re-materializes the queue. Returns whether the queue is gone.
func (n *Node) ReleaseQueueIfIdle(id packet.QueueID) bool {
	q, ok := n.queues[id]
	if !ok {
		return true
	}
	if q.length() > 0 {
		return false
	}
	delete(n.queues, id)
	delete(n.openWaiters, id)
	i := slices.Index(n.order, q)
	n.order = slices.Delete(n.order, i, i+1)
	if len(n.order) == 0 {
		n.rrOffset = 0
	} else {
		n.rrOffset %= len(n.order)
	}
	return true
}

// ResetNeighborState forgets all cached neighbor buffer-state
// advertisements. Used on topology change: stale "full" entries from a
// node that crashed (or from before a reroute) would otherwise suppress
// transmissions toward neighbors whose state is simply unknown now. It
// must also run whenever the adjacency changes, since the slots the
// adverts are filed under move then; the session's reroute does both.
func (n *Node) ResetNeighborState() {
	n.slots = n.slots[:0]
}

// advert returns neighbor nb's last advertised state for queue q. It
// scans the slots: a pull reads it once per queue, far less often than
// adverts arrive.
func (n *Node) advert(nb topology.NodeID, q packet.QueueID) (nbrAdvert, bool) {
	for i := range n.slots {
		if sl := &n.slots[i]; sl.id == nb {
			if k := findAdvert(sl.ads, q, 0); k >= 0 {
				return sl.ads[k], true
			}
			return nbrAdvert{}, false
		}
	}
	return nbrAdvert{}, false
}

// SetBroadcastHandler routes decoded control broadcasts (link-state
// dissemination) to the given callback.
func (n *Node) SetBroadcastHandler(fn func(from topology.NodeID, payload any)) {
	n.broadcastHandler = fn
}

// OnBroadcast implements mac.BroadcastReceiver.
func (n *Node) OnBroadcast(from topology.NodeID, payload any) {
	if n.broadcastHandler != nil {
		n.broadcastHandler(from, payload)
	}
}

// ID returns the node this engine belongs to.
func (n *Node) ID() topology.NodeID { return n.id }

// Config returns the node's forwarding configuration.
func (n *Node) Config() Config { return n.cfg }

func (n *Node) queueFor(id packet.QueueID) *queue {
	q, ok := n.queues[id]
	if !ok {
		if n.queues == nil {
			n.queues = make(map[packet.QueueID]*queue)
		}
		q = &queue{id: id, fair: n.cfg.FairAggregation, fullSince: -1}
		n.queues[id] = q
		n.order = append(n.order, q)
	}
	return q
}

// full reports whether the queue can admit nothing more: every FIFO is
// at its quota. Under fair aggregation a new origin can always start a
// FIFO, which the admission paths handle through fullFor.
func (n *Node) full(q *queue) bool {
	for i := range q.subs {
		if q.subs[i].len() < n.cfg.QueueSlots {
			return false
		}
	}
	return len(q.subs) > 0
}

// fullFor reports whether the queue can admit a packet from origin o.
func (n *Node) fullFor(q *queue, o topology.NodeID) bool {
	i := q.find(o)
	return i >= 0 && q.subs[i].len() >= n.cfg.QueueSlots
}

// touchFullState updates the queue's full-time accounting after a
// length change.
func (n *Node) touchFullState(q *queue) {
	now := n.sched.Now()
	if n.full(q) {
		if q.fullSince < 0 {
			q.fullSince = now
		}
	} else if q.fullSince >= 0 {
		q.fullAccum += now - q.fullSince
		q.fullSince = -1
	}
	// Queue-open waiters care about local admission, which under fair
	// aggregation is the local origin's own quota. The flag is updated
	// before firing and recomputed after: a waiter typically refills the
	// freed slot reentrantly (source resumes -> Enqueue -> touch), and a
	// stale write-back here would strand the flag at "not full" while
	// the sub-queue is full again, silencing all future wake-ups.
	localFull := n.fullFor(q, n.id)
	wasFull := q.localWasFull
	q.localWasFull = localFull
	if wasFull && !localFull {
		if waiters := n.openWaiters[q.id]; len(waiters) > 0 {
			// A waiter may register again, even through a nested touch,
			// so it must find an empty list, not the one being fired.
			var next []func()
			if k := len(n.waiterFree); k > 0 {
				next = n.waiterFree[k-1]
				n.waiterFree = n.waiterFree[:k-1]
			}
			n.openWaiters[q.id] = next
			for _, fn := range waiters {
				fn()
			}
			clear(waiters)
			n.waiterFree = append(n.waiterFree, waiters[:0])
		}
		q.localWasFull = n.fullFor(q, n.id)
	}
}

// NotifyQueueOpen registers a one-shot callback fired the next time queue
// id transitions from full to unfull. Flow sources use it to resume packet
// generation when local backpressure releases (§2.2).
func (n *Node) NotifyQueueOpen(id packet.QueueID, fn func()) {
	if n.openWaiters == nil {
		n.openWaiters = make(map[packet.QueueID][]func())
	}
	n.openWaiters[id] = append(n.openWaiters[id], fn)
}

// QueueLen returns the current length of queue id (0 if absent).
func (n *Node) QueueLen(id packet.QueueID) int {
	if q, ok := n.queues[id]; ok {
		return q.length()
	}
	return 0
}

// TotalQueued returns the total number of packets currently buffered at
// this node across all queues (telemetry sampling).
func (n *Node) TotalQueued() int {
	total := 0
	for _, q := range n.order {
		total += q.length()
	}
	return total
}

// Queues returns the IDs of the queues this node has instantiated, in
// creation order. Under per-destination queueing these are the node's
// served destinations (its virtual nodes).
func (n *Node) Queues() []packet.QueueID {
	ids := make([]packet.QueueID, len(n.order))
	for i, q := range n.order {
		ids[i] = q.id
	}
	return ids
}

// Enqueue admits a locally generated packet into the appropriate queue.
// It reports false when the queue is full: per §2.1 the source always
// slows down when its local buffer is full ("the flow source will
// generate new packets at a smaller rate if the network cannot deliver
// its desirable rate"); tail overwrite applies only to relayed arrivals.
// A refused packet opens its source-blocked span.
func (n *Node) Enqueue(p *packet.Packet) bool {
	q := n.queueFor(n.cfg.Mode.QueueKey(p))
	if n.fullFor(q, n.id) {
		if n.probe != nil {
			n.probe.Spans.SourceBlocked(p)
		}
		return false
	}
	q.push(entry{p, n.sched.Now()}, n.id)
	if n.probe != nil {
		n.probe.Spans.Admitted(n.id, p)
	}
	n.touchFullState(q)
	if n.mac != nil {
		n.mac.Kick()
	}
	return true
}

// NextOutgoing implements mac.Client: round-robin over queues, skipping
// (under congestion avoidance) queues whose downstream buffer is full.
func (n *Node) NextOutgoing() *mac.Outgoing {
	if len(n.order) == 0 {
		return nil
	}
	var earliestRetry time.Duration = -1
	now := n.sched.Now()
	for k := 0; k < len(n.order); k++ {
		q := n.order[(n.rrOffset+k)%len(n.order)]
		head := q.peek()
		if head == nil {
			continue
		}
		nh, ok := n.routes.NextHop(n.id, head.Dst)
		if !ok {
			q.pop()
			n.touchFullState(q)
			n.dropPkt(head, DropNoRoute)
			k-- // re-examine the same queue
			continue
		}
		if n.cfg.CongestionAvoidance && nh != head.Dst {
			if entry, known := n.advert(nh, q.id); known && !entry.free {
				age := now - entry.at
				if age < n.cfg.StaleAfter {
					retryAt := entry.at + n.cfg.StaleAfter
					if earliestRetry < 0 || retryAt < earliestRetry {
						earliestRetry = retryAt
					}
					continue // blocked by downstream backpressure
				}
			}
		}
		e, origin := q.pop()
		n.touchFullState(q)
		n.rrOffset = (n.rrOffset + k + 1) % len(n.order)
		n.out = mac.Outgoing{Pkt: e.pkt, NextHop: nh, Queue: q.id, Origin: origin, Admitted: e.at}
		return &n.out
	}
	if earliestRetry >= 0 {
		n.scheduleKick(earliestRetry)
	}
	return nil
}

func (n *Node) scheduleKick(at time.Duration) {
	if n.kickTimer.Pending() {
		return
	}
	if n.kickFn == nil {
		n.kickFn = func() {
			if n.mac != nil {
				n.mac.Kick()
			}
		}
	}
	n.kickTimer = n.sched.At(at, n.kickFn)
}

// OnSendComplete implements mac.Client. It works on a copy of *out, which
// may be this node's own record: a Kick below can refill it.
func (n *Node) OnSendComplete(o *mac.Outgoing, ok bool) {
	out := *o
	if !ok {
		if !n.cfg.CongestionAvoidance {
			n.dropPkt(out.Pkt, DropRetry)
			return
		}
		// The in-flight packet logically kept its buffer slot, so the
		// prepend may transiently exceed the configured capacity by one
		// if upstream refilled the freed slot meanwhile.
		q := n.queueFor(n.cfg.Mode.QueueKey(out.Pkt))
		q.pushFront(entry{out.Pkt, out.Admitted}, out.Origin)
		if n.probe != nil {
			n.probe.Spans.Requeued(n.id, out.Pkt)
		}
		n.touchFullState(q)
		if n.mac != nil {
			n.mac.Kick()
		}
		return
	}
	if n.probe != nil {
		n.probe.Tel.HopForwarded(n.id, out.Pkt.Flow, n.sched.Now()-out.Admitted)
	}
	if n.meterSent {
		meter(&n.meters, VLinkKey{From: n.id, To: out.NextHop, Queue: n.cfg.Mode.QueueKey(out.Pkt)}, out.Pkt)
	}
}

// meter counts packet p on virtual link key in *meters, making the map
// and the meter on first use.
func meter(meters *map[VLinkKey]*VLinkMeter, key VLinkKey, p *packet.Packet) {
	m := (*meters)[key]
	if m == nil {
		if *meters == nil {
			*meters = make(map[VLinkKey]*VLinkMeter)
		}
		m = &VLinkMeter{}
		(*meters)[key] = m
	}
	m.Sent++
	if p.Stamped {
		observePrimary(&m.Primary, p)
	}
}

// observePrimary folds a stamped packet into the primary-flow tracking of
// a virtual link: strictly larger normalized rates reset the set, equal
// rates join it.
func observePrimary(pi *PrimaryInfo, p *packet.Packet) {
	const eps = 1e-9
	switch {
	case p.NormRate > pi.NormRate+eps:
		pi.NormRate = p.NormRate
		pi.Flows = map[packet.FlowID]topology.NodeID{p.Flow: p.Src}
	case p.NormRate >= pi.NormRate-eps:
		if pi.Flows == nil {
			pi.Flows = make(map[packet.FlowID]topology.NodeID)
		}
		pi.Flows[p.Flow] = p.Src
	}
}

// OnReceive implements mac.Client: consume at the destination or enqueue
// for the next hop. Under congestion avoidance a full queue can still
// receive in rare races (the CTS admission check passed an exchange ago);
// the packet is admitted with transient overflow rather than lost, since
// the scheme is loss-free by design (ref [3]). Without it the arrival
// overwrites the tail of its origin's FIFO (plain 802.11, §7.2).
func (n *Node) OnReceive(p *packet.Packet, from topology.NodeID) {
	if n.meterReceived {
		meter(&n.received, VLinkKey{From: from, To: n.id, Queue: n.cfg.Mode.QueueKey(p)}, p)
	}
	if p.Dst == n.id {
		if n.probe != nil {
			n.probe.Tel.Delivered(p.Flow, n.sched.Now()-p.Created)
			n.probe.Spans.Delivered(p)
		}
		n.sink(p, from)
		return
	}
	q := n.queueFor(n.cfg.Mode.QueueKey(p))
	if !n.cfg.CongestionAvoidance && n.fullFor(q, from) {
		f := q.sub(from)
		tail := &f.pkts[len(f.pkts)-1]
		lost := tail.pkt
		*tail = entry{p, n.sched.Now()}
		if n.probe != nil {
			n.probe.Spans.Admitted(n.id, p)
		}
		n.dropPkt(lost, DropTail)
		return
	}
	q.push(entry{p, n.sched.Now()}, from)
	if n.probe != nil {
		n.probe.Spans.Admitted(n.id, p)
	}
	n.touchFullState(q)
	if n.mac != nil {
		n.mac.Kick()
	}
}

// AcceptQueue implements mac.Client: the congestion-avoidance admission
// check run by a receiver before granting CTS (ref [3]). Without
// congestion avoidance everything is admitted (and overflow handled at
// enqueue time). Under fair aggregation the check applies the sender's
// own per-origin quota.
func (n *Node) AcceptQueue(id packet.QueueID, from topology.NodeID) bool {
	if !n.cfg.CongestionAvoidance {
		return true
	}
	q, ok := n.queues[id]
	if !ok {
		return true
	}
	return !n.fullFor(q, from)
}

// AppendPiggyback implements mac.Client: advertise one free/full bit per
// owned queue (§2.2). Without congestion avoidance it advertises
// nothing: no node of such a network gates on the bits, and an advert
// that opens room can only Kick a MAC that has no work waiting, since
// every enqueue and route change kicks already.
func (n *Node) AppendPiggyback(dst []packet.QueueState) []packet.QueueState {
	if !n.cfg.CongestionAvoidance {
		return dst
	}
	for _, q := range n.order {
		dst = append(dst, packet.QueueState{Queue: q.id, Free: !n.full(q)})
	}
	return dst
}

// OnOverhear implements mac.Client: cache a neighbor's advertised buffer
// states under its slot and wake the MAC if new room opened downstream.
func (n *Node) OnOverhear(from topology.NodeID, slot int, states []packet.QueueState) {
	if n.cacheAdvert(from, slot, states) && n.mac != nil {
		n.mac.Kick()
	}
}

// cacheAdvert merges from's advert into the neighbor state at slot,
// queue by queue, and reports whether it opened room: a free state for a
// queue that was unknown or last seen full. Between resets a slot names
// one neighbor; should another claim it (an adjacency change without a
// reset), the slot is reset first, so it never mixes two neighbors'
// states.
func (n *Node) cacheAdvert(from topology.NodeID, slot int, states []packet.QueueState) bool {
	if len(states) == 0 {
		return false
	}
	if slot >= len(n.slots) {
		// Reuse the entry lists a reset left beyond the end.
		k := len(n.slots)
		n.slots = slices.Grow(n.slots, slot+1-k)[:slot+1]
		for ; k <= slot; k++ {
			n.slots[k] = nbrSlot{id: noNeighbor, ads: n.slots[k].ads[:0]}
		}
	}
	sl := &n.slots[slot]
	if sl.id != from {
		sl.id, sl.ads = from, sl.ads[:0]
	}
	ads := sl.ads
	now := n.sched.Now()
	opened := false
	next := 0
	for _, st := range states {
		k := findAdvert(ads, st.Queue, next)
		if k < 0 {
			k = len(ads)
			ads = append(ads, nbrAdvert{queue: st.Queue})
			opened = opened || st.Free
		} else if st.Free && !ads[k].free {
			opened = true
		}
		ads[k].free, ads[k].at = st.Free, now
		next = k + 1
	}
	sl.ads = ads
	return opened
}

// RecordMeters turns on the per-virtual-link meters for the reader that
// takes them: the send meters (TakeMeters), and the receive meters
// (TakeReceived) too when received is set. Until a reader turns them on,
// a hop records nothing; turning them on again only adds.
func (n *Node) RecordMeters(received bool) {
	n.meterSent = true
	n.meterReceived = n.meterReceived || received
}

// TakeMeters returns the per-virtual-link send meters accumulated since
// the previous call and resets them. Called once per measurement period.
// A node that recorded nothing returns nil and keeps its empty map.
func (n *Node) TakeMeters() map[VLinkKey]*VLinkMeter {
	return take(&n.meters)
}

// TakeReceived returns the per-virtual-link receive meters accumulated
// since the previous call and resets them. Per §6.2 both endpoints of a
// virtual link learn its rate, normalized rate, and primary flows from
// the packets themselves; these are the receiver's copies.
func (n *Node) TakeReceived() map[VLinkKey]*VLinkMeter {
	return take(&n.received)
}

// take hands out *m and leaves a fresh map sized like it, or returns nil
// when *m holds nothing.
func take(m *map[VLinkKey]*VLinkMeter) map[VLinkKey]*VLinkMeter {
	out := *m
	if len(out) == 0 {
		return nil
	}
	*m = make(map[VLinkKey]*VLinkMeter, len(out))
	return out
}

// FullFraction returns the fraction Ω of the elapsed period during which
// queue id was full, and resets the accumulator (§6.2 "Buffer State").
func (n *Node) FullFraction(id packet.QueueID, period time.Duration) float64 {
	q, ok := n.queues[id]
	if !ok || period <= 0 {
		return 0
	}
	now := n.sched.Now()
	acc := q.fullAccum
	if q.fullSince >= 0 {
		acc += now - q.fullSince
		q.fullSince = now
	}
	q.fullAccum = 0
	if acc > period {
		acc = period
	}
	return float64(acc) / float64(period)
}

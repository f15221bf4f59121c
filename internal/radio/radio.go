// Package radio models the shared wireless channel: frame airtimes, the
// broadcast medium with carrier sensing, and overlap-based collisions.
//
// The model is the standard "protocol model" used by packet-level 802.11
// simulators: a frame from node s is decodable at node n within the
// transmission range, and is corrupted at n if any other transmission
// whose source lies within interference (carrier-sense) range of n
// overlaps it in time, or if n itself transmits during the reception.
// Hidden-terminal collisions therefore emerge from geometry rather than
// being scripted.
package radio

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/span"
	"gmp/internal/topology"
	"gmp/internal/trace"
)

// FrameKind enumerates the four 802.11 DCF frame types the simulator uses.
type FrameKind int

// Frame kinds, in exchange order, plus the broadcast control frame used
// by the link-state dissemination protocol (§6.2 step 2).
const (
	FrameRTS FrameKind = iota + 1
	FrameCTS
	FrameData
	FrameAck
	FrameBroadcast
)

// Broadcast is the pseudo-receiver of broadcast frames.
const Broadcast topology.NodeID = -1

// String returns the conventional frame-type name.
func (k FrameKind) String() string {
	switch k {
	case FrameRTS:
		return "RTS"
	case FrameCTS:
		return "CTS"
	case FrameData:
		return "DATA"
	case FrameAck:
		return "ACK"
	case FrameBroadcast:
		return "BCAST"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// Frame is one physical transmission on the channel.
type Frame struct {
	Kind FrameKind
	// From transmits the frame; To is the intended receiver.
	From topology.NodeID
	To   topology.NodeID
	// LinkFrom/LinkTo name the directed data link the frame serves (for
	// a CTS or ACK this is the reverse of From->To). Used for
	// channel-occupancy accounting per wireless link (§6.2).
	LinkFrom topology.NodeID
	LinkTo   topology.NodeID
	// NAV is the duration, beyond the end of this frame, for which the
	// rest of the exchange reserves the channel. Overhearing nodes set
	// their network-allocation vector from it (virtual carrier sense).
	NAV time.Duration
	// Data is the network-layer packet (FrameData only).
	Data *packet.Packet
	// Queue names the receiver-side queue the pending data packet will
	// enter (RTS and DATA frames). The receiver withholds its CTS when
	// that queue is full — the congestion-avoidance admission check of
	// ref [3] ("send ... only when j has enough free buffer space").
	Queue packet.QueueID
	// States is the transmitter's piggybacked buffer-state advertisement
	// (§2.2), attached to every frame.
	States []packet.QueueState
	// Control is the payload of a FrameBroadcast (link-state records or
	// other protocol control content); ControlBytes sizes its airtime.
	Control      any
	ControlBytes int
	// ID is unique per transmission, usable for duplicate detection.
	ID int64

	// pooled marks a frame handed out by Medium.NewFrame; only those
	// return to the medium's pool after delivery.
	pooled bool
}

// Station is the per-node MAC entity's view of the channel. The medium
// invokes these callbacks; all run on the simulation goroutine.
type Station interface {
	// OnBusy fires when the medium at this node transitions from idle to
	// busy due to another node's transmission within carrier-sense range.
	OnBusy()
	// OnIdle fires on the reverse transition. The node's own
	// transmissions are not part of this signal.
	OnIdle()
	// OnFrame delivers a frame whose transmitter is within transmission
	// range, at the instant the transmission ends. ok is false when the
	// frame was corrupted at this node (collision, self-transmission
	// overlap, or injected loss). Frames not addressed to the node are
	// still delivered (overhearing) so it can set its NAV and read
	// piggybacked state.
	//
	// OnFrame must not keep f or f.States after it returns: a frame from
	// NewFrame is recycled once every receiver has seen it. Copy what
	// outlives the call; f.Data and f.Control may be kept.
	OnFrame(f *Frame, ok bool)
}

// Params are the PHY/MAC timing constants.
type Params struct {
	DataRateMbps   float64       // payload bit rate (paper: 11 Mbps)
	CtrlRateMbps   float64       // RTS/CTS/ACK bit rate (basic rate)
	Preamble       time.Duration // PLCP preamble+header per frame
	MACHeaderBytes int           // MAC overhead added to data payloads
	RTSBytes       int
	CTSBytes       int
	ACKBytes       int
	SlotTime       time.Duration
	SIFS           time.Duration
	DIFS           time.Duration
	CWMin          int // initial contention window (slots-1), e.g. 31
	CWMax          int // maximum contention window, e.g. 1023
	RetryLimit     int // attempts before a frame is dropped
	// LossProb corrupts each frame-at-receiver independently with the
	// given probability (failure injection; 0 in the paper's setup).
	LossProb float64
}

// DefaultParams returns IEEE 802.11b DCF constants matching the paper's
// 11 Mbps channel with 1024-byte data packets.
func DefaultParams() Params {
	return Params{
		DataRateMbps:   11,
		CtrlRateMbps:   1,
		Preamble:       96 * time.Microsecond,
		MACHeaderBytes: 28,
		RTSBytes:       20,
		CTSBytes:       14,
		ACKBytes:       14,
		SlotTime:       20 * time.Microsecond,
		SIFS:           10 * time.Microsecond,
		DIFS:           50 * time.Microsecond,
		CWMin:          31,
		CWMax:          1023,
		RetryLimit:     7,
	}
}

// Airtime returns the on-air duration of a frame of the given kind
// carrying dataBytes of payload (data frames only).
func (p Params) Airtime(kind FrameKind, dataBytes int) time.Duration {
	bits := 0
	rate := p.CtrlRateMbps
	switch kind {
	case FrameRTS:
		bits = p.RTSBytes * 8
	case FrameCTS:
		bits = p.CTSBytes * 8
	case FrameAck:
		bits = p.ACKBytes * 8
	case FrameData:
		bits = (p.MACHeaderBytes + dataBytes) * 8
		rate = p.DataRateMbps
	case FrameBroadcast:
		// Control broadcasts go at the basic rate, like management
		// frames, so every neighbor can decode them.
		bits = (p.MACHeaderBytes + dataBytes) * 8
	default:
		panic(fmt.Sprintf("radio: unknown frame kind %d", int(kind)))
	}
	return p.Preamble + time.Duration(float64(bits)/rate)*time.Microsecond
}

// SaturationRate estimates the packet rate (packets/second) of a single
// fully backlogged link with no contenders: one DIFS, the mean initial
// backoff, and the full frame exchange per packet. It ignores collisions,
// so it is an upper bound used for capacity estimation (clique capacity in
// the 2PP baseline and the maxmin reference solver).
func (p Params) SaturationRate(dataBytes int, useRTS bool) float64 {
	exchange := p.DIFS +
		time.Duration(p.CWMin)*p.SlotTime/2 +
		p.Airtime(FrameData, dataBytes) + p.SIFS + p.Airtime(FrameAck, 0)
	if useRTS {
		exchange += p.Airtime(FrameRTS, 0) + p.Airtime(FrameCTS, 0) + 2*p.SIFS
	}
	return float64(time.Second) / float64(exchange)
}

// Stats aggregates channel-level counters for tests and reporting.
//
// All counters are per-receiver delivery events, not per-frame: one
// broadcast frame heard by k in-range nodes contributes k to
// Delivered+Corrupted. In particular InjectedLosses counts corruption
// *events at individual receivers* caused by injected loss (global
// LossProb, per-link loss, or per-node receive loss) — a single frame
// can add more than one when several receivers independently draw a
// loss. Counters are updated atomically, so Stats() may be called from
// goroutines other than the simulation goroutine (e.g. a progress
// monitor) without a data race.
type Stats struct {
	Transmissions  int64 // frames put on the air
	Corrupted      int64 // frame deliveries that failed
	Delivered      int64 // frame deliveries that succeeded (incl. overhears)
	InjectedLosses int64 // per-receiver corruptions caused by injected loss
	// DownSkipped counts deliveries suppressed because the receiver was
	// crashed (fault injection); these are neither Delivered nor Corrupted.
	DownSkipped int64
	// ControlFrames and ControlAirtime account the in-band link-state
	// dissemination traffic (zero when control runs out of band).
	ControlFrames  int64
	ControlAirtime time.Duration
}

// Medium is the shared broadcast channel.
//
// The per-frame hot path is allocation-free in steady state, and its
// work is O(degree) of the transmitter, independent of how many other
// frames are on the air: propagation, carrier sensing and interference
// marking all iterate the transmitter's precomputed neighbor lists
// against per-node counters and stamps, never the set of in-flight
// transmissions. Per-link state lives in dense slices keyed by the
// topology's link index, frame airtimes are memoized per (kind, size),
// and transmission records and frames are pooled across frames.
//
// Interference marking. A reception of frame t at receiver n fails when
// some other carrier reaches n (n lies in its carrier-sense range, or n
// is its transmitter) at any instant while t is on the air. Such a
// carrier either was already present when t started — then busy[n] > 0
// or n is on the air, checked once in Transmit — or started later, and
// then it stamped lastHit[n] with a sequence number above t's, checked
// once in finish.
type Medium struct {
	sched    *sim.Scheduler
	topo     *topology.Topology
	params   Params
	rng      *rand.Rand
	stations []Station

	// onAir holds each node's in-flight transmission, nil while the node
	// is silent: a node never has two frames on the air at once.
	onAir    []*transmission
	busy     []int // per node: count of foreign carriers sensed
	frameSeq int64
	// lastHit[n] is the sequence number of the latest transmission whose
	// carrier reached node n. jamMark is finish's scratch: jamMark[n]
	// equals the finishing transmission's sequence number exactly when
	// its reception at n is corrupted.
	lastHit []int64
	jamMark []int64

	// Fault-injection state (see internal/faults). down nodes neither
	// transmit nor receive; linkLoss/nodeLoss add per-link and
	// per-receiver loss probabilities on top of the global params.LossProb.
	// linkLoss is indexed by the topology's dense link index, with
	// linkLossCount gating the per-delivery lookup; linkLossFar holds
	// entries for node pairs outside transmission range (settable for
	// symmetry, but such pairs never see a delivery).
	down          []bool
	linkLoss      []float64
	linkLossCount int
	linkLossFar   map[topology.Link]float64
	nodeLoss      []float64

	// occupancy accumulates per-link airtime by dense link index;
	// occupancyFar catches frames whose LinkFrom→LinkTo pair is not a
	// topology link (the MAC never produces these, but tests may).
	occupancy    []time.Duration
	occupancyFar map[topology.Link]time.Duration

	// Memoized airtimes: control frames are constants of the Params;
	// data and broadcast frames are cached per payload size.
	rtsAir, ctsAir, ackAir time.Duration
	dataAir                map[int]time.Duration
	bcastAir               map[int]time.Duration

	// txFree recycles transmission records (and their jammed lists)
	// across frames; frameFree recycles NewFrame's frames (and their
	// States arrays).
	txFree    []*transmission
	frameFree []*Frame

	idleScratch []topology.NodeID // reused by finish
	busyBefore  []bool            // scratch for Begin/EndTopologyChange

	stats    Stats
	observer func(trace.Event)
	// rec is the telemetry recorder (nil when telemetry is off; the hot
	// path pays one branch per transmission, see internal/obs).
	rec *obs.Recorder
	// spans is the causal-trace recorder (nil when tracing is off). It
	// observes data-frame airtime and corruption for sampled packets and
	// tracks which transmitter holds each node's carrier sense busy.
	spans *span.Recorder
}

// NewMedium builds the channel for the given topology. Stations register
// afterwards with Register, one per node, before any transmission.
func NewMedium(sched *sim.Scheduler, topo *topology.Topology, params Params, rng *rand.Rand) *Medium {
	return &Medium{
		sched:     sched,
		topo:      topo,
		params:    params,
		rng:       rng,
		stations:  make([]Station, topo.NumNodes()),
		onAir:     make([]*transmission, topo.NumNodes()),
		busy:      make([]int, topo.NumNodes()),
		lastHit:   make([]int64, topo.NumNodes()),
		jamMark:   make([]int64, topo.NumNodes()),
		down:      make([]bool, topo.NumNodes()),
		nodeLoss:  make([]float64, topo.NumNodes()),
		linkLoss:  make([]float64, topo.NumLinks()),
		occupancy: make([]time.Duration, topo.NumLinks()),
		rtsAir:    params.Airtime(FrameRTS, 0),
		ctsAir:    params.Airtime(FrameCTS, 0),
		ackAir:    params.Airtime(FrameAck, 0),
		dataAir:   make(map[int]time.Duration),
		bcastAir:  make(map[int]time.Duration),
	}
}

// Register installs the MAC station for node n.
func (m *Medium) Register(n topology.NodeID, st Station) {
	if m.stations[n] != nil {
		panic(fmt.Sprintf("radio: station %d registered twice", n))
	}
	m.stations[n] = st
}

// Params returns the channel constants.
func (m *Medium) Params() Params { return m.params }

// SetObserver installs a channel-event callback (nil disables). Used by
// the trace facility; adds no cost when unset.
func (m *Medium) SetObserver(fn func(trace.Event)) { m.observer = fn }

// SetRecorder installs the telemetry recorder (nil disables). The
// recorder only accumulates airtime per link; it never mutates channel
// state, so enabling it cannot change simulation behavior.
func (m *Medium) SetRecorder(rec *obs.Recorder) { m.rec = rec }

// SetSpans installs the causal-trace recorder (nil disables, the
// default). Like the telemetry recorder it only observes.
func (m *Medium) SetSpans(r *span.Recorder) { m.spans = r }

func (m *Medium) emit(kind trace.Kind, node, peer topology.NodeID, f *Frame) {
	if m.observer == nil {
		return
	}
	detail := f.Kind.String()
	if f.Data != nil {
		detail += " " + f.Data.String()
	}
	m.observer(trace.Event{
		At:     m.sched.Now(),
		Kind:   kind,
		Node:   node,
		Peer:   peer,
		Detail: detail,
	})
}

// Airtime returns the on-air duration of the given frame. Durations are
// memoized per (kind, payload size): control frames are precomputed
// constants and the data/broadcast sizes in a run form a small set.
func (m *Medium) Airtime(f *Frame) time.Duration {
	switch f.Kind {
	case FrameRTS:
		return m.rtsAir
	case FrameCTS:
		return m.ctsAir
	case FrameAck:
		return m.ackAir
	case FrameBroadcast:
		return m.memoAirtime(m.bcastAir, FrameBroadcast, f.ControlBytes)
	default:
		dataBytes := 0
		if f.Data != nil {
			dataBytes = f.Data.SizeBytes
		}
		return m.memoAirtime(m.dataAir, f.Kind, dataBytes)
	}
}

// DataAirtime returns the memoized on-air duration of a data frame
// carrying dataBytes of payload.
func (m *Medium) DataAirtime(dataBytes int) time.Duration {
	return m.memoAirtime(m.dataAir, FrameData, dataBytes)
}

func (m *Medium) memoAirtime(cache map[int]time.Duration, kind FrameKind, bytes int) time.Duration {
	if d, ok := cache[bytes]; ok {
		return d
	}
	d := m.params.Airtime(kind, bytes)
	cache[bytes] = d
	return d
}

// BusyAt reports whether node n currently senses a foreign carrier. The
// node's own transmission does not count.
func (m *Medium) BusyAt(n topology.NodeID) bool { return m.busy[n] > 0 }

// Transmitting reports whether node n is currently on the air.
func (m *Medium) Transmitting(n topology.NodeID) bool { return m.onAir[n] != nil }

// Stats returns a snapshot of the channel counters. Safe to call from
// any goroutine: the counters are read atomically.
func (m *Medium) Stats() Stats {
	return Stats{
		Transmissions:  atomic.LoadInt64(&m.stats.Transmissions),
		Corrupted:      atomic.LoadInt64(&m.stats.Corrupted),
		Delivered:      atomic.LoadInt64(&m.stats.Delivered),
		InjectedLosses: atomic.LoadInt64(&m.stats.InjectedLosses),
		DownSkipped:    atomic.LoadInt64(&m.stats.DownSkipped),
		ControlFrames:  atomic.LoadInt64(&m.stats.ControlFrames),
		ControlAirtime: time.Duration(atomic.LoadInt64((*int64)(&m.stats.ControlAirtime))),
	}
}

// SetNodeDown marks node n crashed (down=true) or recovered. A down
// node must not transmit (Transmit panics — the MAC layer is expected
// to be halted first) and receives nothing: frames that would reach it
// are counted in Stats.DownSkipped instead of being delivered. A frame
// already on the air when its source crashes still completes — the
// medium models propagation, not the transmitter's state.
func (m *Medium) SetNodeDown(n topology.NodeID, down bool) { m.down[n] = down }

// NodeDown reports whether node n is currently crashed.
func (m *Medium) NodeDown(n topology.NodeID) bool { return m.down[n] }

// SetLinkLoss sets an extra loss probability p in [0,1) for frames
// received over the directed link from→to, composing independently
// with the global LossProb and any per-node receive loss. p = 0 clears
// the entry.
func (m *Medium) SetLinkLoss(from, to topology.NodeID, p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("radio: link loss probability %v outside [0,1)", p))
	}
	if idx := m.topo.LinkIndex(from, to); idx >= 0 {
		if (m.linkLoss[idx] > 0) != (p > 0) {
			if p > 0 {
				m.linkLossCount++
			} else {
				m.linkLossCount--
			}
		}
		m.linkLoss[idx] = p
		return
	}
	// The pair is outside transmission range: no delivery ever consults
	// this entry, but keep it so lossAt answers consistently.
	l := topology.Link{From: from, To: to}
	if p == 0 {
		delete(m.linkLossFar, l)
		return
	}
	if m.linkLossFar == nil {
		m.linkLossFar = make(map[topology.Link]float64)
	}
	m.linkLossFar[l] = p
}

// SetNodeLoss sets an extra loss probability p in [0,1) applied to
// every frame received at node n, composing independently with the
// global and per-link probabilities. p = 0 clears it.
func (m *Medium) SetNodeLoss(n topology.NodeID, p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("radio: node loss probability %v outside [0,1)", p))
	}
	m.nodeLoss[n] = p
}

// lossAt returns the effective injected-loss probability for a frame
// from src received at dst: the independent composition
// 1 − (1−global)·(1−link)·(1−node).
func (m *Medium) lossAt(src, dst topology.NodeID) float64 {
	p := m.params.LossProb
	if m.linkLossCount > 0 || m.linkLossFar != nil {
		var lp float64
		if idx := m.topo.LinkIndex(src, dst); idx >= 0 {
			lp = m.linkLoss[idx]
		} else {
			lp = m.linkLossFar[topology.Link{From: src, To: dst}]
		}
		if lp > 0 {
			p = 1 - (1-p)*(1-lp)
		}
	}
	if np := m.nodeLoss[dst]; np > 0 {
		p = 1 - (1-p)*(1-np)
	}
	return p
}

// TakeOccupancy returns the accumulated per-link airtime since the last
// call and resets the accumulator. This feeds the per-measurement-period
// channel-occupancy measurement (§6.2).
func (m *Medium) TakeOccupancy() map[topology.Link]time.Duration {
	out := make(map[topology.Link]time.Duration)
	for idx, d := range m.occupancy {
		if d != 0 {
			out[m.topo.LinkAt(idx)] = d
			m.occupancy[idx] = 0
		}
	}
	for l, d := range m.occupancyFar {
		out[l] = d
	}
	m.occupancyFar = nil
	return out
}

// BeginTopologyChange must be called immediately before the medium's
// topology is mutated in place (topology.MoveNodes). Carrier-sense busy
// counts were raised against the old CS neighbor lists when each
// in-flight transmission started; this unwinds them (and snapshots each
// node's sensed state) so EndTopologyChange can re-raise them against
// the new lists.
//
// It also freezes each in-flight frame's corruption so far: receivers in
// the old neighbor list that a later carrier reached join the frame's
// jammed list, and only carriers starting after the change count
// against the new neighbor list.
func (m *Medium) BeginTopologyChange() {
	if m.busyBefore == nil {
		m.busyBefore = make([]bool, len(m.busy))
	}
	for n := range m.busy {
		m.busyBefore[n] = m.busy[n] > 0
	}
	for _, tx := range m.inFlight() {
		for _, n := range m.topo.Neighbors(tx.src) {
			if m.lastHit[n] > tx.since {
				tx.jammed = append(tx.jammed, n)
			}
		}
		tx.since = m.frameSeq
		for _, n := range m.topo.CSNeighbors(tx.src) {
			m.busy[n]--
		}
	}
}

// inFlight returns the transmissions on the air in start order.
func (m *Medium) inFlight() []*transmission {
	var flight []*transmission
	for _, tx := range m.onAir {
		if tx != nil {
			flight = append(flight, tx)
		}
	}
	slices.SortFunc(flight, func(a, b *transmission) int { return cmp.Compare(a.seq, b.seq) })
	return flight
}

// EndTopologyChange completes a topology change opened with
// BeginTopologyChange, after the topology was mutated. oldLinks is the
// pre-move dense link slice (Diff.OldLinks): per-link state recorded
// under the old indices — injected link loss and occupancy accounting —
// is re-keyed through the Link values into the new index space, with
// vanished links parked in the far maps and reappeared far entries
// pulled back into the dense slices. In-flight transmissions then
// re-raise carrier sense against the new CS neighbor lists, and any
// node whose sensed state flipped (it walked into or out of an active
// transmitter's CS range) gets the corresponding OnBusy/OnIdle edge.
// Corruption already marked on in-flight frames is kept: interference
// is assessed at transmit time, delivery at the new positions.
func (m *Medium) EndTopologyChange(oldLinks []topology.Link) {
	nl := m.topo.NumLinks()
	newLoss := make([]float64, nl)
	newOcc := make([]time.Duration, nl)
	count := 0
	for idx, l := range oldLinks {
		if p := m.linkLoss[idx]; p != 0 {
			if ni := m.topo.LinkIndex(l.From, l.To); ni >= 0 {
				newLoss[ni] = p
				count++
			} else {
				if m.linkLossFar == nil {
					m.linkLossFar = make(map[topology.Link]float64)
				}
				m.linkLossFar[l] = p
			}
		}
		if d := m.occupancy[idx]; d != 0 {
			if ni := m.topo.LinkIndex(l.From, l.To); ni >= 0 {
				newOcc[ni] = d
			} else {
				if m.occupancyFar == nil {
					m.occupancyFar = make(map[topology.Link]time.Duration)
				}
				m.occupancyFar[l] += d
			}
		}
	}
	// Far entries whose pair became a live link go dense again. A pair is
	// never in both places, so no entry can collide with the remap above.
	for l, p := range m.linkLossFar {
		if ni := m.topo.LinkIndex(l.From, l.To); ni >= 0 {
			newLoss[ni] = p
			count++
			delete(m.linkLossFar, l)
		}
	}
	for l, d := range m.occupancyFar {
		if ni := m.topo.LinkIndex(l.From, l.To); ni >= 0 {
			newOcc[ni] += d
			delete(m.occupancyFar, l)
		}
	}
	m.linkLoss, m.linkLossCount, m.occupancy = newLoss, count, newOcc

	for _, tx := range m.inFlight() {
		for _, n := range m.topo.CSNeighbors(tx.src) {
			m.busy[n]++
			if m.busy[n] == 1 && m.spans != nil {
				m.spans.NodeBusy(n, tx.src)
			}
		}
	}
	if m.spans != nil {
		for n := range m.busy {
			if m.busy[n] == 0 {
				m.spans.NodeIdle(topology.NodeID(n))
			}
		}
	}
	for n := range m.busy {
		nowBusy := m.busy[n] > 0
		if nowBusy == m.busyBefore[n] || m.onAir[n] != nil {
			continue
		}
		if st := m.stations[n]; st != nil {
			if nowBusy {
				st.OnBusy()
			} else {
				st.OnIdle()
			}
		}
	}
}

type transmission struct {
	src   topology.NodeID
	frame *Frame
	seq   int64 // the medium's frame sequence number, also Frame.ID
	end   time.Duration
	// since is the sequence number above which a carrier reaching one of
	// src's receivers corrupts this frame there: seq when the frame goes
	// on the air, raised at each topology change during its flight.
	since int64
	// jammed lists receivers at which the frame is known corrupted before
	// lastHit is consulted: those already under another carrier when it
	// went on the air, and those a later carrier reached before a
	// topology change. Its backing array is recycled with the record.
	jammed []topology.NodeID
	// aired is the transmitter's end-of-air callback, nil for none.
	aired func()
	// finishFn is bound once per record so scheduling the end-of-air
	// event does not allocate a fresh closure per frame.
	finishFn func()
}

func (m *Medium) newTransmission(src topology.NodeID, f *Frame, seq int64, end time.Duration, aired func()) *transmission {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		tx.src, tx.frame, tx.seq, tx.since, tx.end, tx.aired = src, f, seq, seq, end, aired
		return tx
	}
	tx := &transmission{src: src, frame: f, seq: seq, since: seq, end: end, aired: aired}
	tx.finishFn = func() { m.finish(tx) }
	return tx
}

// releaseTransmission returns a finished record to the pool, keeping its
// jammed list's backing array for reuse. A frame from NewFrame goes back
// to the frame pool with it; a frame the caller built stays the caller's.
func (m *Medium) releaseTransmission(tx *transmission) {
	if f := tx.frame; f.pooled {
		*f = Frame{States: f.States[:0], pooled: true}
		m.frameFree = append(m.frameFree, f)
	}
	tx.frame = nil
	tx.aired = nil
	tx.jammed = tx.jammed[:0]
	m.txFree = append(m.txFree, tx)
}

// NewFrame returns a zeroed frame from the medium's pool. Its States is
// empty but may keep an earlier frame's capacity, so fill it by
// appending. The medium takes the frame back once the transmission that
// carries it has been delivered to every receiver: the caller must not
// touch it after its end of air, and a frame never transmitted is simply
// dropped.
func (m *Medium) NewFrame() *Frame {
	if n := len(m.frameFree); n > 0 {
		f := m.frameFree[n-1]
		m.frameFree[n-1] = nil
		m.frameFree = m.frameFree[:n-1]
		return f
	}
	return &Frame{pooled: true}
}

// Transmit puts frame f on the air from node src, immediately. The caller
// (MAC) is responsible for channel access rules; the medium only models
// propagation, carrier sensing, and collisions. The frame's ID field is
// assigned by the medium. A frame from NewFrame returns to the pool after
// its delivery; one the caller built may be transmitted again.
//
// aired, when not nil, runs at the frame's end of air, in the same kernel
// event as the delivery: after every receiver's OnFrame and every OnIdle
// the frame causes. By then a frame from NewFrame is back in the pool, so
// aired must not touch it.
func (m *Medium) Transmit(src topology.NodeID, f *Frame, aired func()) {
	if m.onAir[src] != nil {
		panic(fmt.Sprintf("radio: node %d transmit while already transmitting", src))
	}
	if m.stations[src] == nil {
		panic(fmt.Sprintf("radio: node %d transmits before registering", src))
	}
	if m.down[src] {
		panic(fmt.Sprintf("radio: crashed node %d transmits (MAC not halted?)", src))
	}
	m.frameSeq++
	seq := m.frameSeq
	f.ID = seq
	f.From = src
	dur := m.Airtime(f)
	now := m.sched.Now()
	tx := m.newTransmission(src, f, seq, now+dur, aired)
	atomic.AddInt64(&m.stats.Transmissions, 1)
	if f.Kind == FrameBroadcast {
		atomic.AddInt64(&m.stats.ControlFrames, 1)
		atomic.AddInt64((*int64)(&m.stats.ControlAirtime), int64(dur))
	} else if idx := m.topo.LinkIndex(f.LinkFrom, f.LinkTo); idx >= 0 {
		m.occupancy[idx] += dur
		if m.rec != nil {
			m.rec.LinkAirtime(idx, dur)
		}
	} else {
		if m.occupancyFar == nil {
			m.occupancyFar = make(map[topology.Link]time.Duration)
		}
		m.occupancyFar[topology.Link{From: f.LinkFrom, To: f.LinkTo}] += dur
	}
	m.emit(trace.KindTransmit, src, f.To, f)
	if m.spans != nil && f.Kind == FrameData && f.Data != nil {
		m.spans.DataAirtime(f.Data, src, f.To, now, now+dur)
	}

	// A receiver already under another carrier — one it senses, or its
	// own transmission — cannot decode this frame.
	for _, n := range m.topo.Neighbors(src) {
		if m.busy[n] > 0 || m.onAir[n] != nil {
			tx.jammed = append(tx.jammed, n)
		}
	}
	m.onAir[src] = tx

	// This carrier in turn corrupts every reception in flight at the
	// nodes it reaches, src itself included (half duplex): stamp them for
	// those receptions' finish. The max keeps a later frame's stamp
	// should a station callback below start one.
	m.lastHit[src] = seq
	for _, n := range m.topo.CSNeighbors(src) {
		m.lastHit[n] = max(m.lastHit[n], seq)
		// Carrier sensing: raise busy at every foreign node within CS range.
		m.busy[n]++
		if m.busy[n] == 1 {
			if m.spans != nil {
				m.spans.NodeBusy(n, src)
			}
			if m.onAir[n] == nil {
				m.stations[n].OnBusy()
			}
		}
	}

	m.sched.At(tx.end, tx.finishFn)
}

func (m *Medium) finish(tx *transmission) {
	m.onAir[tx.src] = nil

	// Lower carrier-sense busy counts first so receivers observe an idle
	// medium when deciding SIFS responses, but defer OnIdle until after
	// frame delivery so response scheduling wins over backoff resumption.
	nowIdle := m.idleScratch[:0]
	for _, n := range m.topo.CSNeighbors(tx.src) {
		m.busy[n]--
		if m.busy[n] < 0 {
			panic("radio: negative busy count")
		}
		if m.busy[n] == 0 {
			if m.spans != nil {
				m.spans.NodeIdle(n)
			}
			nowIdle = append(nowIdle, n)
		}
	}

	// Settle corruption before any station callback can put a new frame
	// on the air: only carriers that overlapped this frame count.
	nbrs := m.topo.Neighbors(tx.src)
	for _, n := range tx.jammed {
		m.jamMark[n] = tx.seq
	}
	for _, n := range nbrs {
		if m.lastHit[n] > tx.since {
			m.jamMark[n] = tx.seq
		}
	}

	// Deliver to every node in transmission range (receiver + overhearers).
	for _, n := range nbrs {
		if m.down[n] {
			// Crashed receivers hear nothing at all.
			atomic.AddInt64(&m.stats.DownSkipped, 1)
			continue
		}
		ok := m.jamMark[n] != tx.seq
		if ok && m.onAir[n] != nil {
			// Receiver is on the air itself at delivery time.
			ok = false
		}
		// The rng draw stays gated on p > 0 so schedules without loss
		// faults consume the identical random sequence as before.
		if p := m.lossAt(tx.src, n); ok && p > 0 && m.rng.Float64() < p {
			ok = false
			atomic.AddInt64(&m.stats.InjectedLosses, 1)
		}
		if ok {
			atomic.AddInt64(&m.stats.Delivered, 1)
			if n == tx.frame.To {
				m.emit(trace.KindDeliver, n, tx.src, tx.frame)
			}
		} else {
			atomic.AddInt64(&m.stats.Corrupted, 1)
			m.emit(trace.KindCorrupt, n, tx.src, tx.frame)
			if m.spans != nil && n == tx.frame.To && tx.frame.Kind == FrameData && tx.frame.Data != nil {
				m.spans.DataCorrupted(tx.frame.Data, tx.src, n)
			}
		}
		m.stations[n].OnFrame(tx.frame, ok)
	}

	for _, n := range nowIdle {
		if m.busy[n] == 0 { // may have gone busy again during delivery
			m.stations[n].OnIdle()
		}
	}
	m.idleScratch = nowIdle[:0]
	aired := tx.aired
	m.releaseTransmission(tx)
	if aired != nil {
		aired()
	}
}

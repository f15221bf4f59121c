// Package mac implements IEEE 802.11 DCF: CSMA/CA channel access with
// binary exponential backoff, virtual carrier sense (NAV), and the
// RTS/CTS/DATA/ACK exchange, per node, on top of the radio medium.
//
// The upper layer (the forwarding engine) is attached through the Client
// interface using a pull model: whenever the MAC is ready to transmit it
// asks the client for the next eligible packet. This is where the paper's
// congestion-avoidance gating plugs in — a packet whose downstream buffer
// is full is simply not offered to the MAC.
package mac

import (
	"fmt"
	"math/rand"
	"time"

	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/sim"
	"gmp/internal/span"
	"gmp/internal/topology"
)

// Outgoing is one packet handed by the client to the MAC for transmission
// to a specific next hop.
type Outgoing struct {
	Pkt     *packet.Packet
	NextHop topology.NodeID
	// Queue is the queue the packet joins at the next hop (advertised in
	// the RTS so the receiver can run its admission check).
	Queue packet.QueueID
	// Origin is the node the packet was received from (or this node for
	// local traffic); the forwarding layer uses it to requeue a failed
	// packet into the right fair-aggregation sub-queue.
	Origin topology.NodeID
}

// Client is the upper layer attached to a MAC station. The MAC pulls at
// most one packet at a time and never holds two Outgoing records at once.
type Client interface {
	// NextOutgoing returns the next packet eligible for transmission, or
	// nil if none. The packet belongs to the MAC until OnSendComplete.
	// The record itself may be reused: it is valid only until the next
	// NextOutgoing call.
	NextOutgoing() *Outgoing
	// OnSendComplete reports the fate of a previously pulled packet:
	// ok=true when the next hop acknowledged it, ok=false when the retry
	// limit was exhausted and the packet was dropped. An implementation
	// that reuses its records copies *out before anything that can Kick
	// the MAC, since a Kick may re-enter NextOutgoing.
	OnSendComplete(out *Outgoing, ok bool)
	// OnReceive delivers a data packet addressed to this node (either to
	// forward or, at the destination, to consume). Duplicates from ACK
	// loss are filtered by the MAC before this call.
	OnReceive(pkt *packet.Packet, from topology.NodeID)
	// AppendPiggyback appends the node's current buffer-state
	// advertisement (§2.2) to dst and returns the result; the MAC passes
	// a recycled frame's empty States so the call allocates nothing.
	AppendPiggyback(dst []packet.QueueState) []packet.QueueState
	// OnOverhear processes a buffer-state advertisement overheard from a
	// neighbor's frame. states belongs to the frame: it must not be kept
	// after the call returns.
	OnOverhear(from topology.NodeID, states []packet.QueueState)
	// AcceptQueue reports whether queue q can admit one more packet from
	// the given sender. A receiver withholds CTS when it cannot
	// (congestion avoidance, ref [3] of the paper).
	AcceptQueue(q packet.QueueID, from topology.NodeID) bool
}

// Config controls MAC behavior beyond the shared radio parameters.
type Config struct {
	// UseRTS enables the RTS/CTS handshake before data (the paper's
	// model). When false, DATA is sent directly after backoff.
	UseRTS bool
}

// DefaultConfig enables RTS/CTS, matching the paper's network model.
func DefaultConfig() Config { return Config{UseRTS: true} }

// Stats counts per-station MAC events.
type Stats struct {
	DataSent     int64 // data frames put on air (incl. retries)
	DataAcked    int64 // packets successfully acknowledged
	DataReceived int64 // unique data packets delivered up
	Duplicates   int64 // duplicate data frames suppressed
	RTSSent      int64
	Retries      int64
	Drops        int64 // packets dropped at retry limit
	Broadcasts   int64 // control broadcasts transmitted
}

// BroadcastReceiver is an optional extension of Client: implementations
// receive decoded control broadcasts (link-state dissemination, §6.2).
type BroadcastReceiver interface {
	OnBroadcast(from topology.NodeID, payload any)
}

type phase int

const (
	phaseIdle      phase = iota + 1 // nothing to send
	phaseWaitIdle                   // have packet, medium busy or NAV set
	phaseDIFS                       // sensing idle, DIFS running
	phaseCountdown                  // backoff slots counting down
	phaseTxRTS                      // RTS on the air
	phaseAwaitCTS                   // RTS sent, CTS pending
	phaseTxData                     // DATA on the air
	phaseAwaitAck                   // DATA sent, ACK pending
	phaseDown                       // node crashed (fault injection)
)

func (p phase) String() string {
	switch p {
	case phaseIdle:
		return "idle"
	case phaseWaitIdle:
		return "wait-idle"
	case phaseDIFS:
		return "difs"
	case phaseCountdown:
		return "countdown"
	case phaseTxRTS:
		return "tx-rts"
	case phaseAwaitCTS:
		return "await-cts"
	case phaseTxData:
		return "tx-data"
	case phaseAwaitAck:
		return "await-ack"
	case phaseDown:
		return "down"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Station is the per-node DCF entity. It implements radio.Station.
type Station struct {
	id     topology.NodeID
	sched  *sim.Scheduler
	medium *radio.Medium
	par    radio.Params
	cfg    Config
	rng    *rand.Rand
	client Client

	cur     *Outgoing
	ctrl    []*radio.Frame // pending control broadcasts (priority)
	retries int
	cw      int
	ph      phase

	// Precomputed control-frame airtimes (constants of the PHY params).
	ctsAir time.Duration
	ackAir time.Duration

	backoffSlots   int
	countdownStart time.Duration
	countdownTimer sim.Timer
	difsTimer      sim.Timer
	respTimer      sim.Timer
	waitTimer      sim.Timer
	navTimer       sim.Timer

	navUntil   time.Duration
	responding bool
	pulling    bool // reentrancy guard: inside client.NextOutgoing

	// Prebound timer and end-of-air callbacks: method values allocate a
	// closure per use, so the recurring ones are bound once at
	// construction.
	onDIFSDoneFn        func()
	onBackoffDoneFn     func()
	onExchangeTimeoutFn func()
	evaluateFn          func()
	onRTSAiredFn        func()
	onDataAiredFn       func()
	onBroadcastAiredFn  func()
	onCTSSIFSDoneFn     func()
	onResponseAiredFn   func()

	// respFree recycles SIFS response records; see respond.
	respFree []*response

	lastSeq map[packet.FlowID]int64

	stats Stats

	// rec is the telemetry recorder (nil when telemetry is off); curSince
	// is the virtual time the current packet was pulled from the client,
	// for MAC service-time spans. Only maintained while rec is set.
	rec      *obs.Recorder
	curSince time.Duration

	// spans is the causal-trace recorder (nil when tracing is off). It
	// observes pulls, backoff segments, deferrals, and retries for
	// sampled packets; it never feeds back into channel access.
	spans *span.Recorder
}

var _ radio.Station = (*Station)(nil)

// NewStation creates the MAC for node id and registers it with the medium.
func NewStation(id topology.NodeID, sched *sim.Scheduler, medium *radio.Medium, cfg Config, rng *rand.Rand, client Client) *Station {
	s := &Station{
		id:      id,
		sched:   sched,
		medium:  medium,
		par:     medium.Params(),
		cfg:     cfg,
		rng:     rng,
		client:  client,
		cw:      medium.Params().CWMin,
		ctsAir:  medium.Params().Airtime(radio.FrameCTS, 0),
		ackAir:  medium.Params().Airtime(radio.FrameAck, 0),
		ph:      phaseIdle,
		lastSeq: make(map[packet.FlowID]int64),
	}
	s.onDIFSDoneFn = s.onDIFSDone
	s.onBackoffDoneFn = s.onBackoffDone
	s.onExchangeTimeoutFn = s.onExchangeTimeout
	s.evaluateFn = s.evaluate
	s.onRTSAiredFn = s.onRTSAired
	s.onDataAiredFn = s.onDataAired
	s.onBroadcastAiredFn = s.onBroadcastAired
	s.onCTSSIFSDoneFn = s.onCTSSIFSDone
	s.onResponseAiredFn = s.onResponseAired
	medium.Register(id, s)
	return s
}

// ID returns the node this station belongs to.
func (s *Station) ID() topology.NodeID { return s.id }

// Stats returns a snapshot of the station's counters.
func (s *Station) Stats() Stats { return s.stats }

// SetRecorder installs the telemetry recorder (nil disables). The
// recorder only observes completed exchanges and retries; it never
// feeds back into channel access, so enabling it cannot change
// simulation behavior.
func (s *Station) SetRecorder(rec *obs.Recorder) { s.rec = rec }

// SetSpans installs the causal-trace recorder (nil disables, the
// default). Like the telemetry recorder it only observes.
func (s *Station) SetSpans(r *span.Recorder) { s.spans = r }

// Down reports whether the station is currently crashed.
func (s *Station) Down() bool { return s.ph == phaseDown }

// SetDown crashes (down=true) or recovers (down=false) the station.
//
// Crashing cancels every pending timer, abandons queued control
// broadcasts, clears the NAV and contention state, and hands any
// in-flight packet back to the client via OnSendComplete(out, false) —
// after the phase is already phaseDown, so a client that requeues the
// packet cannot restart channel access. A frame the station already put
// on the air completes at the medium (propagation is not recalled).
// While down, the station initiates nothing and ignores Kick; the
// medium additionally suppresses all receptions at a down node.
//
// Recovering resets the station to a clean idle state (fresh CWMin, no
// NAV memory) and immediately pulls from the client.
func (s *Station) SetDown(down bool) {
	if down == (s.ph == phaseDown) {
		return
	}
	if down {
		s.difsTimer.Cancel()
		s.countdownTimer.Cancel()
		s.respTimer.Cancel()
		s.waitTimer.Cancel()
		s.navTimer.Cancel()
		s.responding = false
		s.navUntil = 0
		s.ctrl = nil
		s.retries = 0
		s.backoffSlots = 0
		s.cw = s.par.CWMin
		out := s.cur
		s.cur = nil
		s.ph = phaseDown
		if out != nil {
			s.client.OnSendComplete(out, false)
		}
		return
	}
	s.ph = phaseIdle
	s.pullNext()
}

// Kick notifies the MAC that the client may now have an eligible packet
// (new arrival or a downstream buffer opened up). Safe to call anytime.
func (s *Station) Kick() {
	if s.ph != phaseIdle || s.cur != nil || s.pulling {
		return
	}
	s.pullNext()
}

// QueueBroadcast schedules a control broadcast carrying payload
// (payloadBytes long on the air). Broadcasts take priority over data,
// use the normal DIFS+backoff access, and are neither RTS-protected nor
// acknowledged, per 802.11 group-addressed frames.
func (s *Station) QueueBroadcast(payload any, payloadBytes int) {
	if s.ph == phaseDown {
		return // crashed nodes broadcast nothing
	}
	f := s.medium.NewFrame()
	f.Kind = radio.FrameBroadcast
	f.To = radio.Broadcast
	f.LinkFrom, f.LinkTo = s.id, s.id
	f.Control, f.ControlBytes = payload, payloadBytes
	s.ctrl = append(s.ctrl, f)
	s.Kick()
}

func (s *Station) pullNext() {
	if len(s.ctrl) > 0 {
		s.cur = nil
		s.retries = 0
		s.startAccess()
		return
	}
	s.pulling = true
	s.cur = s.client.NextOutgoing()
	s.pulling = false
	if s.cur == nil {
		s.ph = phaseIdle
		return
	}
	if s.rec != nil {
		s.curSince = s.sched.Now()
	}
	if s.spans != nil {
		s.spans.MACPulled(s.id, s.cur.Pkt)
	}
	s.retries = 0
	s.startAccess()
}

// startAccess begins a fresh channel-access cycle for s.cur: draw a
// backoff, then wait for DIFS idle and count it down.
func (s *Station) startAccess() {
	s.backoffSlots = s.rng.Intn(s.cw + 1)
	s.ph = phaseWaitIdle
	s.evaluate()
}

// virtualIdle reports whether channel access may progress: physical
// carrier idle, NAV expired, not transmitting, no pending SIFS response.
func (s *Station) virtualIdle() bool {
	return !s.medium.BusyAt(s.id) &&
		!s.medium.Transmitting(s.id) &&
		!s.responding &&
		s.sched.Now() >= s.navUntil
}

// evaluate advances the access state machine when in a waiting phase.
func (s *Station) evaluate() {
	if s.ph != phaseWaitIdle {
		return
	}
	if !s.virtualIdle() {
		if s.spans != nil && s.cur != nil {
			s.spans.MACDeferred(s.id, s.cur.Pkt)
		}
		s.armNAVTimer()
		return
	}
	if s.spans != nil && s.cur != nil {
		s.spans.MACResumed(s.id, s.cur.Pkt)
	}
	s.ph = phaseDIFS
	s.difsTimer = s.sched.After(s.par.DIFS, s.onDIFSDoneFn)
}

// armNAVTimer schedules a re-evaluation at NAV expiry when the NAV is the
// blocking condition (the medium will not deliver an OnIdle for it).
func (s *Station) armNAVTimer() {
	now := s.sched.Now()
	if s.navUntil <= now {
		return
	}
	if s.navTimer.Pending() {
		return
	}
	s.navTimer = s.sched.At(s.navUntil, s.evaluateFn)
}

func (s *Station) onDIFSDone() {
	if s.ph != phaseDIFS {
		return
	}
	if !s.virtualIdle() {
		s.ph = phaseWaitIdle
		s.evaluate()
		return
	}
	s.ph = phaseCountdown
	s.countdownStart = s.sched.Now()
	if s.spans != nil && s.cur != nil {
		s.spans.BackoffStart(s.id, s.cur.Pkt, s.backoffSlots)
	}
	s.countdownTimer = s.sched.After(time.Duration(s.backoffSlots)*s.par.SlotTime, s.onBackoffDoneFn)
}

// freeze suspends DIFS or backoff countdown when the channel turns busy.
func (s *Station) freeze() {
	switch s.ph {
	case phaseDIFS:
		s.difsTimer.Cancel()
		s.ph = phaseWaitIdle
	case phaseCountdown:
		elapsed := s.sched.Now() - s.countdownStart
		consumed := int(elapsed / s.par.SlotTime)
		if consumed > s.backoffSlots {
			consumed = s.backoffSlots
		}
		s.backoffSlots -= consumed
		s.countdownTimer.Cancel()
		if s.spans != nil && s.cur != nil {
			s.spans.BackoffEnd(s.id, s.cur.Pkt)
		}
		s.ph = phaseWaitIdle
	default:
		return
	}
	if s.spans != nil && s.cur != nil {
		s.spans.MACDeferred(s.id, s.cur.Pkt)
	}
}

func (s *Station) onBackoffDone() {
	if s.ph != phaseCountdown {
		return
	}
	if !s.virtualIdle() {
		// A busy transition at this exact instant was processed first.
		s.ph = phaseWaitIdle
		s.evaluate()
		return
	}
	s.backoffSlots = 0
	if s.spans != nil && s.cur != nil {
		s.spans.BackoffEnd(s.id, s.cur.Pkt)
	}
	if len(s.ctrl) > 0 {
		s.sendBroadcast()
		return
	}
	if s.cfg.UseRTS {
		s.sendRTS()
	} else {
		s.sendData()
	}
}

// sendBroadcast transmits the next queued control frame: fire and
// forget, no handshake, no retry (group-addressed 802.11 semantics).
func (s *Station) sendBroadcast() {
	f := s.ctrl[0]
	// Shift rather than re-slice, so the queue keeps its backing array.
	n := copy(s.ctrl, s.ctrl[1:])
	s.ctrl[n] = nil
	s.ctrl = s.ctrl[:n]
	f.States = s.client.AppendPiggyback(f.States)
	s.ph = phaseTxData
	s.stats.Broadcasts++
	s.medium.Transmit(s.id, f, s.onBroadcastAiredFn)
}

// onBroadcastAired completes a control broadcast once it leaves the air.
func (s *Station) onBroadcastAired() {
	if s.ph != phaseTxData {
		return
	}
	s.ph = phaseIdle
	s.pullNext()
}

// exchangeNAV returns the channel reservation that an RTS announces:
// everything after the RTS itself.
func (s *Station) exchangeNAV() time.Duration {
	dataAir := s.medium.DataAirtime(s.cur.Pkt.SizeBytes)
	return 3*s.par.SIFS + s.ctsAir + dataAir + s.ackAir
}

// newFrame takes a frame from the medium's pool, addressed to `to` and
// serving the data link linkFrom→linkTo, with the client's piggybacked
// buffer states attached.
func (s *Station) newFrame(kind radio.FrameKind, to, linkFrom, linkTo topology.NodeID) *radio.Frame {
	f := s.medium.NewFrame()
	f.Kind, f.To, f.LinkFrom, f.LinkTo = kind, to, linkFrom, linkTo
	f.States = s.client.AppendPiggyback(f.States)
	return f
}

func (s *Station) sendRTS() {
	s.ph = phaseTxRTS
	f := s.newFrame(radio.FrameRTS, s.cur.NextHop, s.id, s.cur.NextHop)
	f.NAV = s.exchangeNAV()
	f.Queue = s.cur.Queue
	s.stats.RTSSent++
	s.medium.Transmit(s.id, f, s.onRTSAiredFn)
}

// onRTSAired arms the CTS timeout once the RTS leaves the air.
func (s *Station) onRTSAired() {
	if s.ph != phaseTxRTS {
		return
	}
	s.ph = phaseAwaitCTS
	timeout := s.par.SIFS + s.ctsAir + 2*s.par.SlotTime
	s.waitTimer = s.sched.After(timeout, s.onExchangeTimeoutFn)
}

// onDataAired arms the ACK timeout once a data frame leaves the air.
func (s *Station) onDataAired() {
	if s.ph != phaseTxData {
		return
	}
	s.ph = phaseAwaitAck
	timeout := s.par.SIFS + s.ackAir + 2*s.par.SlotTime
	s.waitTimer = s.sched.After(timeout, s.onExchangeTimeoutFn)
}

func (s *Station) sendData() {
	s.ph = phaseTxData
	s.transmitData()
}

// onExchangeTimeout fires when an expected CTS or ACK did not arrive.
func (s *Station) onExchangeTimeout() {
	if s.ph != phaseAwaitCTS && s.ph != phaseAwaitAck {
		return
	}
	s.retries++
	s.stats.Retries++
	if s.rec != nil {
		s.rec.MACRetry(s.id, s.cur.Pkt.Flow)
	}
	if s.spans != nil {
		s.spans.MACRetry(s.id, s.cur.Pkt, s.retries)
	}
	if s.retries > s.par.RetryLimit {
		s.stats.Drops++
		out := s.cur
		s.cur = nil
		s.cw = s.par.CWMin
		s.ph = phaseIdle
		s.client.OnSendComplete(out, false)
		if s.cur == nil && s.ph == phaseIdle {
			s.pullNext()
		}
		return
	}
	s.cw = min(2*s.cw+1, s.par.CWMax)
	s.startAccess()
}

// OnBusy implements radio.Station.
func (s *Station) OnBusy() { s.freeze() }

// OnIdle implements radio.Station.
func (s *Station) OnIdle() { s.evaluate() }

// OnFrame implements radio.Station: frame reception and overhearing.
func (s *Station) OnFrame(f *radio.Frame, ok bool) {
	if s.ph == phaseDown {
		// Defensive: the medium already suppresses delivery to down nodes.
		return
	}
	if !ok {
		// Corrupted frames carry no usable information. (EIFS deferral
		// is not modeled; see DESIGN.md.)
		return
	}
	s.client.OnOverhear(f.From, f.States)

	if f.Kind == radio.FrameBroadcast {
		if br, ok := s.client.(BroadcastReceiver); ok {
			br.OnBroadcast(f.From, f.Control)
		}
		return
	}
	if f.To != s.id {
		// Overheard frame: honor its channel reservation.
		if f.NAV > 0 {
			until := s.sched.Now() + f.NAV
			if until > s.navUntil {
				s.navUntil = until
				s.freeze()
				if s.ph == phaseWaitIdle {
					s.armNAVTimer()
				}
			}
		}
		return
	}

	switch f.Kind {
	case radio.FrameRTS:
		s.handleRTS(f)
	case radio.FrameCTS:
		s.handleCTS(f)
	case radio.FrameData:
		s.handleData(f)
	case radio.FrameAck:
		s.handleAck(f)
	}
}

func (s *Station) handleRTS(f *radio.Frame) {
	// Respond only when free to: NAV clear, medium idle, not mid-exchange.
	if s.responding || s.medium.Transmitting(s.id) || s.medium.BusyAt(s.id) {
		return
	}
	if s.sched.Now() < s.navUntil {
		return
	}
	if s.ph == phaseTxRTS || s.ph == phaseAwaitCTS || s.ph == phaseTxData || s.ph == phaseAwaitAck {
		return
	}
	if !s.client.AcceptQueue(f.Queue, f.From) {
		// Congestion-avoidance admission check: no buffer space for the
		// announced queue, so stay silent and let the sender back off.
		return
	}
	s.freeze()
	cts := s.newFrame(radio.FrameCTS, f.From, f.LinkFrom, f.LinkTo)
	cts.NAV = max(f.NAV-s.par.SIFS-s.ctsAir, 0)
	s.respond(cts)
}

func (s *Station) handleCTS(f *radio.Frame) {
	if s.ph != phaseAwaitCTS || f.From != s.cur.NextHop {
		return
	}
	s.waitTimer.Cancel()
	s.ph = phaseTxData
	s.sched.After(s.par.SIFS, s.onCTSSIFSDoneFn)
}

// onCTSSIFSDone transmits the data frame one SIFS after the CTS.
func (s *Station) onCTSSIFSDone() {
	if s.ph != phaseTxData {
		return
	}
	s.transmitData()
}

// transmitData puts s.cur's data frame on the air (phase already
// phaseTxData): directly after backoff, or one SIFS after the CTS.
func (s *Station) transmitData() {
	f := s.newFrame(radio.FrameData, s.cur.NextHop, s.id, s.cur.NextHop)
	f.NAV = s.par.SIFS + s.ackAir
	f.Data = s.cur.Pkt
	f.Queue = s.cur.Queue
	s.stats.DataSent++
	s.medium.Transmit(s.id, f, s.onDataAiredFn)
}

func (s *Station) handleData(f *radio.Frame) {
	ack := s.newFrame(radio.FrameAck, f.From, f.LinkFrom, f.LinkTo)
	s.freeze()
	s.respond(ack)

	pkt := f.Data
	last, seen := s.lastSeq[pkt.Flow]
	if seen && pkt.Seq <= last {
		s.stats.Duplicates++
		return
	}
	s.lastSeq[pkt.Flow] = pkt.Seq
	s.stats.DataReceived++
	s.client.OnReceive(pkt, f.From)
}

func (s *Station) handleAck(f *radio.Frame) {
	if s.ph != phaseAwaitAck || f.From != s.cur.NextHop {
		return
	}
	s.waitTimer.Cancel()
	s.stats.DataAcked++
	if s.rec != nil {
		s.rec.MACService(s.id, s.cur.Pkt.Flow, s.sched.Now()-s.curSince)
	}
	out := s.cur
	s.cur = nil
	s.cw = s.par.CWMin
	s.retries = 0
	s.ph = phaseIdle
	s.client.OnSendComplete(out, true)
	if s.cur == nil && s.ph == phaseIdle {
		s.pullNext()
	}
}

// response is a CTS or ACK waiting out its SIFS. Records are pooled per
// station and their callback is bound once, so a response allocates
// nothing; a node can owe more than one response at a time, hence a pool
// rather than a single record.
type response struct {
	s      *Station
	frame  *radio.Frame
	sendFn func()
}

// respond transmits a SIFS-scheduled control response (CTS or ACK).
func (s *Station) respond(f *radio.Frame) {
	s.responding = true
	var r *response
	if n := len(s.respFree); n > 0 {
		r = s.respFree[n-1]
		s.respFree[n-1] = nil
		s.respFree = s.respFree[:n-1]
	} else {
		r = &response{s: s}
		r.sendFn = r.send
	}
	r.frame = f
	s.respTimer = s.sched.After(s.par.SIFS, r.sendFn)
}

// send fires at the end of the response's SIFS. A record whose timer a
// crash cancelled never comes back to the pool.
func (r *response) send() {
	s, f := r.s, r.frame
	r.frame = nil
	s.respFree = append(s.respFree, r)
	if s.medium.Transmitting(s.id) {
		// Should not happen: SIFS responses never overlap own tx.
		s.responding = false
		return
	}
	s.medium.Transmit(s.id, f, s.onResponseAiredFn)
}

// onResponseAired clears the SIFS-response guard once the CTS/ACK is off
// the air and resumes this node's own channel access.
func (s *Station) onResponseAired() {
	s.responding = false
	s.evaluate()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

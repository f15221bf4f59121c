// Package flow models end-to-end flows: their specifications, the
// rate-limited packet sources that drive them, normalized-rate stamping
// (§6.2), and delivery accounting at the sinks.
package flow

import (
	"fmt"
	"math/rand"
	"time"

	"gmp/internal/forwarding"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// Spec declares one end-to-end flow.
type Spec struct {
	ID     packet.FlowID
	Src    topology.NodeID
	Dst    topology.NodeID
	Weight float64
	// DesiredRate is d(f) in packets per second (§2.1; the paper uses
	// 800 pkt/s everywhere).
	DesiredRate float64
	SizeBytes   int
	// Start delays packet generation until the given virtual time, and
	// Stop (when positive) ends it — flow churn, an extension beyond
	// the paper's static flow sets. Zero values mean the whole session.
	Start time.Duration
	Stop  time.Duration
}

// Validate checks the spec for obvious mistakes.
func (s Spec) Validate() error {
	if s.Src == s.Dst {
		return fmt.Errorf("flow %d: source equals destination %d", s.ID, s.Src)
	}
	if s.Weight <= 0 {
		return fmt.Errorf("flow %d: non-positive weight %v", s.ID, s.Weight)
	}
	if s.DesiredRate <= 0 {
		return fmt.Errorf("flow %d: non-positive desired rate %v", s.ID, s.DesiredRate)
	}
	if s.SizeBytes <= 0 {
		return fmt.Errorf("flow %d: non-positive packet size %d", s.ID, s.SizeBytes)
	}
	if s.Start < 0 || s.Stop < 0 {
		return fmt.Errorf("flow %d: negative start/stop time", s.ID)
	}
	if s.Stop > 0 && s.Stop <= s.Start {
		return fmt.Errorf("flow %d: stop %v not after start %v", s.ID, s.Stop, s.Start)
	}
	return nil
}

// ActiveAt reports whether the flow generates packets at time t.
func (s Spec) ActiveAt(t time.Duration) bool {
	if t < s.Start {
		return false
	}
	return s.Stop == 0 || t < s.Stop
}

// MinRate floors the self-imposed rate limit so a repeatedly halved flow
// can always probe its way back up (liveness of the rate-limit condition).
const MinRate = 1.0 // packets per second

// Source generates a flow's packets at min(desired rate, rate limit) and
// implements the source half of buffer-based backpressure: when the local
// queue is full it pauses until the queue opens.
//
// Per §6.2 the source measures the flow's rate and stamps outgoing
// packets with the resulting normalized rate. The paper measures in the
// first half of each period and stamps during the second half; this
// implementation stamps every packet with the rate of the last complete
// period — the same one-period-stale quantity with half the measurement
// noise (see DESIGN.md).
type Source struct {
	spec  Spec
	sched *sim.Scheduler
	node  *forwarding.Node
	rng   *rand.Rand

	period time.Duration
	cbr    bool

	limited bool
	limit   float64

	seq      int64
	nextSend sim.Timer
	waiting  bool // paused on a full local queue
	started  bool // Start/StartNow was called (churn flows may never start)
	stopped  bool // past the spec's Stop time or torn down
	halted   bool // source node crashed (fault injection)

	stamped  bool // at least one period has completed
	normRate float64

	periodCount    int64 // packets injected in the current full period
	lastPeriodRate float64

	injectedTotal int64

	// qid is the local queue the flow's packets land in; the forwarding
	// mode's QueueKey depends only on (Flow, Dst), so it is fixed for the
	// flow's lifetime. generateFn and queueOpenFn are prebound so the
	// steady-state reschedule path allocates no closures.
	qid         packet.QueueID
	generateFn  func()
	queueOpenFn func()
	// spare is the packet the local queue last refused; the next attempt
	// reuses it instead of allocating another.
	spare *packet.Packet
}

// NewSource builds the generator for spec, injecting into node (which must
// be the forwarding engine at spec.Src). period is the measurement period
// driving the stamping schedule.
func NewSource(spec Spec, sched *sim.Scheduler, node *forwarding.Node, period time.Duration, rng *rand.Rand) *Source {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if node.ID() != spec.Src {
		panic(fmt.Sprintf("flow %d: source node %d attached to engine of node %d", spec.ID, spec.Src, node.ID()))
	}
	s := &Source{
		spec:   spec,
		sched:  sched,
		node:   node,
		rng:    rng,
		period: period,
	}
	s.qid = node.Config().Mode.QueueKey(&packet.Packet{Flow: spec.ID, Dst: spec.Dst})
	s.generateFn = s.generate
	s.queueOpenFn = func() {
		if !s.waiting {
			return
		}
		s.waiting = false
		s.generate()
	}
	return s
}

// Spec returns the flow's specification.
func (s *Source) Spec() Spec { return s.spec }

// SetCBR switches the generator from Poisson arrivals (the default) to
// constant-bit-rate generation. Poisson is the default because phase lock
// between deterministic sources and MAC service cycles produces artifacts
// (e.g. a relayed packet at a full shared FIFO is always overwritten by
// the co-located source before the next dequeue).
func (s *Source) SetCBR(cbr bool) { s.cbr = cbr }

// Start begins packet generation, honoring the spec's Start and Stop
// times. Generation begins at a random phase within one packet interval
// so concurrent flows do not tick in lockstep.
func (s *Source) Start() {
	s.started = true
	offset := s.spec.Start + time.Duration(s.rng.Float64()*float64(s.interval()))
	s.nextSend = s.sched.After(offset, s.generateFn)
	if s.spec.Stop > 0 {
		s.sched.At(s.spec.Stop, s.Teardown)
	}
}

// StartNow begins packet generation immediately — the admission path
// for churn flows, whose spec Start has already elapsed when the
// admission decision lands. Only the random phase offset is applied;
// the spec's Stop time still registers the teardown. A halted source
// (its node crashed between arrival and admission) stays silent until
// recovery resumes it.
func (s *Source) StartNow() {
	s.started = true
	if s.spec.Stop > 0 {
		s.sched.At(s.spec.Stop, s.Teardown)
	}
	if s.halted {
		return
	}
	s.nextSend = s.sched.After(time.Duration(s.rng.Float64()*float64(s.interval())), s.generateFn)
}

// Teardown permanently stops the source (flow departure or watchdog
// shed): generation ceases, any queue-open wait is abandoned, and the
// rate-limit/stamping state is cleared so no stale limit survives the
// flow. Irreversible, unlike SetHalted.
func (s *Source) Teardown() {
	s.stopped = true
	s.waiting = false
	s.nextSend.Cancel()
	s.RemoveLimit()
	s.normRate = 0
	s.stamped = false
}

// Started reports whether Start or StartNow has been called.
func (s *Source) Started() bool { return s.started }

// Stopped reports whether the source has permanently stopped.
func (s *Source) Stopped() bool { return s.stopped }

func (s *Source) rate() float64 {
	r := s.spec.DesiredRate
	if s.limited && s.limit < r {
		r = s.limit
	}
	if r < MinRate {
		r = MinRate
	}
	return r
}

func (s *Source) interval() time.Duration {
	mean := float64(time.Second) / s.rate()
	if s.cbr {
		return time.Duration(mean)
	}
	return time.Duration(s.rng.ExpFloat64() * mean)
}

// SetHalted pauses (halted=true) or resumes packet generation when the
// source's node crashes and recovers. Unlike Stop this is reversible:
// on resume the generator reschedules itself, honoring a Start time
// still in the future. The halted check in generate() also defuses any
// pending queue-open waiter from before the crash.
func (s *Source) SetHalted(halted bool) {
	if halted == s.halted {
		return
	}
	s.halted = halted
	if halted {
		s.nextSend.Cancel()
		s.waiting = false
		return
	}
	if s.stopped || !s.started {
		return
	}
	delay := s.interval()
	if wait := s.spec.Start - s.sched.Now(); wait > delay {
		delay = wait
	}
	s.nextSend = s.sched.After(delay, s.generateFn)
}

// Halted reports whether the source is paused by fault injection.
func (s *Source) Halted() bool { return s.halted }

func (s *Source) generate() {
	if s.stopped || s.halted {
		return
	}
	p := s.spare
	if p == nil {
		p = new(packet.Packet)
	}
	s.spare = nil
	*p = packet.Packet{
		Flow:      s.spec.ID,
		Src:       s.spec.Src,
		Dst:       s.spec.Dst,
		Seq:       s.seq,
		SizeBytes: s.spec.SizeBytes,
		Weight:    s.spec.Weight,
		NormRate:  s.normRate,
		Stamped:   s.stamped,
		Created:   s.sched.Now(),
	}
	if !s.node.Enqueue(p) {
		// Local queue full: the source slows down (§2.2). Resume when the
		// queue opens; the unsent packet is regenerated then, in place.
		s.spare = p
		s.waiting = true
		s.node.NotifyQueueOpen(s.qid, s.queueOpenFn)
		return
	}
	s.seq++
	s.periodCount++
	s.injectedTotal++
	s.nextSend = s.sched.After(s.interval(), s.generateFn)
}

// NormRate returns the flow's current normalized rate μ(f) as measured at
// the source.
func (s *Source) NormRate() float64 { return s.normRate }

// Limited reports whether the source currently has a self-imposed rate
// limit, and its value in packets per second.
func (s *Source) Limited() (float64, bool) { return s.limit, s.limited }

// SetLimit installs (or tightens/loosens) the self-imposed rate limit.
func (s *Source) SetLimit(pps float64) {
	if pps < MinRate {
		pps = MinRate
	}
	if pps >= s.spec.DesiredRate {
		s.RemoveLimit()
		return
	}
	s.limited = true
	s.limit = pps
}

// RemoveLimit clears the rate limit (the "Removing Unnecessary Rate
// Limits" step of §6.3).
func (s *Source) RemoveLimit() {
	s.limited = false
	s.limit = 0
}

// EndPeriod closes the current full measurement period, returning the
// flow's actual injection rate r(f) over it and refreshing the normalized
// rate stamped into outgoing packets (§6.2 "Normalized Rate").
func (s *Source) EndPeriod() float64 {
	s.lastPeriodRate = float64(s.periodCount) / s.period.Seconds()
	s.periodCount = 0
	s.normRate = s.lastPeriodRate / s.spec.Weight
	s.stamped = true
	return s.lastPeriodRate
}

// LastPeriodRate returns the rate computed by the previous EndPeriod call.
func (s *Source) LastPeriodRate() float64 { return s.lastPeriodRate }

// InjectedTotal returns the number of packets the source has injected.
func (s *Source) InjectedTotal() int64 { return s.injectedTotal }

// Registry tracks all flows of a simulation and their delivery counters.
type Registry struct {
	specs   []Spec
	sources []*Source

	delivered []int64
	dropped   []int64
	droppedBy []map[forwarding.DropReason]int64

	markTime      time.Duration
	markDelivered []int64
	markInjected  []int64
}

// NewRegistry builds a registry for the given flow specs. Flow IDs must be
// dense: specs[i].ID == i.
func NewRegistry(specs []Spec) (*Registry, error) {
	for i, s := range specs {
		if int(s.ID) != i {
			return nil, fmt.Errorf("flow: spec %d has non-dense ID %d", i, s.ID)
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return &Registry{
		specs:         append([]Spec(nil), specs...),
		sources:       make([]*Source, len(specs)),
		delivered:     make([]int64, len(specs)),
		dropped:       make([]int64, len(specs)),
		droppedBy:     make([]map[forwarding.DropReason]int64, len(specs)),
		markDelivered: make([]int64, len(specs)),
		markInjected:  make([]int64, len(specs)),
	}, nil
}

// Specs returns the flow specifications.
func (r *Registry) Specs() []Spec { return r.specs }

// NumFlows returns the flow count.
func (r *Registry) NumFlows() int { return len(r.specs) }

// AttachSource records the source driving flow id.
func (r *Registry) AttachSource(id packet.FlowID, s *Source) { r.sources[id] = s }

// Source returns the generator of flow id.
func (r *Registry) Source(id packet.FlowID) *Source { return r.sources[id] }

// Sources returns all flow sources in flow-ID order.
func (r *Registry) Sources() []*Source { return r.sources }

// OnDeliver is the sink callback: counts an end-to-end delivery.
func (r *Registry) OnDeliver(p *packet.Packet, _ topology.NodeID) {
	r.delivered[p.Flow]++
}

// OnDrop counts a packet loss anywhere along the path, classified by
// reason so fault experiments can separate crash losses from
// congestion losses.
func (r *Registry) OnDrop(p *packet.Packet, reason forwarding.DropReason) {
	r.dropped[p.Flow]++
	if r.droppedBy[p.Flow] == nil {
		r.droppedBy[p.Flow] = make(map[forwarding.DropReason]int64)
	}
	r.droppedBy[p.Flow][reason]++
}

// Delivered returns the end-to-end deliveries of flow id so far.
func (r *Registry) Delivered(id packet.FlowID) int64 { return r.delivered[id] }

// Dropped returns the packets of flow id lost so far.
func (r *Registry) Dropped(id packet.FlowID) int64 { return r.dropped[id] }

// DroppedBy returns a copy of flow id's losses classified by reason
// (nil-safe: flows without losses return an empty map).
func (r *Registry) DroppedBy(id packet.FlowID) map[forwarding.DropReason]int64 {
	out := make(map[forwarding.DropReason]int64, len(r.droppedBy[id]))
	for k, v := range r.droppedBy[id] {
		out[k] = v
	}
	return out
}

// Limits returns each flow's current self-imposed rate limit in packets
// per second, with -1 for unlimited flows (telemetry sampling; -1 keeps
// the vector JSON-encodable, unlike +Inf).
func (r *Registry) Limits() []float64 {
	out := make([]float64, len(r.sources))
	for i, src := range r.sources {
		if l, ok := src.Limited(); ok {
			out[i] = l
		} else {
			out[i] = -1
		}
	}
	return out
}

// Mark snapshots delivery and injection counters at virtual time now;
// MeasuredRates later reports rates over [now, then]. Used to exclude
// warmup from reported rates.
func (r *Registry) Mark(now time.Duration) {
	r.markTime = now
	for i := range r.specs {
		r.markDelivered[i] = r.delivered[i]
		if r.sources[i] != nil {
			r.markInjected[i] = r.sources[i].InjectedTotal()
		}
	}
}

// MeasuredRates returns each flow's end-to-end delivery rate in packets
// per second over [mark, now].
func (r *Registry) MeasuredRates(now time.Duration) []float64 {
	window := (now - r.markTime).Seconds()
	rates := make([]float64, len(r.specs))
	if window <= 0 {
		return rates
	}
	for i := range r.specs {
		rates[i] = float64(r.delivered[i]-r.markDelivered[i]) / window
	}
	return rates
}

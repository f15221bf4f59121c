// Package gmp is a from-scratch reproduction of "Achieving Global
// End-to-End Maxmin in Multihop Wireless Networks" (Zhang, Chen, Jian —
// ICDCS 2008): a packet-level IEEE 802.11 DCF simulator plus the paper's
// distributed Global Maxmin Protocol (GMP) and its two evaluation
// baselines (plain 802.11 and the two-phase protocol 2PP of Li,
// ICDCS'05).
//
// The entry point is Run: give it a Scenario (a topology plus a set of
// weighted end-to-end flows — the paper's figures are available from
// Fig1Scenario through Fig4Scenario) and a Protocol, and it simulates the
// network and reports per-flow end-to-end rates, the fairness indices
// I_mm and I_eq, the effective network throughput U, and a centralized
// weighted-maxmin reference allocation for comparison.
//
//	res, err := gmp.Run(gmp.Config{
//		Scenario: gmp.Fig3Scenario(),
//		Protocol: gmp.ProtocolGMP,
//	})
package gmp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gmp/internal/admission"
	"gmp/internal/baseline"
	"gmp/internal/churn"
	"gmp/internal/clique"
	"gmp/internal/core"
	"gmp/internal/dissemination"
	"gmp/internal/faults"
	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/mac"
	"gmp/internal/maxminref"
	"gmp/internal/measure"
	"gmp/internal/metrics"
	"gmp/internal/mobility"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/scenario"
	"gmp/internal/sim"
	"gmp/internal/span"
	"gmp/internal/topology"
	"gmp/internal/trace"
)

// Re-exported building blocks so users of the library never import
// internal packages directly.
type (
	// Point is a node position in meters.
	Point = geom.Point
	// NodeID identifies a physical node.
	NodeID = topology.NodeID
	// FlowID identifies an end-to-end flow.
	FlowID = packet.FlowID
	// FlowSpec declares one end-to-end flow (source, destination,
	// weight, desired rate, packet size).
	FlowSpec = flow.Spec
	// Scenario couples a topology with a set of flows.
	Scenario = scenario.Scenario
	// RadioConfig carries transmission and carrier-sense ranges.
	RadioConfig = topology.Config
	// Round is one recorded GMP adjustment round (convergence trace).
	Round = core.Round
	// MACStats are per-station 802.11 DCF counters.
	MACStats = mac.Stats
	// TraceEvent is one recorded channel/network event (see
	// Config.EventTrace).
	TraceEvent = trace.Event
	// FaultEvent is one scheduled fault (node churn or loss episode; see
	// internal/faults).
	FaultEvent = faults.Event
	// FaultKind selects a fault event's type.
	FaultKind = faults.Kind
	// MobilityConfig parameterizes node motion during the run (see
	// Config.Mobility and internal/mobility).
	MobilityConfig = mobility.Config
	// MobilityModel selects the motion model.
	MobilityModel = mobility.Model
	// DropReason classifies packet losses.
	DropReason = forwarding.DropReason
	// TelemetryConfig enables the telemetry layer for a run (see
	// Config.Telemetry and internal/obs).
	TelemetryConfig = obs.Config
	// Telemetry is a run's recorded telemetry (Result.Telemetry):
	// per-flow latency histograms, per-node hop/MAC-service histograms,
	// periodic queue/utilization/limit samples, and the GMP
	// condition-state timeline. Export with WriteJSONL/WriteSamplesCSV.
	Telemetry = obs.Telemetry
	// TelemetryCondition names one of the paper's four local conditions
	// in the condition timeline.
	TelemetryCondition = obs.Condition
	// TelemetrySummary compresses one run's telemetry to a single
	// record (Telemetry.Summarize) for per-seed sweep reporting.
	TelemetrySummary = obs.RunSummary
	// TelemetryFlowSummary is one flow's row in a TelemetrySummary.
	TelemetryFlowSummary = obs.FlowSummary
	// SpanConfig enables the causal tracing layer for a run (see
	// Config.Spans and internal/span).
	SpanConfig = span.Config
	// SpanTrace is a run's recorded causal trace (Result.Spans): span
	// trees for sampled packets and §5.3 decision-provenance records.
	// Export with WriteJSONL (schema-validated) or WriteTraceEvent
	// (Chrome trace-event JSON, loadable in Perfetto).
	SpanTrace = span.Trace
	// ChurnConfig parameterizes a flow-churn workload: a deterministic
	// arrival process, heavy-tailed flow sizes, a traffic matrix, and an
	// optional admission-control policy (see Config.Churn and
	// internal/churn).
	ChurnConfig = churn.Config
	// ChurnProcess selects the arrival process (Poisson or diurnal).
	ChurnProcess = churn.Process
	// ChurnMatrix selects the traffic matrix (gateway-oriented or random).
	ChurnMatrix = churn.Matrix
	// AdmissionParams parameterizes distributed admission control and the
	// overload watchdog (see internal/admission).
	AdmissionParams = admission.Params
	// AdmissionReason classifies a refused arrival (zero = admitted).
	AdmissionReason = admission.Reason
)

// Churn arrival processes and traffic matrices, re-exported.
const (
	ChurnPoisson = churn.Poisson
	ChurnDiurnal = churn.Diurnal
	ChurnGateway = churn.Gateway
	ChurnRandom  = churn.Random
)

// Admission refusal reasons, re-exported for AdmissionDecision handling.
const (
	AdmitNoRoute        = admission.NoRoute
	AdmitCliqueOverload = admission.CliqueOverload
	AdmitShed           = admission.Shed
)

// ParseChurnProcess parses an arrival-process name: "poisson" or
// "diurnal".
func ParseChurnProcess(s string) (ChurnProcess, error) { return churn.ParseProcess(s) }

// ParseChurnMatrix parses a traffic-matrix name: "gateway" or "random".
func ParseChurnMatrix(s string) (ChurnMatrix, error) { return churn.ParseMatrix(s) }

// The four local conditions of the telemetry timeline, re-exported.
const (
	CondSource    = obs.CondSource
	CondBuffer    = obs.CondBuffer
	CondBandwidth = obs.CondBandwidth
	CondRateLimit = obs.CondRateLimit
)

// Fault kinds, re-exported for schedule construction.
const (
	FaultNodeDown    = faults.NodeDown
	FaultNodeUp      = faults.NodeUp
	FaultLinkDegrade = faults.LinkDegrade
	FaultLinkRestore = faults.LinkRestore
	FaultNodeDegrade = faults.NodeDegrade
	FaultNodeRestore = faults.NodeRestore
)

// Mobility models, re-exported for MobilityConfig construction.
const (
	MobilityRandomWaypoint = mobility.RandomWaypoint
	MobilityRandomWalk     = mobility.RandomWalk
	MobilityGroup          = mobility.Group
)

// ParseMobilityModel parses a mobility model name: "random-waypoint",
// "random-walk" or "group" ("rwp" and "walk" are accepted shorthands).
func ParseMobilityModel(s string) (MobilityModel, error) { return mobility.ParseModel(s) }

// ParseProtocol parses a protocol name as Protocol.Name spells it:
// "gmp", "gmp-dist", "802.11", "2pp", "bp" or "bp-shared" ("gmpd",
// "80211" and "dcf" are accepted shorthands).
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "gmpd":
		return ProtocolGMPDistributed, nil
	case "80211", "dcf":
		return Protocol80211, nil
	}
	for p := ProtocolGMP; p <= ProtocolGMPDistributed; p++ {
		if p.Name() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("gmp: unknown protocol %q", s)
}

// Drop reasons, re-exported for FlowResult.DropsByReason.
const (
	DropOverflow = forwarding.DropOverflow
	DropTail     = forwarding.DropTail
	DropRetry    = forwarding.DropRetry
	DropNoRoute  = forwarding.DropNoRoute
	DropNodeDown = forwarding.DropNodeDown
)

// Protocol selects the end-to-end bandwidth allocation mechanism.
type Protocol int

// Supported protocols.
const (
	// ProtocolGMP is the paper's distributed Global Maxmin Protocol:
	// per-destination queueing, backpressure, and rate adaptation driven
	// by the four local conditions.
	ProtocolGMP Protocol = iota + 1
	// Protocol80211 is plain IEEE 802.11 DCF: shared FIFO with tail
	// overwrite, no backpressure, no rate control.
	Protocol80211
	// Protocol2PP is the two-phase protocol of ref [11]: per-flow
	// queueing with a precomputed basic-fair-share + short-flow-biased
	// allocation.
	Protocol2PP
	// ProtocolBackpressure is GMP's substrate without rate adaptation:
	// per-destination queues and congestion avoidance only (Fig. 1(c)).
	ProtocolBackpressure
	// ProtocolBackpressureShared is the single-queue variant of
	// ProtocolBackpressure (Fig. 1(b)), kept to reproduce §5.1's
	// motivation for per-destination queueing.
	ProtocolBackpressureShared
	// ProtocolGMPDistributed runs GMP as §6 literally describes: one
	// agent per node acting only on local measurements plus two-hop
	// link state received through in-band broadcasts (which consume
	// airtime and can be lost). ProtocolGMP is the centrally-evaluated
	// variant with identical condition logic and oracle information.
	ProtocolGMPDistributed
)

// String names the protocol as in the paper's tables.
func (p Protocol) String() string {
	switch p {
	case ProtocolGMP:
		return "GMP"
	case Protocol80211:
		return "802.11"
	case Protocol2PP:
		return "2PP"
	case ProtocolBackpressure:
		return "backpressure/per-dest"
	case ProtocolBackpressureShared:
		return "backpressure/shared"
	case ProtocolGMPDistributed:
		return "GMP/distributed"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Name returns the protocol's canonical command-line spelling, the one
// ParseProtocol accepts and gmpd puts in its cache keys.
func (p Protocol) Name() string {
	switch p {
	case ProtocolGMP:
		return "gmp"
	case Protocol80211:
		return "802.11"
	case Protocol2PP:
		return "2pp"
	case ProtocolBackpressure:
		return "bp"
	case ProtocolBackpressureShared:
		return "bp-shared"
	case ProtocolGMPDistributed:
		return "gmp-dist"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config parameterizes one simulation run. The zero value of every field
// except Scenario and Protocol is replaced by the paper's defaults (§7).
type Config struct {
	Scenario Scenario
	Protocol Protocol

	// Duration is the simulated session length (default 400 s).
	Duration time.Duration
	// Warmup excludes initial convergence from the reported rates;
	// rates are measured over [Warmup, Duration] (default Duration/2).
	Warmup time.Duration
	// Seed drives every random choice; equal seeds reproduce runs
	// exactly (default 1).
	Seed int64

	// Period is GMP's measurement/adjustment period (default 4 s).
	Period time.Duration
	// Beta is GMP's equality tolerance and step size (default 0.10).
	Beta float64
	// AdditiveIncrease is GMP's upward probe in pkt/s (default 4).
	AdditiveIncrease float64
	// OmegaThreshold is the buffer-saturation threshold (default 0.25).
	OmegaThreshold float64

	// QueueSlots is the per-queue capacity for GMP and 2PP (default 10).
	QueueSlots int
	// SharedQueueSlots is the shared FIFO capacity for plain 802.11
	// (default 300, the paper's node buffer).
	SharedQueueSlots int
	// StaleAfter bounds trust in an unrefreshed "buffer full"
	// advertisement (default 50 ms).
	StaleAfter time.Duration

	// FairAggregation serves shared queues round-robin by packet origin
	// (local source vs each upstream neighbor) instead of FIFO — an
	// extension beyond the paper, in the spirit of its ref [4], that
	// removes the local source's structural advantage at a shared
	// per-destination queue. Applies to the GMP and backpressure
	// protocols.
	FairAggregation bool
	// GeographicRouting replaces shortest-path tables with greedy
	// position-based forwarding (GPSR's greedy mode, the paper's §2.1
	// "implicit [routing table] under geographic routing"). Run fails
	// with an error if greedy forwarding dead-ends anywhere.
	GeographicRouting bool
	// CBRSources switches flow sources from Poisson arrivals (default)
	// to strict constant-bit-rate generation.
	CBRSources bool
	// DisableRTS turns off the RTS/CTS handshake.
	DisableRTS bool
	// LossProb injects uniform frame loss (failure injection; default 0).
	LossProb float64
	// Radio overrides the PHY constants (default radio.DefaultParams
	// adjusted for LossProb).
	Radio *radio.Params
	// EventTrace, when positive, records the most recent N channel
	// events (transmissions, deliveries, collisions, drops) into
	// Result.Events — an ns-2-style debugging trace.
	EventTrace int
	// InBandControl runs the link-state dissemination protocol (§6.2
	// step 2: per-period broadcasts relayed by dominating sets) on the
	// channel itself, so control traffic consumes real airtime. The
	// engine's information is unchanged (see DESIGN.md substitution 2);
	// this option makes the protocol's control cost measurable as
	// Result.ControlOverhead.
	InBandControl bool
	// Faults schedules node churn and loss episodes during the run (see
	// internal/faults). When empty, the scenario's own Faults (loadable
	// from scenario JSON) apply; setting this field overrides them. The
	// engine draws no randomness, so the same schedule with the same
	// seed reproduces the run byte for byte.
	Faults []FaultEvent
	// Mobility moves nodes during the run (see internal/mobility). On
	// every motion epoch the topology's precomputed structures update
	// incrementally from the moved set, the clique decomposition is
	// repaired, in-flight carrier-sense state is re-indexed, and routes
	// are rebuilt (composing with any crashed nodes from Faults). When
	// nil, the scenario's own Mobility (loadable from scenario JSON)
	// applies; setting this field overrides it. Mobility-off runs draw
	// the identical random sequence as before this field existed, so
	// they reproduce byte for byte.
	Mobility *MobilityConfig
	// Churn, when non-nil, overlays a dynamic flow workload on the
	// scenario's static flows: arrivals drawn from a seedable process
	// (Poisson or diurnal) with heavy-tailed sizes, each admitted flow
	// running for size/rate seconds before departing. When Admission is
	// set inside it, every arrival faces the distributed admission test
	// and an overload watchdog sheds the newest flows of persistently
	// overloaded cliques (central GMP only). When nil, the scenario's own
	// Churn (loadable from scenario JSON) applies; setting this field
	// overrides it. Churn-off runs draw the identical random sequence as
	// before this field existed, so they reproduce byte for byte.
	Churn *ChurnConfig
	// Telemetry, when non-nil, enables the telemetry layer: per-packet
	// lifecycle histograms, periodic queue/utilization/limit samples,
	// and the GMP condition-state timeline, surfaced as
	// Result.Telemetry. The recorder only observes — it draws no
	// randomness and mutates no protocol state — so enabling it does
	// not change any other Result field. When nil (the default) every
	// hook is a nil pointer check and the hot paths stay allocation-free.
	Telemetry *TelemetryConfig
	// Spans, when non-nil, enables the causal tracing layer: every
	// sampled packet (deterministic 1-in-k per-flow sampling, seeded
	// from Config.Seed) gets a span tree following it through source,
	// queues, MAC contention, and airtime, and every rate-limit change
	// gets a provenance record naming the condition and clique that
	// triggered it, surfaced as Result.Spans. Like Telemetry, the
	// recorder only observes — it draws no randomness and mutates no
	// protocol state — so enabling it does not change any other Result
	// field. When nil (the default) every hook is a nil pointer check
	// and the hot paths stay allocation-free.
	Spans *SpanConfig
}

// faultSchedule returns the effective fault schedule: Config.Faults
// when set, else the scenario's.
func (c *Config) faultSchedule() []FaultEvent {
	if len(c.Faults) > 0 {
		return c.Faults
	}
	return c.Scenario.Faults
}

// mobilityConfig returns the effective mobility model: Config.Mobility
// when set, else the scenario's (nil when neither is set).
func (c *Config) mobilityConfig() *MobilityConfig {
	if c.Mobility != nil {
		return c.Mobility
	}
	return c.Scenario.Mobility
}

// churnConfig returns the effective churn workload: Config.Churn when
// set, else the scenario's (nil when neither is set).
func (c *Config) churnConfig() *ChurnConfig {
	if c.Churn != nil {
		return c.Churn
	}
	return c.Scenario.Churn
}

func (c *Config) setDefaults() {
	if c.Duration == 0 {
		c.Duration = 400 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Period == 0 {
		c.Period = 4 * time.Second
	}
	if c.Beta == 0 {
		c.Beta = 0.10
	}
	if c.AdditiveIncrease == 0 {
		c.AdditiveIncrease = 4
	}
	if c.OmegaThreshold == 0 {
		c.OmegaThreshold = measure.DefaultOmegaThreshold
	}
	if c.QueueSlots == 0 {
		c.QueueSlots = 10
	}
	if c.SharedQueueSlots == 0 {
		c.SharedQueueSlots = 300
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 50 * time.Millisecond
	}
}

func (c *Config) validate() error {
	if len(c.Scenario.Positions) == 0 {
		return errors.New("gmp: config has no scenario")
	}
	if len(c.Scenario.Flows) == 0 {
		return errors.New("gmp: scenario has no flows")
	}
	if c.Protocol < ProtocolGMP || c.Protocol > ProtocolGMPDistributed {
		return fmt.Errorf("gmp: unknown protocol %d", int(c.Protocol))
	}
	if c.Warmup >= c.Duration {
		return fmt.Errorf("gmp: warmup %v is not before duration %v", c.Warmup, c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("gmp: negative warmup %v", c.Warmup)
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("gmp: loss probability %v outside [0,1)", c.LossProb)
	}
	if err := faults.ValidateSchedule(c.faultSchedule(), len(c.Scenario.Positions)); err != nil {
		return fmt.Errorf("gmp: fault schedule: %w", err)
	}
	if mob := c.mobilityConfig(); mob != nil {
		if err := mob.Validate(len(c.Scenario.Positions)); err != nil {
			return fmt.Errorf("gmp: %w", err)
		}
	}
	if ch := c.churnConfig(); ch != nil {
		if err := ch.Validate(len(c.Scenario.Positions)); err != nil {
			return fmt.Errorf("gmp: %w", err)
		}
	}
	return nil
}

// FlowResult reports one flow's outcome.
type FlowResult struct {
	Spec FlowSpec
	// Rate is the end-to-end delivery rate in pkt/s over the
	// measurement window.
	Rate float64
	// NormRate is Rate divided by the flow's weight (μ(f), §2.1).
	NormRate float64
	// Hops is the routing path length l_f on the t=0 topology: under
	// mobility it is the initial route's length, not the final one's.
	Hops int
	// Delivered and Dropped count packets over the whole session.
	Delivered int64
	Dropped   int64
	// DropsByReason classifies Dropped by cause (overflow, retry limit,
	// no route, node crash, ...), so fault experiments can separate
	// crash losses from congestion losses.
	DropsByReason map[DropReason]int64
	// Limit is the final self-imposed rate limit (+Inf when none).
	Limit float64
}

// Result is the outcome of one simulation run.
type Result struct {
	Scenario string
	Protocol Protocol
	Flows    []FlowResult
	// Rates collects Flows[i].Rate (convenience for the metrics).
	Rates []float64
	// Imm and Ieq are the §7.2 fairness indices; U is the effective
	// network throughput Σ r(f)·l_f.
	Imm float64
	Ieq float64
	U   float64
	// Reference is the centralized weighted water-filling allocation on
	// estimated clique capacities — the maxmin ground truth GMP should
	// approach (shape, not absolute values). Under mobility it is solved
	// on the t=0 topology: the initial routes and the initial cliques.
	Reference []float64
	// TwoPPTarget is 2PP's precomputed allocation (Protocol2PP only).
	TwoPPTarget []float64
	// Trace is GMP's adjustment-round history (ProtocolGMP only).
	Trace []Round
	// Channel reports medium-level counters.
	Channel radio.Stats
	// MAC reports per-node DCF counters, indexed by node ID.
	MAC []MACStats
	// Events holds the recorded trace (Config.EventTrace > 0 only),
	// oldest first.
	Events []TraceEvent
	// ControlOverhead is the fraction of the session's airtime consumed
	// by link-state broadcasts (Config.InBandControl only).
	ControlOverhead float64
	// FaultEvents is the applied fault schedule, sorted by time (nil in
	// fault-free runs).
	FaultEvents []FaultEvent
	// MobilityEpochs counts the motion epochs that fired (mobility runs
	// only; zero in static runs).
	MobilityEpochs int
	// RecoveryTime measures re-convergence after the last disturbance —
	// the last fault or the last topology-changing motion epoch,
	// whichever is later: how long after it the trace settled back into
	// a steady allocation (RecoveryReport with DefaultRecoveryTol).
	// Recovered is false when the post-disturbance trace never settled,
	// was too short to judge, or the protocol records no trace.
	RecoveryTime time.Duration
	Recovered    bool
	// Churn reports the dynamic-workload outcome (Config.Churn or the
	// scenario's churn block only; nil in static runs).
	Churn *ChurnOutcome
	// Telemetry holds the run's recorded telemetry (Config.Telemetry
	// non-nil only).
	Telemetry *Telemetry
	// Spans holds the run's causal trace (Config.Spans non-nil only).
	Spans *SpanTrace
}

// AdmissionDecision is one recorded churn admission event: an arrival
// admitted or refused, or an admitted flow shed later by the overload
// watchdog (Admitted false, Reason "shed").
type AdmissionDecision struct {
	Flow     FlowID
	At       time.Duration
	Admitted bool
	// Reason is the refusal class ("no-route", "clique-overload",
	// "shed"); empty when admitted.
	Reason string
}

// ChurnOutcome reports a churn run's workload-level results.
type ChurnOutcome struct {
	// Arrivals counts the scheduled arrivals that fired; Admitted,
	// Rejected and Shed partition their fates (a shed flow counts under
	// both Admitted and Shed).
	Arrivals int
	Admitted int
	Rejected int
	Shed     int
	// StaleLimits counts churn flows that departed still holding a
	// self-imposed rate limit — the teardown bug class this field
	// regression-tests; always 0 when teardown is correct.
	StaleLimits int
	// Decisions is every admission event in simulation order.
	Decisions []AdmissionDecision
	// TimeToFairShare is parallel to Decisions: for each admitted
	// arrival, how long after it the flow's rate first settled into the
	// band it held for the rest of its life (-1 for refused arrivals and
	// whenever the trace is too short to judge). Requires a protocol
	// that records a trace (GMP).
	TimeToFairShare []time.Duration
}

// Run simulates the scenario under the selected protocol and reports the
// resulting allocation. It is deterministic for a given Config.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the simulation checks
// ctx once per simulated second (a no-op event that consumes no
// randomness, so results are byte-identical to Run) and aborts with
// ctx's error when it is cancelled or times out. RunMany uses it to
// enforce per-run timeouts.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gmp: run aborted before start: %w", err)
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		// Poll for cancellation on the virtual clock. The poll event
		// touches no protocol state and no random source, so enabling
		// it cannot change the outcome of an uncancelled run.
		var poll func()
		poll = func() {
			select {
			case <-done:
				s.sched.Stop()
			default:
				s.sched.After(time.Second, poll)
			}
		}
		s.sched.After(time.Second, poll)
	}
	s.sched.At(cfg.Warmup, func() { s.registry.Mark(cfg.Warmup) })
	s.sched.Run(cfg.Duration)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gmp: run aborted at t=%v: %w", s.sched.Now(), err)
	}
	return s.collect()
}

// gmpRuntime is what a session drives in either GMP runtime: the
// central *core.Engine or the per-node agents of *core.Distributed.
type gmpRuntime interface {
	SetCliques(*clique.Set)
	SetFaultProbe(func() []topology.NodeID)
	SetProbe(*obs.Probe)
	OnFlowDeparted(packet.FlowID)
	Trace() []core.Round
}

// session is one run in stages: newSession builds the network, start
// wires the run's dynamic parts, RunContext runs the kernel, and collect
// assembles the Result. The hooks the parts call back into are methods
// over the session's fields.
//
// Master-RNG draw order. Every random source is seeded by one draw from
// the master RNG (Config.Seed), in this order:
//  1. churn, if on;
//  2. the medium;
//  3. one draw per station, in node order;
//  4. one draw per source, in flow order;
//  5. in-band jitter, outside gmp-dist;
//  6. the agents' offsets, in gmp-dist;
//  7. mobility, if on.
//
// A part that is off draws nothing, so a churn-off or mobility-off run
// consumes the identical sequence it always did.
//
// Event-registration order. Same-instant kernel events run in the order
// they were registered, and the stages register theirs in this order:
// the static sources' first packets (newSession); in-band control, the
// fault schedule, the protocol's period boundaries, mobility epochs,
// churn arrivals and the telemetry sampler (start); the cancel poll and
// the warmup mark (RunContext).
//
// The determinism goldens pin both orders, so neither may move; the
// telemetry goldens, for one, pin the sampler's place after churn.
type session struct {
	cfg    Config
	sched  *sim.Scheduler
	master *rand.Rand
	topo   *topology.Topology

	// routes is the t=0 table: the reference allocation and
	// FlowResult.Hops read it after mobility has left it stale.
	// liveRoutes is the latest repair, which churn admission tests
	// arrivals against.
	routes, liveRoutes *routing.Table
	// cliques is the t=0 decomposition; liveCliques follows mobility.
	cliques, liveCliques *clique.Set
	capacity             float64

	// allFlows holds the static flows, then one flow per churn arrival
	// (staticN counts the static ones). ccfg is the effective churn
	// workload and churnFlows its schedule, nil when churn is off.
	allFlows   []flow.Spec
	staticN    int
	ccfg       *churn.Config
	churnFlows []churn.Flow

	medium   *radio.Medium
	fwdCfg   forwarding.Config
	nodes    []*forwarding.Node
	stations []*mac.Station
	registry *flow.Registry

	// sinks holds the run's observers, each nil when off. probe, what
	// every layer holds, points at sinks, or is nil when all are off.
	sinks obs.Probe
	probe *obs.Probe

	dissAgents     []*dissemination.Agent
	fengine        *faults.Engine
	rt             gmpRuntime // nil outside the two GMP protocols
	twoPPTarget    []float64
	mobEngine      *mobility.Engine
	lastTopoChange time.Duration
	churnEng       *churn.Engine
	admCtrl        *admission.Controller
}

// newSession builds the run's network: the topology, the t=0 routes
// with every flow's row, the churn schedule, the medium, the observers'
// probe, the stations with their forwarding nodes, the flow sources
// (static flows start here) and the cliques.
func newSession(cfg Config) (*session, error) {
	topo, err := cfg.Scenario.Topology()
	if err != nil {
		return nil, fmt.Errorf("gmp: building topology: %w", err)
	}
	// Shortest-path tables materialize per-destination rows lazily: only
	// the flow destinations actually routed to pay for a BFS, which is
	// what makes the 10k-node city scenario start in milliseconds. Every
	// mobility epoch that changes the adjacency installs a fresh table,
	// and a lazy table refuses to compute a row after such a change.
	// Geographic tables are always eager: their dead-end detection must
	// run up front to drive the GPSR-fallback error contract.
	var routes *routing.Table
	if cfg.GeographicRouting {
		routes, err = routing.BuildGeographic(topo)
		if err != nil {
			return nil, fmt.Errorf("gmp: %w", err)
		}
	} else {
		routes = routing.BuildLazy(topo)
	}
	for _, spec := range cfg.Scenario.Flows {
		if !topo.Valid(spec.Src) || !topo.Valid(spec.Dst) {
			return nil, fmt.Errorf("gmp: flow %d endpoints (%d,%d) outside topology", spec.ID, spec.Src, spec.Dst)
		}
		if routes.HopCount(spec.Src, spec.Dst) <= 0 {
			return nil, fmt.Errorf("gmp: flow %d has no route from %d to %d", spec.ID, spec.Src, spec.Dst)
		}
	}
	s := &session{
		cfg:        cfg,
		sched:      sim.NewScheduler(),
		master:     sim.NewRand(cfg.Seed),
		topo:       topo,
		routes:     routes,
		liveRoutes: routes,
		allFlows:   append([]flow.Spec(nil), cfg.Scenario.Flows...),
		staticN:    len(cfg.Scenario.Flows),
	}

	// Churn workload: every arrival is generated up front.
	if c := cfg.churnConfig(); c != nil {
		cc := c.WithDefaults()
		s.ccfg = &cc
		s.churnFlows = churn.Generate(cc, len(cfg.Scenario.Positions), cfg.Duration, sim.NewRand(s.master.Int63()))
	}
	for i, cf := range s.churnFlows {
		spec := flow.Spec{
			ID:          packet.FlowID(s.staticN + i),
			Src:         cf.Src,
			Dst:         cf.Dst,
			Weight:      cf.Weight,
			DesiredRate: cf.DesiredRate,
			SizeBytes:   cf.SizeBytes,
			Start:       cf.At,
			Stop:        cf.At + cf.Lifetime,
		}
		s.allFlows = append(s.allFlows, spec)
		// The t=0 table must hold every flow's row before mobility can
		// leave it stale (the static rows were built by the check above).
		routes.HopCount(spec.Src, spec.Dst)
	}

	par := radio.DefaultParams()
	if cfg.Radio != nil {
		par = *cfg.Radio
	}
	par.LossProb = cfg.LossProb
	s.medium = radio.NewMedium(s.sched, topo, par, sim.NewRand(s.master.Int63()))
	s.capacity = par.SaturationRate(packetBytes(s.allFlows), !cfg.DisableRTS)
	if s.fwdCfg, err = forwardingConfig(cfg); err != nil {
		return nil, err
	}
	if s.registry, err = flow.NewRegistry(s.allFlows); err != nil {
		return nil, fmt.Errorf("gmp: %w", err)
	}

	// Observers (internal/obs, internal/span, internal/trace). None draws
	// randomness or touches protocol state, and span sampling is a pure
	// function of (Config.Seed, flow, stride), so an observed run
	// reproduces an unobserved one exactly.
	if cfg.Telemetry != nil {
		interval := cfg.Telemetry.SampleInterval
		if interval <= 0 {
			interval = cfg.Period
		}
		s.sinks.Tel = obs.NewRecorder(topo, len(s.allFlows), interval, s.sched.Now)
	}
	if cfg.Spans != nil {
		s.sinks.Spans = span.NewRecorder(topo.NumNodes(), len(s.allFlows), cfg.Seed, cfg.Spans.SampleEvery, s.sched.Now)
	}
	if cfg.EventTrace > 0 {
		s.sinks.Events = trace.NewRing(cfg.EventTrace)
	}
	if s.sinks != (obs.Probe{}) {
		s.probe = &s.sinks
	}
	s.medium.SetProbe(s.probe)

	s.nodes = make([]*forwarding.Node, topo.NumNodes())
	s.stations = make([]*mac.Station, topo.NumNodes())
	macCfg := mac2Config(cfg)
	for _, id := range topo.Nodes() {
		n := forwarding.NewNode(id, s.sched, s.fwdCfg, routes, s.registry.OnDeliver, s.registry.OnDrop)
		st := newStation(id, s.sched, s.medium, macCfg, s.master.Int63(), n)
		n.SetMAC(st)
		n.SetProbe(s.probe)
		st.SetProbe(s.probe)
		s.nodes[id], s.stations[id] = n, st
	}
	for _, spec := range s.allFlows {
		src := flow.NewSource(spec, s.sched, s.nodes[spec.Src], cfg.Period, sim.NewRand(s.master.Int63()))
		src.SetCBR(cfg.CBRSources)
		s.registry.AttachSource(spec.ID, src)
		// Static flows start immediately; churn flows wait for their
		// arrival's admission decision (StartNow in OnAdmit).
		if int(spec.ID) < s.staticN {
			src.Start()
		}
	}
	s.cliques = clique.Build(topo)
	s.liveCliques = s.cliques
	return s, nil
}

// start wires the run's dynamic parts, in registration order: in-band
// control, faults, the protocol, mobility, churn and the telemetry
// sampler.
func (s *session) start() error {
	cfg := s.cfg
	if cfg.InBandControl && cfg.Protocol != ProtocolGMPDistributed {
		// The distributed runtime's own dissemination is already
		// in-band; this path covers the other protocols.
		s.dissAgents = startInBandControl(s.sched, s.topo, s.nodes, s.stations, cfg.Period, sim.NewRand(s.master.Int63()))
	}
	// The fault engine draws no randomness and registers all events up
	// front, so a run with an empty schedule is byte-identical to one
	// without faults.
	if events := cfg.faultSchedule(); len(events) > 0 {
		var err error
		s.fengine, err = faults.Start(s.sched, s.topo.NumNodes(), events, faults.Hooks{
			Medium:   s.medium,
			Stations: s.stations,
			Nodes:    s.nodes,
			Sources:  s.registry.Sources(),
			Rebuild:  s.rebuildRoutes,
		})
		if err != nil {
			return fmt.Errorf("gmp: fault schedule: %w", err)
		}
	}
	if err := s.startProtocol(); err != nil {
		return err
	}
	if mob := cfg.mobilityConfig(); mob != nil {
		var err error
		if s.mobEngine, err = mobility.Start(s.sched, cfg.Scenario.Positions, *mob, sim.NewRand(s.master.Int63()), s.onEpoch); err != nil {
			return fmt.Errorf("gmp: %w", err)
		}
	}
	if s.ccfg != nil {
		s.startChurn()
	}
	if tel := s.sinks.Tel; tel != nil {
		// Periodic sampler: queue depths, per-link channel utilization,
		// per-flow rate limits. Pure observation on the virtual clock.
		interval := tel.SampleInterval()
		var sample func()
		sample = func() {
			smp := obs.Sample{At: s.sched.Now(), Queues: make([]int, len(s.nodes))}
			for i, n := range s.nodes {
				smp.Queues[i] = n.TotalQueued()
			}
			smp.Links = tel.SampleLinkUtil(interval)
			smp.Limits = s.registry.Limits()
			tel.AddSample(smp)
			s.sched.After(interval, sample)
		}
		s.sched.After(interval, sample)
	}
	return nil
}

// startProtocol starts the selected protocol's control: a GMP runtime,
// or 2PP's precomputed limits. Plain 802.11 and backpressure have none.
func (s *session) startProtocol() error {
	cfg := s.cfg
	params := core.Params{
		Period:           cfg.Period,
		Beta:             cfg.Beta,
		OmegaThreshold:   cfg.OmegaThreshold,
		AdditiveIncrease: cfg.AdditiveIncrease,
		HalveGap:         core.DefaultParams().HalveGap,
	}
	switch cfg.Protocol {
	case ProtocolGMPDistributed:
		// Control messaging defaults to the out-of-band bus (reliable,
		// zero airtime, identical two-hop scoping); InBandControl runs
		// it over real 802.11 broadcasts instead — which have no
		// collision recovery and can starve under the very congestion
		// GMP exists to control (see EXPERIMENTS.md).
		s.dissAgents = make([]*dissemination.Agent, s.topo.NumNodes())
		if cfg.InBandControl {
			for _, id := range s.topo.Nodes() {
				s.dissAgents[id] = dissemination.NewAgent(id, s.topo, s.stations[id])
			}
		} else {
			bus := dissemination.NewBus(s.topo)
			for _, id := range s.topo.Nodes() {
				s.dissAgents[id] = bus.NewAgent(id, s.topo)
			}
		}
		board := measure.NewOccupancyBoard(s.medium, cfg.Period)
		dist, err := core.StartDistributed(s.sched, s.topo, s.cliques, board, s.nodes, s.dissAgents,
			s.registry, params, sim.NewRand(s.master.Int63()))
		if err != nil {
			return fmt.Errorf("gmp: %w", err)
		}
		s.rt = dist
	case ProtocolGMP:
		if err := params.Validate(); err != nil {
			return fmt.Errorf("gmp: %w", err)
		}
		collector := measure.NewCollector(s.nodes, s.medium, cfg.OmegaThreshold)
		engine, err := core.NewEngine(s.sched, s.topo, s.cliques, s.registry, collector, params)
		if err != nil {
			return fmt.Errorf("gmp: %w", err)
		}
		engine.Start()
		s.rt = engine
	case Protocol2PP:
		refFlows := make([]maxminref.FlowSpec, s.staticN)
		for i, spec := range cfg.Scenario.Flows {
			refFlows[i] = refSpec(spec)
		}
		target, err := baseline.TwoPPAllocation(refFlows, s.routes, s.cliques, baseline.UniformCliqueCapacity(s.capacity))
		if err != nil {
			return fmt.Errorf("gmp: 2PP allocation: %w", err)
		}
		for i, r := range target {
			s.registry.Source(packet.FlowID(i)).SetLimit(r)
		}
		s.twoPPTarget = target
		return nil
	default:
		return nil
	}
	s.rt.SetProbe(s.probe)
	if s.fengine != nil {
		s.rt.SetFaultProbe(s.fengine.DownNodes)
	}
	return nil
}

// rebuildRoutes repairs the routing tables against the live topology,
// excluding crashed nodes, and makes the result the live table. Faults
// and motion share it, so a motion epoch keeps excluding the nodes a
// fault already crashed.
func (s *session) rebuildRoutes(down []bool) *routing.Table {
	var t *routing.Table
	if s.cfg.GeographicRouting {
		if gt, err := routing.BuildGeographicExcluding(s.topo, down); err == nil {
			t = gt
		}
		// A crash or motion opened a greedy void: GPSR-style
		// fallback to shortest-path repair.
	}
	if t == nil {
		// The down set is copied at build time.
		t = routing.BuildLazyExcluding(s.topo, down)
	}
	s.liveRoutes = t
	return t
}

// onEpoch applies one mobility epoch: it moves the nodes, repairs the
// cliques every consumer holds, and re-routes.
func (s *session) onEpoch(moved []topology.NodeID, newPos []geom.Point) {
	// In-flight transmissions hold carrier-sense counts against the old
	// neighbor lists: unwind them before mutating the topology in place,
	// re-key the per-link accounting after.
	s.medium.BeginTopologyChange()
	diff, err := s.topo.MoveNodes(moved, newPos)
	if err != nil {
		panic(fmt.Sprintf("gmp: mobility epoch at %v: %v", s.sched.Now(), err))
	}
	s.medium.EndTopologyChange(diff.OldLinks)
	s.sinks.Tel.OnTopologyChange(diff.OldLinks)
	if diff.Changed() {
		s.lastTopoChange = s.sched.Now()
		s.liveCliques = clique.Update(s.topo, s.liveCliques, diff.Touched)
		if s.rt != nil {
			s.rt.SetCliques(s.liveCliques)
		}
		if s.admCtrl != nil {
			s.admCtrl.SetCliques(s.liveCliques)
		}
		for _, a := range s.dissAgents {
			if a != nil {
				a.RefreshTopology(s.topo)
			}
		}
	}
	// Greedy geographic next hops depend on raw positions, not just the
	// link set, so they re-resolve on every epoch.
	if diff.Changed() || s.cfg.GeographicRouting {
		var down []bool
		if s.fengine != nil {
			down = s.fengine.DownSet()
		}
		table := s.rebuildRoutes(down)
		for _, n := range s.nodes {
			n.ResetNeighborState()
			n.SetRoutes(table)
		}
	}
}

// startChurn starts the flow-churn engine. Its hooks run as scheduled
// callbacks that draw no randomness, so churn-on runs reproduce byte
// for byte.
func (s *session) startChurn() {
	baseID := packet.FlowID(s.staticN)
	if adm := s.ccfg.Admission; adm != nil {
		s.admCtrl = admission.NewController(*adm, s.cliques, s.capacity)
		// Static flows are grandfathered: they book clique budget so
		// arrivals test against the true load, but never face the
		// admission test themselves.
		for _, spec := range s.cfg.Scenario.Flows {
			if links, err := s.routes.Links(spec.Src, spec.Dst); err == nil {
				s.admCtrl.Book(spec.ID, spec.Weight, links)
			}
		}
	}
	tel := s.sinks.Tel
	s.churnEng = churn.Start(s.sched, s.churnFlows, baseID, churn.Hooks{
		Admit: s.admit,
		OnAdmit: func(id packet.FlowID, f churn.Flow) {
			s.registry.Source(id).StartNow()
			tel.Admission(id, true, "")
		},
		OnReject: func(id packet.FlowID, f churn.Flow, reason admission.Reason) {
			tel.Admission(id, false, reason.String())
		},
		OnDepart: s.teardown,
		OnShed: func(id packet.FlowID, f churn.Flow) {
			s.teardown(id, f)
			tel.Admission(id, false, admission.Shed.String())
		},
	})
	if engine, ok := s.rt.(*core.Engine); ok && s.admCtrl != nil {
		// Overload watchdog (central GMP only: the distributed runtime
		// has no global view of reduce conditions, see DESIGN.md). When
		// a clique's §5.3 reduce condition persists ShedAfter
		// consecutive periods, the newest churn flow crossing it is
		// shed; static flows are never shed.
		wd := admission.NewWatchdog(s.ccfg.Admission.ShedAfter)
		engine.SetOverloadNotifier(func(overloaded []clique.ID) {
			for _, q := range wd.Observe(overloaded) {
				if victim, ok := s.admCtrl.NewestCrossing(q, baseID); ok {
					s.churnEng.Shed(victim)
				}
			}
		})
	}
}

// admit is a churn arrival's admission test: a live route between live
// endpoints, then the admission controller's clique budgets, if any.
func (s *session) admit(id packet.FlowID, f churn.Flow) admission.Reason {
	if s.fengine != nil && (s.fengine.Down(f.Src) || s.fengine.Down(f.Dst)) {
		return admission.NoRoute
	}
	links, err := s.liveRoutes.Links(f.Src, f.Dst)
	if err != nil || len(links) == 0 {
		return admission.NoRoute
	}
	if s.admCtrl == nil {
		return 0
	}
	return s.admCtrl.Admit(id, f.Weight, links)
}

// teardown ends a departed or shed churn flow everywhere it left state.
func (s *session) teardown(id packet.FlowID, f churn.Flow) {
	s.registry.Source(id).Teardown()
	if s.admCtrl != nil {
		s.admCtrl.Release(id)
	}
	if s.rt != nil {
		s.rt.OnFlowDeparted(id)
	}
	s.releaseQueues(id, f)
}

// releaseQueues frees a departed flow's queues along its former path
// where idle (in-flight stragglers recreate them on demand, so a second
// sweep one period later catches the tail). The shared FIFO of plain
// 802.11 belongs to every flow and is never released.
func (s *session) releaseQueues(id packet.FlowID, f churn.Flow) {
	if s.fwdCfg.Mode == forwarding.Shared {
		return
	}
	path, err := s.liveRoutes.Path(f.Src, f.Dst)
	if err != nil {
		return
	}
	qid := s.fwdCfg.Mode.QueueKey(&packet.Packet{Flow: id, Dst: f.Dst})
	sweep := func() {
		for _, n := range path[:len(path)-1] {
			s.nodes[n].ReleaseQueueIfIdle(qid)
		}
	}
	sweep()
	s.sched.After(s.cfg.Period, sweep)
}

// collect assembles the Result once the kernel has stopped.
func (s *session) collect() (*Result, error) {
	cfg := s.cfg
	// The maxmin ground truth. Under churn the reference covers the
	// static flows plus the churn flows still active at the end of the
	// run — the set whose allocation the protocol should approach —
	// scattered into a full-length vector (0 for refused, shed and
	// departed flows).
	var refFlows []maxminref.FlowSpec
	refIdx := make([]int, 0, len(s.allFlows))
	for i, spec := range s.allFlows {
		if i >= s.staticN && (!s.churnEng.Active(spec.ID) || s.routes.HopCount(spec.Src, spec.Dst) <= 0) {
			continue
		}
		refFlows = append(refFlows, refSpec(spec))
		refIdx = append(refIdx, i)
	}
	reference, err := referenceAllocation(refFlows, s.routes, s.cliques, s.capacity)
	if err != nil {
		return nil, err
	}
	if len(s.allFlows) > s.staticN {
		full := make([]float64, len(s.allFlows))
		for j, v := range reference {
			full[refIdx[j]] = v
		}
		reference = full
	}

	rates := s.registry.MeasuredRates(cfg.Duration)
	res := &Result{
		Scenario:    cfg.Scenario.Name,
		Protocol:    cfg.Protocol,
		Rates:       rates,
		Reference:   reference,
		TwoPPTarget: s.twoPPTarget,
		Channel:     s.medium.Stats(),
		Telemetry:   s.sinks.Tel.Finalize(cfg.Scenario.Name, cfg.Protocol.String()),
		Spans:       s.sinks.Spans.Finalize(cfg.Scenario.Name, cfg.Protocol.String(), cfg.Duration),
	}
	for _, st := range s.stations {
		res.MAC = append(res.MAC, st.Stats())
	}
	if s.sinks.Events != nil {
		res.Events = s.sinks.Events.Events()
	}
	res.ControlOverhead = float64(res.Channel.ControlAirtime) / float64(cfg.Duration)
	hops := make([]int, len(rates))
	for i, spec := range s.allFlows {
		src := s.registry.Source(spec.ID)
		limit := math.Inf(1)
		if l, ok := src.Limited(); ok {
			limit = l
		}
		hops[i] = s.routes.HopCount(spec.Src, spec.Dst)
		res.Flows = append(res.Flows, FlowResult{
			Spec:          spec,
			Rate:          rates[i],
			NormRate:      rates[i] / spec.Weight,
			Hops:          hops[i],
			Delivered:     s.registry.Delivered(spec.ID),
			Dropped:       s.registry.Dropped(spec.ID),
			DropsByReason: s.registry.DroppedBy(spec.ID),
			Limit:         limit,
		})
	}
	// Under churn the fairness indices cover the same set as Reference —
	// static flows plus churn flows active at the end — so refused and
	// departed flows (rate 0 by construction) do not masquerade as
	// starvation.
	mRates, mHops := rates, hops
	if len(s.allFlows) > s.staticN {
		mRates = make([]float64, 0, len(refIdx))
		mHops = make([]int, 0, len(refIdx))
		for _, i := range refIdx {
			mRates = append(mRates, rates[i])
			mHops = append(mHops, hops[i])
		}
	}
	res.Imm = metrics.MaxminIndex(mRates)
	res.Ieq = metrics.EqualityIndex(mRates)
	res.U = metrics.EffectiveThroughput(mRates, mHops)
	if s.rt != nil {
		res.Trace = s.rt.Trace()
	}
	if s.churnEng != nil {
		out := &ChurnOutcome{}
		out.Arrivals, out.Admitted, out.Rejected, out.Shed = s.churnEng.Counts()
		for _, d := range s.churnEng.Decisions() {
			ad := AdmissionDecision{Flow: d.Flow, At: d.At, Admitted: d.Admitted}
			if !d.Admitted {
				ad.Reason = d.Reason.String()
			}
			out.Decisions = append(out.Decisions, ad)
		}
		out.TimeToFairShare = make([]time.Duration, len(out.Decisions))
		for i, d := range out.Decisions {
			out.TimeToFairShare[i] = -1
			if d.Admitted {
				spec := s.allFlows[d.Flow]
				if ttfs, ok := FlowTimeToFairShare(res.Trace, int(d.Flow), d.At, spec.Stop, DefaultRecoveryTol); ok {
					out.TimeToFairShare[i] = ttfs
				}
			}
		}
		// Departed flows must leave no rate-limit state behind; a
		// non-zero count here is the teardown bug this field exists to
		// catch.
		for id := packet.FlowID(s.staticN); int(id) < len(s.allFlows); id++ {
			src := s.registry.Source(id)
			if src.Started() && !s.churnEng.Active(id) {
				if _, limited := src.Limited(); limited {
					out.StaleLimits++
				}
			}
		}
		res.Churn = out
	}
	if s.fengine != nil {
		res.FaultEvents = s.fengine.Schedule()
	}
	if s.mobEngine != nil {
		res.MobilityEpochs = s.mobEngine.Epochs()
	}
	if (s.fengine != nil || s.lastTopoChange > 0) && len(res.Trace) > 0 {
		// Anchor recovery at the last disturbance of either kind.
		anchor := s.lastTopoChange
		if s.fengine != nil && s.fengine.LastFaultTime() > anchor {
			anchor = s.fengine.LastFaultTime()
		}
		rep := RecoveryReport(res.Trace, anchor, DefaultRecoveryTol)
		res.RecoveryTime, res.Recovered = rep.Time, rep.Settled
	}
	return res, nil
}

// refSpec is a flow's entry in a maxmin reference problem.
func refSpec(spec flow.Spec) maxminref.FlowSpec {
	return maxminref.FlowSpec{Src: spec.Src, Dst: spec.Dst, Weight: spec.Weight, Demand: spec.DesiredRate}
}

func forwardingConfig(cfg Config) (forwarding.Config, error) {
	var fc forwarding.Config
	switch cfg.Protocol {
	case ProtocolGMP, ProtocolGMPDistributed, ProtocolBackpressure:
		fc = forwarding.Config{
			Mode:                forwarding.PerDestination,
			QueueSlots:          cfg.QueueSlots,
			CongestionAvoidance: true,
			StaleAfter:          cfg.StaleAfter,
			RequeueOnFailure:    true,
			FairAggregation:     cfg.FairAggregation,
		}
	case Protocol2PP:
		fc = baseline.TwoPPForwarding(cfg.QueueSlots)
		fc.StaleAfter = cfg.StaleAfter
		fc.RequeueOnFailure = true
	case Protocol80211:
		fc = baseline.Plain80211Forwarding(cfg.SharedQueueSlots)
	case ProtocolBackpressureShared:
		fc = forwarding.Config{
			Mode:                forwarding.Shared,
			QueueSlots:          cfg.QueueSlots,
			CongestionAvoidance: true,
			StaleAfter:          cfg.StaleAfter,
			RequeueOnFailure:    true,
		}
	default:
		return forwarding.Config{}, fmt.Errorf("gmp: unknown protocol %d", int(cfg.Protocol))
	}
	if fc.QueueSlots <= 0 {
		return forwarding.Config{}, fmt.Errorf("gmp: non-positive queue capacity %d", fc.QueueSlots)
	}
	return fc, nil
}

func referenceAllocation(flows []maxminref.FlowSpec, routes *routing.Table, cliques *clique.Set, capacity float64) ([]float64, error) {
	problem, err := maxminref.BuildProblem(flows, routes, cliques, baseline.UniformCliqueCapacity(capacity))
	if err != nil {
		return nil, fmt.Errorf("gmp: reference allocation: %w", err)
	}
	ref, err := problem.Solve()
	if err != nil {
		return nil, fmt.Errorf("gmp: reference allocation: %w", err)
	}
	return ref, nil
}

// startInBandControl wires a dissemination agent per node and floods
// every node's link-state records once per period, jittered across the
// first tenth of the period so the group-addressed frames (which have no
// collision recovery) do not all collide at the boundary. It returns the
// agents so mobility epochs can refresh their relay sets.
func startInBandControl(sched *sim.Scheduler, topo *topology.Topology, nodes []*forwarding.Node, stations []*mac.Station, period time.Duration, rng *rand.Rand) []*dissemination.Agent {
	agents := make([]*dissemination.Agent, topo.NumNodes())
	for _, id := range topo.Nodes() {
		agents[id] = dissemination.NewAgent(id, topo, stations[id])
		nodes[id].SetBroadcastHandler(agents[id].OnBroadcast)
	}
	var tick func()
	tick = func() {
		for _, id := range topo.Nodes() {
			id := id
			jitter := time.Duration(rng.Float64() * float64(period) / 10)
			sched.After(jitter, func() {
				n := len(topo.Neighbors(id))
				agents[id].Broadcast(n, n)
			})
		}
		sched.After(period, tick)
	}
	sched.After(period, tick)
	return agents
}

// packetBytes returns the packet size shared by the flows (the largest,
// if they differ) for capacity estimation.
func packetBytes(specs []flow.Spec) int {
	size := scenario.DefaultPacketBytes
	for _, s := range specs {
		if s.SizeBytes > size {
			size = s.SizeBytes
		}
	}
	return size
}

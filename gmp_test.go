package gmp

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"gmp/internal/radio"
)

// radioDefaultParams exposes the default PHY constants to tests.
func radioDefaultParams() radio.Params { return radio.DefaultParams() }

// run executes a scenario with test-friendly defaults.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConfigValidation checks that Run refuses each bad config with an
// error, never a panic, and that Config.Validate refuses it too, since
// none of these checks needs the topology.
func TestConfigValidation(t *testing.T) {
	noFlows := Fig3Scenario()
	noFlows.Flows = nil
	fig3 := Fig3Scenario()
	for name, cfg := range map[string]Config{
		"empty config":            {},
		"missing protocol":        {Scenario: fig3},
		"warmup beyond duration":  {Scenario: fig3, Protocol: ProtocolGMP, Duration: time.Second, Warmup: 2 * time.Second},
		"negative warmup":         {Scenario: fig3, Protocol: ProtocolGMP, Warmup: -time.Second},
		"loss probability over 1": {Scenario: fig3, Protocol: ProtocolGMP, LossProb: 1.5},
		"scenario without flows":  {Scenario: noFlows, Protocol: ProtocolGMP},
		"negative queue":          {Scenario: fig3, Protocol: ProtocolGMP, QueueSlots: -1},
		"negative shared queue":   {Scenario: fig3, Protocol: Protocol80211, SharedQueueSlots: -1},
		"omega above 1":           {Scenario: fig3, Protocol: ProtocolGMP, OmegaThreshold: 1.5},
		// Plain 802.11 runs on the period too: the telemetry sampler
		// falls back to it, and in-band control ticks on it.
		"negative period, telemetry": {Scenario: fig3, Protocol: Protocol80211, Duration: 4 * time.Second,
			Period: -time.Second, Telemetry: &TelemetryConfig{}},
		"negative period, in-band control": {Scenario: fig3, Protocol: Protocol80211, Duration: 4 * time.Second,
			Period: -time.Second, InBandControl: true},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnroutableFlowRejected(t *testing.T) {
	sc := Fig3Scenario()
	sc.Flows[0].Dst = 99
	if _, err := Run(Config{Scenario: sc, Protocol: ProtocolGMP}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, Duration: 40 * time.Second, Seed: 11}
	a := run(t, cfg)
	b := run(t, cfg)
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatalf("same seed diverged: %v vs %v", a.Rates, b.Rates)
		}
	}
	if a.Channel != b.Channel {
		t.Errorf("channel stats diverged: %+v vs %+v", a.Channel, b.Channel)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	base := Config{Scenario: Fig3Scenario(), Protocol: Protocol80211, Duration: 30 * time.Second}
	a := run(t, base)
	base.Seed = 99
	b := run(t, base)
	same := true
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical rates (suspicious)")
	}
}

func TestSingleLinkSaturation(t *testing.T) {
	sc, err := ChainScenario(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{Scenario: sc, Protocol: Protocol80211, Duration: 30 * time.Second})
	want := 520.0 // estimated saturation rate for 1024 B at 11 Mbps
	if res.Rates[0] < want*0.9 || res.Rates[0] > want*1.1 {
		t.Errorf("single-link rate %.1f, want ~%.0f", res.Rates[0], want)
	}
}

func TestGMPIsLossFree(t *testing.T) {
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, Duration: 60 * time.Second})
	for _, f := range res.Flows {
		if f.Dropped > 0 {
			t.Errorf("flow %d dropped %d packets under GMP's congestion avoidance", f.Spec.ID, f.Dropped)
		}
	}
}

func TestTable1Fig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res := run(t, Config{Scenario: Fig2Scenario(), Protocol: ProtocolGMP})
	f1, f2, f3, f4 := res.Rates[0], res.Rates[1], res.Rates[2], res.Rates[3]

	// Table 1 shape: f2 ~ f3 ~ f4 (clique-1 equalization), f1 well above
	// them (opportunistic use of clique 0 residual capacity; paper: 564 vs
	// ~200-220).
	if f1 < 1.3*f2 || f1 < 1.3*f3 || f1 < 1.3*f4 {
		t.Errorf("f1 (%.1f) should clearly exceed f2-f4 (%.1f, %.1f, %.1f)", f1, f2, f3, f4)
	}
	lo := math.Min(f2, math.Min(f3, f4))
	hi := math.Max(f2, math.Max(f3, f4))
	if lo < 0.6*hi {
		t.Errorf("clique-1 flows not equalized: %.1f..%.1f", lo, hi)
	}
}

func TestTable2Fig2WeightedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res := run(t, Config{Scenario: Fig2WeightedScenario(), Protocol: ProtocolGMP})
	// Weights (1,2,1,3): normalized rates of the clique-1 flows (f2, f3,
	// f4) should be roughly equal, so raw rates order f4 > f2 > f3.
	mu2 := res.Flows[1].NormRate
	mu3 := res.Flows[2].NormRate
	mu4 := res.Flows[3].NormRate
	lo := math.Min(mu2, math.Min(mu3, mu4))
	hi := math.Max(mu2, math.Max(mu3, mu4))
	if lo < 0.55*hi {
		t.Errorf("normalized rates not equalized: %.1f, %.1f, %.1f", mu2, mu3, mu4)
	}
	if !(res.Rates[3] > res.Rates[2]) {
		t.Errorf("weight-3 flow (%.1f) not above weight-1 flow (%.1f)", res.Rates[3], res.Rates[2])
	}
	if !(res.Rates[1] > res.Rates[2]) {
		t.Errorf("weight-2 flow (%.1f) not above weight-1 flow (%.1f)", res.Rates[1], res.Rates[2])
	}
}

func TestTable3Fig3Comparison(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	results := make(map[Protocol]*Result)
	for _, p := range []Protocol{Protocol80211, Protocol2PP, ProtocolGMP} {
		results[p] = run(t, Config{Scenario: Fig3Scenario(), Protocol: p})
	}

	// Fairness ordering (Table 3): GMP > 2PP > 802.11.
	if !(results[ProtocolGMP].Imm > results[Protocol2PP].Imm) {
		t.Errorf("I_mm: GMP %.3f not above 2PP %.3f", results[ProtocolGMP].Imm, results[Protocol2PP].Imm)
	}
	if !(results[Protocol2PP].Imm > results[Protocol80211].Imm) {
		t.Errorf("I_mm: 2PP %.3f not above 802.11 %.3f", results[Protocol2PP].Imm, results[Protocol80211].Imm)
	}
	if results[ProtocolGMP].Imm < 0.6 {
		t.Errorf("GMP I_mm = %.3f, want near-equal rates (paper: 0.919)", results[ProtocolGMP].Imm)
	}
	if results[ProtocolGMP].Ieq < 0.95 {
		t.Errorf("GMP I_eq = %.3f (paper: 0.999)", results[ProtocolGMP].Ieq)
	}
	// Under 802.11 the hidden-terminal flow <0,3> is the weakest.
	r := results[Protocol80211].Rates
	if !(r[0] < r[1] && r[0] < r[2]) {
		t.Errorf("802.11: <0,3> (%.1f) should be the starved flow (%.1f, %.1f)", r[0], r[1], r[2])
	}
	// Effective throughput: GMP and 2PP above plain 802.11 (Table 3).
	if !(results[ProtocolGMP].U > results[Protocol80211].U) {
		t.Errorf("U: GMP %.1f not above 802.11 %.1f", results[ProtocolGMP].U, results[Protocol80211].U)
	}
	// 2PP favors short flows: <2,3> above <0,3> by a wide margin.
	r2 := results[Protocol2PP].Rates
	if r2[2] < 2*r2[0] {
		t.Errorf("2PP short-flow bias missing: %.1f vs %.1f", r2[2], r2[0])
	}
}

func TestTable4Fig4Comparison(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	results := make(map[Protocol]*Result)
	for _, p := range []Protocol{Protocol80211, Protocol2PP, ProtocolGMP} {
		results[p] = run(t, Config{Scenario: Fig4Scenario(), Protocol: p})
	}
	// GMP is by far the fairest (Table 4: 0.888 vs 0.476 and 0.125).
	if !(results[ProtocolGMP].Imm > results[Protocol2PP].Imm) {
		t.Errorf("I_mm: GMP %.3f not above 2PP %.3f", results[ProtocolGMP].Imm, results[Protocol2PP].Imm)
	}
	if !(results[ProtocolGMP].Imm > results[Protocol80211].Imm) {
		t.Errorf("I_mm: GMP %.3f not above 802.11 %.3f", results[ProtocolGMP].Imm, results[Protocol80211].Imm)
	}
	if results[ProtocolGMP].Ieq < 0.9 {
		t.Errorf("GMP I_eq = %.3f (paper: 0.998)", results[ProtocolGMP].Ieq)
	}
	// 2PP inflates the side one-hop flows (f8 in particular) while the
	// two-hop flows sit at their small basic share (paper: 347 vs 43).
	r2 := results[Protocol2PP].Rates
	if r2[7] < 1.8*r2[4] {
		t.Errorf("2PP: f8 (%.1f) should dwarf the two-hop middle flows (%.1f)", r2[7], r2[4])
	}
}

func TestFig1QueueIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	shared := run(t, Config{Scenario: Fig1Scenario(), Protocol: ProtocolBackpressureShared,
		Duration: 120 * time.Second})
	perDest := run(t, Config{Scenario: Fig1Scenario(), Protocol: ProtocolBackpressure,
		Duration: 120 * time.Second})

	// §5.1: with one queue per node, f2 is dragged down to f1's
	// bottleneck rate; with per-destination queues it is isolated.
	if shared.Rates[1] > 1.5*shared.Rates[0] {
		t.Errorf("shared queue: f2 (%.1f) should be coupled to f1 (%.1f)", shared.Rates[1], shared.Rates[0])
	}
	if perDest.Rates[1] < 1.5*perDest.Rates[0] {
		t.Errorf("per-destination: f2 (%.1f) should escape f1's bottleneck (%.1f)", perDest.Rates[1], perDest.Rates[0])
	}
	if perDest.Rates[1] < 1.5*shared.Rates[1] {
		t.Errorf("isolation gain missing: %.1f vs %.1f", perDest.Rates[1], shared.Rates[1])
	}
}

func TestLossInjectionStillConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP,
		Duration: 200 * time.Second, LossProb: 0.02})
	if res.Imm < 0.4 {
		t.Errorf("I_mm = %.3f under 2%% frame loss", res.Imm)
	}
	for _, r := range res.Rates {
		if r <= 0 {
			t.Error("a flow starved under loss injection")
		}
	}
}

func TestNoRTSMode(t *testing.T) {
	sc, err := ChainScenario(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{Scenario: sc, Protocol: Protocol80211, Duration: 20 * time.Second, DisableRTS: true})
	// Without RTS/CTS the exchange is shorter: higher single-link rate.
	withRTS := run(t, Config{Scenario: sc, Protocol: Protocol80211, Duration: 20 * time.Second})
	if res.Rates[0] <= withRTS.Rates[0] {
		t.Errorf("no-RTS rate %.1f not above RTS rate %.1f", res.Rates[0], withRTS.Rates[0])
	}
}

func TestCBRSourcesOption(t *testing.T) {
	sc, err := ChainScenario(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{Scenario: sc, Protocol: Protocol80211, Duration: 20 * time.Second, CBRSources: true})
	if res.Rates[0] < 400 {
		t.Errorf("CBR single-link rate %.1f", res.Rates[0])
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, Duration: 40 * time.Second})
	if res.Scenario != "fig3" || res.Protocol != ProtocolGMP {
		t.Error("identification fields missing")
	}
	if len(res.Flows) != 3 || len(res.Rates) != 3 || len(res.Reference) != 3 {
		t.Error("per-flow slices wrong length")
	}
	if len(res.Trace) == 0 {
		t.Error("GMP trace empty")
	}
	if len(res.MAC) != 4 {
		t.Errorf("MAC stats for %d nodes, want 4", len(res.MAC))
	}
	wantHops := []int{3, 2, 1}
	for i, f := range res.Flows {
		if f.Hops != wantHops[i] {
			t.Errorf("flow %d hops = %d, want %d", i, f.Hops, wantHops[i])
		}
		if f.Delivered <= 0 {
			t.Errorf("flow %d delivered nothing", i)
		}
	}
	if res.Channel.Transmissions == 0 {
		t.Error("no transmissions recorded")
	}
}

func TestTwoPPTargetPopulated(t *testing.T) {
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: Protocol2PP, Duration: 30 * time.Second})
	if len(res.TwoPPTarget) != 3 {
		t.Fatalf("2PP target = %v", res.TwoPPTarget)
	}
	// The 1-hop flow's target is the largest.
	if !(res.TwoPPTarget[2] > res.TwoPPTarget[0]) {
		t.Error("2PP target not short-flow biased")
	}
}

func TestReferenceMatchesWaterFilling(t *testing.T) {
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, Duration: 20 * time.Second})
	// Fig3: one clique, crossings 3/2/1 -> equal split of C/6 each.
	for i := 1; i < 3; i++ {
		if math.Abs(res.Reference[i]-res.Reference[0]) > 1e-6 {
			t.Errorf("reference = %v, want equal rates", res.Reference)
		}
	}
}

func TestMeshGatewayScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sc, err := MeshGatewayScenario(3, 3, 4, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{Scenario: sc, Protocol: ProtocolGMP, Duration: 200 * time.Second})
	for i, r := range res.Rates {
		if r <= 0 {
			t.Errorf("gateway flow %d starved", i)
		}
	}
	if res.Ieq < 0.5 {
		t.Errorf("gateway flows wildly unequal: I_eq = %.3f", res.Ieq)
	}
}

func TestProtocolStrings(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtocolGMP:                "GMP",
		Protocol80211:              "802.11",
		Protocol2PP:                "2PP",
		ProtocolBackpressure:       "backpressure/per-dest",
		ProtocolBackpressureShared: "backpressure/shared",
	} {
		if p.String() != want {
			t.Errorf("%d = %q", int(p), p.String())
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]Protocol{
		"gmp":       ProtocolGMP,
		"gmp-dist":  ProtocolGMPDistributed,
		"gmpd":      ProtocolGMPDistributed,
		"802.11":    Protocol80211,
		"80211":     Protocol80211,
		"dcf":       Protocol80211,
		"2pp":       Protocol2PP,
		"bp":        ProtocolBackpressure,
		"bp-shared": ProtocolBackpressureShared,
	} {
		if p, err := ParseProtocol(name); err != nil || p != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, p, err, want)
		}
	}
	for p := ProtocolGMP; p <= ProtocolGMPDistributed; p++ {
		if got, err := ParseProtocol(p.Name()); err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.Name(), got, err, p)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol accepted")
	}
}

func TestFlowChurnReallocation(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	// Baseline: all three fig3 flows active, measured over [250s, 400s].
	base := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP,
		Warmup: 250 * time.Second})

	// Churn: the one-hop flow <2,3> leaves at t=200s; the survivors
	// should absorb the freed capacity by the measurement window.
	sc := Fig3Scenario()
	sc.Flows[2].Stop = 200 * time.Second
	churn := run(t, Config{Scenario: sc, Protocol: ProtocolGMP,
		Warmup: 250 * time.Second})

	if churn.Rates[0] < 1.08*base.Rates[0] {
		t.Errorf("<0,3> did not absorb freed capacity: %.1f vs baseline %.1f",
			churn.Rates[0], base.Rates[0])
	}
	if churn.Rates[1] < 1.08*base.Rates[1] {
		t.Errorf("<1,3> did not absorb freed capacity: %.1f vs baseline %.1f",
			churn.Rates[1], base.Rates[1])
	}
	if churn.Rates[2] > 1 {
		t.Errorf("stopped flow still delivering %.1f pkt/s in the window", churn.Rates[2])
	}
	// The two survivors should stay near-equal.
	lo, hi := churn.Rates[0], churn.Rates[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0.6*hi {
		t.Errorf("survivors diverged: %.1f vs %.1f", lo, hi)
	}
}

func TestFlowLateJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	// The three-hop flow <0,3> joins at t=150s; by the measurement
	// window GMP must have pulled it up to a fair share.
	sc := Fig3Scenario()
	sc.Flows[0].Start = 150 * time.Second
	res := run(t, Config{Scenario: sc, Protocol: ProtocolGMP,
		Warmup: 300 * time.Second})
	if res.Rates[0] < 0.4*res.Rates[2] {
		t.Errorf("late joiner stuck at %.1f vs incumbent %.1f", res.Rates[0], res.Rates[2])
	}
}

func TestEventTraceRecorded(t *testing.T) {
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP,
		Duration: 20 * time.Second, EventTrace: 500})
	if len(res.Events) != 500 {
		t.Fatalf("events = %d, want full ring of 500", len(res.Events))
	}
	// Events must be time-ordered and include transmissions.
	sawTx := false
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].At < res.Events[i-1].At {
			t.Fatal("trace not time-ordered")
		}
	}
	for _, e := range res.Events {
		if e.Detail == "" {
			t.Fatal("event without detail")
		}
		sawTx = sawTx || e.Kind.String() == "tx"
	}
	if !sawTx {
		t.Error("no transmissions in trace")
	}
}

// TestDropEventsNameTheDroppingNode pins where a drop event happens: at
// the node whose queue lost the packet, with no peer. Plain 802.11 never
// requeues, so each MAC retry-limit drop is one retry-limit drop event at
// the same node, and the two counts must agree node by node.
func TestDropEventsNameTheDroppingNode(t *testing.T) {
	const ring = 1 << 18
	res := run(t, Config{Scenario: Fig4Scenario(), Protocol: Protocol80211,
		Duration: 3 * time.Second, Warmup: time.Second, EventTrace: ring})
	if len(res.Events) >= ring {
		t.Fatalf("event ring wrapped at %d events", len(res.Events))
	}
	events := make([]int64, len(res.MAC))
	withPeer := 0
	for _, e := range res.Events {
		if e.Kind.String() != "drop" {
			continue
		}
		if e.Peer != -1 {
			withPeer++
		}
		if strings.HasSuffix(e.Detail, " "+DropRetry.String()) {
			events[e.Node]++
		}
	}
	if withPeer > 0 {
		t.Errorf("%d drop events name a peer, want -1", withPeer)
	}
	var total int64
	for n, st := range res.MAC {
		if events[n] != st.Drops {
			t.Errorf("node %d: %d retry-limit drop events, MAC counted %d drops", n, events[n], st.Drops)
		}
		total += st.Drops
	}
	if total == 0 {
		t.Fatal("no MAC drops: the run no longer exercises the retry limit")
	}
}

// TestConservation checks end-to-end packet conservation: under GMP's
// loss-free congestion avoidance, everything injected is either
// delivered or still buffered in the network when the simulation stops.
func TestConservation(t *testing.T) {
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP,
		Duration: 60 * time.Second})
	var delivered, dropped int64
	for _, f := range res.Flows {
		delivered += f.Delivered
		dropped += f.Dropped
	}
	var sent int64
	for _, m := range res.MAC {
		sent += m.DataAcked
	}
	if dropped != 0 {
		t.Errorf("dropped %d packets under CA", dropped)
	}
	// Every end-to-end delivery requires at least one MAC-acked data
	// transmission, and buffering is bounded by nodes x queue slots.
	if delivered > sent {
		t.Errorf("delivered %d exceeds MAC deliveries %d", delivered, sent)
	}
	maxBuffered := int64(4 * 11) // nodes x (slots + 1 in-flight)
	if sent < delivered {
		t.Errorf("accounting underflow")
	}
	_ = maxBuffered
}

func TestScenarioJSONRoundTripThroughAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveScenario(&buf, Fig2Scenario()); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{Scenario: sc, Protocol: Protocol80211, Duration: 10 * time.Second})
	if len(res.Flows) != 4 {
		t.Fatalf("loaded scenario has %d flows", len(res.Flows))
	}
}

func TestInBandControlOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP,
		Duration: 200 * time.Second, InBandControl: true})
	if res.Channel.ControlFrames == 0 {
		t.Fatal("in-band control produced no broadcasts")
	}
	if res.ControlOverhead <= 0 || res.ControlOverhead > 0.05 {
		t.Errorf("control overhead = %.4f, want small positive fraction", res.ControlOverhead)
	}
	// The protocol must still converge with control traffic on the air.
	if res.Imm < 0.5 {
		t.Errorf("GMP I_mm = %.3f with in-band control", res.Imm)
	}
	// Without the option, no control frames appear.
	plain := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP,
		Duration: 40 * time.Second})
	if plain.Channel.ControlFrames != 0 {
		t.Error("control frames recorded without InBandControl")
	}
}

// TestScaleStress runs a larger random network end to end: 25 nodes,
// 10 flows, all three protocols. It guards against panics, stuck
// simulations, and gross accounting errors at scale.
func TestScaleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sc, err := RandomScenario(25, 10, 1100, 1100, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{Protocol80211, Protocol2PP, ProtocolGMP} {
		res, err := Run(Config{Scenario: sc, Protocol: p,
			Duration: 120 * time.Second, Seed: 13})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Channel.Transmissions == 0 {
			t.Fatalf("%s: dead network", p)
		}
		delivered := int64(0)
		for _, f := range res.Flows {
			delivered += f.Delivered
		}
		if delivered == 0 {
			t.Fatalf("%s: nothing delivered", p)
		}
		if p == ProtocolGMP {
			for _, f := range res.Flows {
				if f.Dropped > 0 {
					t.Errorf("GMP dropped %d packets of flow %d", f.Dropped, f.Spec.ID)
				}
			}
		}
	}
}

func TestDistributedMatchesCentralOnFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	central := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP})
	dist := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMPDistributed})
	if dist.Imm < 0.55 {
		t.Errorf("distributed I_mm = %.3f", dist.Imm)
	}
	// The two runtimes implement the same conditions; their fairness
	// should land in the same band.
	if dist.Imm < central.Imm-0.3 {
		t.Errorf("distributed (%.3f) far below central (%.3f)", dist.Imm, central.Imm)
	}
	// Out-of-band control: no broadcast frames on the channel.
	if dist.Channel.ControlFrames != 0 {
		t.Errorf("OOB distributed run put %d control frames on the air", dist.Channel.ControlFrames)
	}
}

func TestDistributedFig4Fairness(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res := run(t, Config{Scenario: Fig4Scenario(), Protocol: ProtocolGMPDistributed})
	if res.Imm < 0.5 || res.Ieq < 0.93 {
		t.Errorf("distributed fig4: I_mm=%.3f I_eq=%.3f", res.Imm, res.Ieq)
	}
	for _, f := range res.Flows {
		if f.Dropped > 0 {
			t.Errorf("flow %d dropped %d packets", f.Spec.ID, f.Dropped)
		}
	}
}

func TestDistributedInBandSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	// With control on the real channel, broadcasts are lost to
	// hidden-terminal collisions in congested regions and convergence
	// degrades (the bootstrap problem documented in EXPERIMENTS.md) —
	// but the protocol must stay live and loss-free for data.
	res := run(t, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMPDistributed,
		InBandControl: true})
	if res.Channel.ControlFrames == 0 {
		t.Fatal("in-band distributed run sent no control frames")
	}
	for i, r := range res.Rates {
		if r <= 0 {
			t.Errorf("flow %d starved completely", i)
		}
	}
	for _, f := range res.Flows {
		if f.Dropped > 0 {
			t.Errorf("flow %d dropped %d data packets", f.Spec.ID, f.Dropped)
		}
	}
}

func TestTopologyZooUnderGMP(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cross, err := CrossScenario(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := ParallelChainsScenario(2, 4, 200, 240)
	if err != nil {
		t.Fatal(err)
	}
	star, err := StarScenario(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sc     Scenario
		minImm float64
	}{
		// Two identical crossing flows must split the center evenly.
		{"cross", cross, 0.55},
		// Identical parallel chains must equalize.
		{"chains", chains, 0.55},
		// Star spokes share one clique: near-perfect equality.
		{"star", star, 0.6},
	} {
		res, err := Run(Config{Scenario: tc.sc, Protocol: ProtocolGMP,
			Duration: 300 * time.Second, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Imm < tc.minImm {
			t.Errorf("%s: I_mm = %.3f, want >= %.2f (rates %v)", tc.name, res.Imm, tc.minImm, res.Rates)
		}
		for _, f := range res.Flows {
			if f.Dropped > 0 {
				t.Errorf("%s: flow %d dropped %d", tc.name, f.Spec.ID, f.Dropped)
			}
		}
	}
}

func TestRadioOverride(t *testing.T) {
	sc, err := ChainScenario(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Double the data rate: single-link throughput must rise.
	par := radioDefaultParams()
	par.DataRateMbps = 22
	fast := run(t, Config{Scenario: sc, Protocol: Protocol80211,
		Duration: 20 * time.Second, Radio: &par})
	slow := run(t, Config{Scenario: sc, Protocol: Protocol80211,
		Duration: 20 * time.Second})
	if fast.Rates[0] <= slow.Rates[0] {
		t.Errorf("22 Mbps (%.1f) not faster than 11 Mbps (%.1f)", fast.Rates[0], slow.Rates[0])
	}
}

func TestSharedQueueSlotsApplies(t *testing.T) {
	// A 1-slot shared FIFO at the relay throttles the 2-hop flow hard.
	sc, err := ChainScenario(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	tiny := run(t, Config{Scenario: sc, Protocol: Protocol80211,
		Duration: 20 * time.Second, SharedQueueSlots: 1})
	big := run(t, Config{Scenario: sc, Protocol: Protocol80211,
		Duration: 20 * time.Second, SharedQueueSlots: 300})
	if tiny.Rates[0] >= big.Rates[0] {
		t.Errorf("1-slot relay (%.1f) not worse than 300-slot (%.1f)", tiny.Rates[0], big.Rates[0])
	}
}

func TestWiderCSRange(t *testing.T) {
	// With carrier sense covering the whole chain, the fig3 hidden
	// terminal disappears and <0,3> does far better under plain 802.11.
	sc := Fig3Scenario()
	sc.Radio.CSRange = 700
	wide := run(t, Config{Scenario: sc, Protocol: Protocol80211, Duration: 60 * time.Second})
	narrow := run(t, Config{Scenario: Fig3Scenario(), Protocol: Protocol80211, Duration: 60 * time.Second})
	if wide.Rates[0] < 3*narrow.Rates[0] {
		t.Errorf("wide CS <0,3> = %.1f, narrow = %.1f: hidden terminal not mitigated",
			wide.Rates[0], narrow.Rates[0])
	}
}

func TestFairAggregationImprovesMeshFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sc, err := MeshGatewayScenario(4, 4, 6, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Config{Scenario: sc, Protocol: ProtocolBackpressure,
		Duration: 300 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Run(Config{Scenario: sc, Protocol: ProtocolBackpressure,
		Duration: 300 * time.Second, Seed: 42, FairAggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without rate adaptation, FIFO admission lets sources near the
	// gateway crowd out relayed traffic completely (the minimum rate is
	// ~0); per-origin quotas and round robin must lift both the floor
	// and the equality index substantially.
	minRate := func(r *Result) float64 {
		m := r.Rates[0]
		for _, v := range r.Rates {
			if v < m {
				m = v
			}
		}
		return m
	}
	if got := minRate(fair); got < 5 {
		t.Errorf("fair aggregation minimum rate %.2f pkt/s, want > 5 (plain: %.2f)",
			got, minRate(plain))
	}
	if fair.Ieq < plain.Ieq+0.15 {
		t.Errorf("fair aggregation I_eq %.3f vs plain %.3f: no substantial gain",
			fair.Ieq, plain.Ieq)
	}
	for _, f := range fair.Flows {
		if f.Dropped > 0 {
			t.Errorf("fair aggregation dropped packets (flow %d: %d)", f.Spec.ID, f.Dropped)
		}
	}
}

package gmp

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"gmp/internal/baseline"
	"gmp/internal/clique"
	"gmp/internal/maxminref"
	"gmp/internal/packet"
	"gmp/internal/routing"
)

// meshOverload returns the mesh-ISP overload workload behind the
// admission acceptance test: a 3x3 mesh with 3 static senders towards
// the gateway (node 0), plus a burst of gateway-bound churn arrivals in
// the first 12 s. Flow sizes are pinned far above what a 60 s session
// can drain, so every admitted flow stays active to the end and the
// measurement window [30 s, 60 s] sees a stable flow set.
func meshOverload(t *testing.T, adm *AdmissionParams) Config {
	t.Helper()
	sc, err := MeshGatewayScenario(3, 3, 3, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scenario: sc,
		Protocol: ProtocolGMP,
		Duration: 60 * time.Second,
		Warmup:   30 * time.Second,
		Churn: &ChurnConfig{
			Process:     ChurnPoisson,
			Rate:        1.5,
			Stop:        12 * time.Second,
			Matrix:      ChurnGateway,
			MinSizePkts: 400000,
			MaxSizePkts: 400000,
			Admission:   adm,
		},
	}
}

// TestOverloadAdmissionDemo is the acceptance criterion: under a
// gateway-bound overload, admission control must refuse (or shed) the
// excess arrivals while the accepted flows' rates track the centralized
// maxmin reference over the admitted set; the same workload with
// admission off must admit everything and degrade every flow below
// what the protected run sustains.
func TestOverloadAdmissionDemo(t *testing.T) {
	on, err := Run(meshOverload(t, &AdmissionParams{MinShare: 40}))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(meshOverload(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if on.Churn == nil || off.Churn == nil {
		t.Fatal("churn enabled but Result.Churn is nil")
	}

	// The overload must actually overload: more arrivals than the
	// gateway cliques can carry, so the controller refuses or sheds some.
	if on.Churn.Arrivals < 5 {
		t.Fatalf("only %d arrivals; workload is not an overload", on.Churn.Arrivals)
	}
	if on.Churn.Rejected+on.Churn.Shed == 0 {
		t.Fatalf("admission refused nothing under overload: %+v", on.Churn)
	}
	if off.Churn.Rejected != 0 || off.Churn.Shed != 0 {
		t.Fatalf("admission-off run refused flows: %+v", off.Churn)
	}
	if off.Churn.Admitted != off.Churn.Arrivals {
		t.Fatalf("admission-off run admitted %d of %d arrivals", off.Churn.Admitted, off.Churn.Arrivals)
	}

	// Accepted flows (static + churn flows active at the end; exactly
	// the set Reference covers) must track the maxmin reference: the
	// weakest of them keeps a usable share of its reference allocation
	// instead of starving.
	minOnRate, minOnRef := -1.0, 0.0
	for i, ref := range on.Reference {
		if ref <= 0 {
			continue
		}
		if minOnRate < 0 || on.Rates[i] < minOnRate {
			minOnRate, minOnRef = on.Rates[i], ref
		}
	}
	if minOnRate < 0 {
		t.Fatal("no admitted flows in the protected run")
	}
	t.Logf("admission on:  admitted=%d rejected=%d shed=%d min(rate)=%.1f (ref %.1f)",
		on.Churn.Admitted, on.Churn.Rejected, on.Churn.Shed, minOnRate, minOnRef)
	if minOnRate < 0.25*minOnRef {
		t.Errorf("weakest accepted flow at %.1f pkt/s, below 25%% of its %.1f pkt/s reference share",
			minOnRate, minOnRef)
	}

	// Admission off: everything is admitted, so the same overload is
	// spread across every flow and the weakest flow must end up worse
	// than the weakest protected flow.
	minOffRate := -1.0
	for i, ref := range off.Reference {
		if ref <= 0 {
			continue
		}
		if minOffRate < 0 || off.Rates[i] < minOffRate {
			minOffRate = off.Rates[i]
		}
	}
	t.Logf("admission off: admitted=%d min(rate)=%.1f", off.Churn.Admitted, minOffRate)
	if minOffRate >= minOnRate {
		t.Errorf("unprotected min rate %.1f >= protected min rate %.1f: admission bought nothing",
			minOffRate, minOnRate)
	}

	// Refusals carry a typed reason, and every decision is recorded.
	for _, d := range on.Churn.Decisions {
		if d.Admitted != (d.Reason == "") {
			t.Errorf("decision %+v: admitted/reason disagree", d)
		}
	}
	if got := len(on.Churn.TimeToFairShare); got != len(on.Churn.Decisions) {
		t.Errorf("TimeToFairShare has %d entries for %d decisions", got, len(on.Churn.Decisions))
	}
}

// TestChurnDepartureTeardown is the teardown regression: flows that
// arrive and naturally depart mid-run must leave no rate-limit state
// behind (StaleLimits == 0), and their sources must stop injecting.
func TestChurnDepartureTeardown(t *testing.T) {
	cfg := shortCfg(Fig3Scenario())
	cfg.Duration = 60 * time.Second
	cfg.Warmup = 30 * time.Second
	cfg.Churn = &ChurnConfig{
		Process: ChurnPoisson,
		Rate:    0.4,
		Stop:    20 * time.Second,
		Matrix:  ChurnRandom,
		// Small sizes: lifetimes of 5-25 s, so churn flows depart well
		// before the session ends.
		MinSizePkts: 4000,
		MaxSizePkts: 20000,
		Admission:   &AdmissionParams{MinShare: 30},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn == nil || res.Churn.Arrivals == 0 {
		t.Fatalf("expected churn arrivals, got %+v", res.Churn)
	}
	if res.Churn.StaleLimits != 0 {
		t.Errorf("StaleLimits = %d after departures, want 0 (teardown leaked rate limits)", res.Churn.StaleLimits)
	}
	if res.Churn.Admitted+res.Churn.Rejected != res.Churn.Arrivals {
		t.Errorf("admitted %d + rejected %d != arrivals %d",
			res.Churn.Admitted, res.Churn.Rejected, res.Churn.Arrivals)
	}
	// Departed flows (admitted, no reference share at the end) must not
	// hold a rate limit in their FlowResult either.
	staticN := len(cfg.Scenario.Flows)
	for i := staticN; i < len(res.Flows); i++ {
		if res.Reference[i] == 0 && res.Flows[i].Delivered > 0 && res.Flows[i].Limit < 1e18 {
			t.Errorf("departed churn flow %d still limited to %.1f pkt/s", i, res.Flows[i].Limit)
		}
	}
}

// TestChurnFaultsMobilityComposition composes all three dynamic layers
// — flow churn with admission, a crash/revival fault schedule, and
// random-waypoint motion — and requires the run to complete with
// consistent accounting and to reproduce byte for byte. CI runs this
// under -race.
func TestChurnFaultsMobilityComposition(t *testing.T) {
	sc, err := GridScenario(3, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Scenario: sc.WithFlows([][3]int{{0, 8, 1}, {6, 2, 1}}),
		Protocol: ProtocolGMP,
		Duration: 48 * time.Second,
		Warmup:   24 * time.Second,
		Churn: &ChurnConfig{
			Process:     ChurnPoisson,
			Rate:        0.5,
			Matrix:      ChurnRandom,
			MinSizePkts: 8000,
			MaxSizePkts: 40000,
			Admission:   &AdmissionParams{MinShare: 25},
		},
		Faults: []FaultEvent{
			{At: 16 * time.Second, Kind: FaultNodeDown, Node: 4},
			{At: 28 * time.Second, Kind: FaultNodeUp, Node: 4},
		},
		Mobility: &MobilityConfig{
			Model:    MobilityRandomWalk,
			Epoch:    2 * time.Second,
			MinSpeed: 1, MaxSpeed: 3,
			MinX: -100, MaxX: 500, MinY: -100, MaxY: 500,
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, "churn+faults+mobility", a, b)
	if a.Churn == nil {
		t.Fatal("Result.Churn is nil")
	}
	if a.Churn.Admitted+a.Churn.Rejected != a.Churn.Arrivals {
		t.Errorf("admitted %d + rejected %d != arrivals %d",
			a.Churn.Admitted, a.Churn.Rejected, a.Churn.Arrivals)
	}
	if a.MobilityEpochs == 0 {
		t.Error("mobility never fired")
	}
	if len(a.FaultEvents) != 2 {
		t.Errorf("FaultEvents = %+v, want the 2 scheduled events", a.FaultEvents)
	}
}

// TestChurnRunsAreDeterministic extends the serial-vs-RunMany
// regression to churn runs: the churn engine and admission hooks must
// not introduce any cross-run shared state.
func TestChurnRunsAreDeterministic(t *testing.T) {
	cfg := shortCfg(Fig3Scenario())
	cfg.Churn = &ChurnConfig{
		Process:     ChurnPoisson,
		Rate:        0.5,
		Matrix:      ChurnRandom,
		MinSizePkts: 4000,
		MaxSizePkts: 16000,
		Admission:   &AdmissionParams{MinShare: 30},
	}
	cfgs := SeedSweep(cfg, 6)
	serial := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	parallel, err := RunMany(context.Background(), cfgs, RunManyOptions{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		assertIdenticalResults(t, fmt.Sprintf("seed %d", cfgs[i].Seed), serial[i], parallel[i])
	}
}

// TestChurnConfigOverridesScenario pins the precedence rule: a
// scenario-carried churn block applies only when Config.Churn is nil.
func TestChurnConfigOverridesScenario(t *testing.T) {
	scChurn := &ChurnConfig{Process: ChurnPoisson, Rate: 0.3, Matrix: ChurnRandom}
	sc := Fig3Scenario().WithChurn(scChurn)
	cfg := shortCfg(sc)
	cfg.Churn = &ChurnConfig{Process: ChurnPoisson, Rate: 0.0001, Matrix: ChurnRandom}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At λ = 0.0001/s over 24 s the override workload almost surely
	// schedules nothing; the scenario's λ = 0.3/s would.
	if res.Churn == nil {
		t.Fatal("churn override ignored")
	}
	if res.Churn.Arrivals > 1 {
		t.Errorf("override λ=0.0001 produced %d arrivals; scenario churn leaked through", res.Churn.Arrivals)
	}

	cfg.Churn = nil
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn == nil || res.Churn.Arrivals == 0 {
		t.Errorf("scenario churn block did not apply: %+v", res.Churn)
	}
}

// TestChurnPathLocalReference pins the path-local clique set. Under
// 802.11 and 2PP nothing but the reference and 2PP's target reads
// cliques, so a session enumerates only the cliques around its flows'
// t=0 paths, churn flows' included. On the 500-node city with Poisson
// churn, Result.Reference and TwoPPTarget must equal what the whole
// decomposition gives, with the reference's flows chosen here from the
// admission decisions: the static flows and the admitted churn flows
// that outlive the run.
func TestChurnPathLocalReference(t *testing.T) {
	sc, err := CityScenario(500, 4, 10, 220, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sc.Topology()
	if err != nil {
		t.Fatal(err)
	}
	routes := routing.BuildLazy(topo)
	full := clique.Build(topo)
	for _, proto := range []Protocol{Protocol80211, Protocol2PP} {
		cfg := Config{
			Scenario: sc,
			Protocol: proto,
			Duration: 20 * time.Second,
			Warmup:   10 * time.Second,
			Seed:     3,
			Churn:    &ChurnConfig{Process: ChurnPoisson, Rate: 0.5, Matrix: ChurnGateway, MinSizePkts: 4000, MaxSizePkts: 40000},
		}
		s, err := newSession(cfg.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if got, whole := len(s.cliques.All()), len(full.All()); got >= whole || s.liveCliques != nil {
			t.Fatalf("%v: session holds %d of the %d cliques (live set %v), want the path-local subset only", proto, got, whole, s.liveCliques != nil)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		admitted := make(map[packet.FlowID]bool)
		for _, d := range res.Churn.Decisions {
			admitted[d.Flow] = d.Admitted
		}
		var refFlows []maxminref.FlowSpec
		var refIdx []int
		for i, f := range res.Flows {
			if i < len(sc.Flows) || admitted[f.Spec.ID] && f.Spec.Stop > cfg.Duration {
				refFlows = append(refFlows, refSpec(f.Spec))
				refIdx = append(refIdx, i)
			}
		}
		t.Logf("%v: %d of %d flows in the reference, %d of %d cliques", proto, len(refIdx), len(res.Flows), len(s.cliques.All()), len(full.All()))
		if len(refIdx) == len(sc.Flows) {
			t.Fatalf("%v: no churn flow outlives the run; the reference covers static flows only", proto)
		}
		ref, err := referenceAllocation(refFlows, routes, full, s.capacity)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(res.Flows))
		for j, v := range ref {
			want[refIdx[j]] = v
		}
		if !slices.Equal(res.Reference, want) {
			t.Errorf("%v: Reference = %v, want %v from the whole decomposition", proto, res.Reference, want)
		}
		if proto == Protocol2PP {
			target, err := baseline.TwoPPAllocation(refFlows[:len(sc.Flows)], routes, full, baseline.UniformCliqueCapacity(s.capacity))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.TwoPPTarget, target) {
				t.Errorf("2PP target = %v, want %v from the whole decomposition", res.TwoPPTarget, target)
			}
		}
	}
}

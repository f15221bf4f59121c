package gmp

// End-to-end mobility acceptance: a relay walking out of range mid-run
// must trigger route repair and keep the flow alive (mirroring the
// crashed-relay tests in faults_e2e_test.go), motion must compose with
// fault injection, and mobility runs must preserve the serial-vs-parallel
// reproducibility contract.

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"gmp/internal/routing"
)

// walkOut returns a mobility config in which exactly the given node
// wanders (everyone else is pinned): a random-waypoint walker bound to a
// distant patch of field, fast enough to leave radio range within a few
// epochs, parked there by a pause longer than any run. Motion runs only
// in (start, stop].
func walkOut(numNodes int, node NodeID, start, stop time.Duration) *MobilityConfig {
	cfg := &MobilityConfig{
		Model:    MobilityRandomWaypoint,
		Epoch:    time.Second,
		Start:    start,
		Stop:     stop,
		MinSpeed: 100, MaxSpeed: 200,
		Pause: time.Hour,
		MinX:  2000, MaxX: 2400, MinY: 0, MaxY: 400,
	}
	for i := 0; i < numNodes; i++ {
		if NodeID(i) != node {
			cfg.Pinned = append(cfg.Pinned, NodeID(i))
		}
	}
	return cfg
}

// TestMobilityRelayWalkoutRecovery is the acceptance scenario: on the
// 2x3 grid with flow 0→2 (initial route 0-1-2), relay 1 walks out of
// range between t=10s and t=30s. Motion-driven route repair must shift
// the flow onto 0-3-4-5-2 and keep delivery alive through the entirely
// post-walkout measurement window, and the run must report
// re-convergence after the last topology change.
func TestMobilityRelayWalkoutRecovery(t *testing.T) {
	sc := gridWithFlow(t)
	cfg := Config{
		Scenario: sc,
		Protocol: ProtocolGMP,
		Duration: 120 * time.Second,
		Warmup:   60 * time.Second,
		Mobility: walkOut(len(sc.Positions), 1, 10*time.Second, 30*time.Second),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MobilityEpochs == 0 {
		t.Fatal("no mobility epochs fired")
	}
	if res.Flows[0].Rate <= 1 {
		t.Fatalf("flow rate %.2f pkt/s after the relay left: route repair did not keep the flow alive", res.Flows[0].Rate)
	}
	// Hops reports the initial (pre-motion) 2-hop route by design.
	if res.Flows[0].Hops != 2 {
		t.Errorf("initial hop count %d, want 2", res.Flows[0].Hops)
	}
	if !res.Recovered {
		t.Fatal("run did not report recovery after the walkout")
	}
	if res.RecoveryTime <= 0 || res.RecoveryTime > cfg.Duration {
		t.Errorf("RecoveryTime = %v outside (0, %v]", res.RecoveryTime, cfg.Duration)
	}
}

// TestFaultsAndMobilityCompose crashes one relay and walks another out:
// on the 3x3 grid (spacing 200 m, orthogonal links only) with flow 0→2,
// node 1 crashes at t=12s (repair: 0-3-4-5-2), then node 4 wanders off
// between t=16s and t=40s. The motion-driven rebuild must keep excluding
// the crashed node — if the compositions were independent, the post-
// motion table would route straight back through dead node 1 and the
// flow would starve.
func TestFaultsAndMobilityCompose(t *testing.T) {
	sc, err := GridScenario(3, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.WithFlows([][3]int{{0, 2, 1}})
	cfg := Config{
		Scenario: sc,
		Protocol: ProtocolGMP,
		Duration: 120 * time.Second,
		Warmup:   60 * time.Second,
		Faults:   []FaultEvent{{At: 12 * time.Second, Kind: FaultNodeDown, Node: 1}},
		Mobility: walkOut(len(sc.Positions), 4, 16*time.Second, 40*time.Second),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MobilityEpochs == 0 {
		t.Fatal("no mobility epochs fired")
	}
	if len(res.FaultEvents) != 1 {
		t.Fatalf("FaultEvents = %+v, want the one scheduled crash", res.FaultEvents)
	}
	// The only remaining path is 0-3-6-7-8-5-2 along the grid's rim.
	if res.Flows[0].Rate <= 1 {
		t.Fatalf("flow rate %.2f pkt/s: repair around crash+walkout failed", res.Flows[0].Rate)
	}
}

// TestMobilityRunsAreDeterministic extends the serial-vs-parallel
// regression to moving topologies: random-waypoint runs across a seed
// sweep must produce byte-identical Results between serial Run and
// RunMany with concurrent workers.
func TestMobilityRunsAreDeterministic(t *testing.T) {
	chain, err := ChainScenario(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(chain)
	cfg.Mobility = &MobilityConfig{
		Model:    MobilityRandomWaypoint,
		Epoch:    2 * time.Second,
		MinSpeed: 1, MaxSpeed: 10,
		MinX: 0, MaxX: 800, MinY: -200, MaxY: 200,
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
		if serial[i].MobilityEpochs == 0 {
			t.Errorf("seed %d: no mobility epochs fired", cfgs[i].Seed)
		}
	}
}

// TestConfigMobilityOverridesScenario pins the precedence rule: a
// scenario-carried mobility model applies only when Config.Mobility is
// nil.
func TestConfigMobilityOverridesScenario(t *testing.T) {
	chain, err := ChainScenario(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	scenarioMob := &MobilityConfig{
		Model: MobilityRandomWalk, Epoch: 2 * time.Second, MaxSpeed: 5,
	}
	cfg := shortCfg(chain.WithMobility(scenarioMob))
	cfg.Mobility = &MobilityConfig{
		Model: MobilityRandomWalk, Epoch: 6 * time.Second, MaxSpeed: 5,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 24 s at one epoch per 6 s: the override's cadence, not the
	// scenario's 12 epochs.
	if res.MobilityEpochs != 4 {
		t.Errorf("MobilityEpochs = %d, want 4 (config override at 6s epochs)", res.MobilityEpochs)
	}

	cfg.Mobility = nil
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MobilityEpochs != 12 {
		t.Errorf("MobilityEpochs = %d, want 12 (scenario model at 2s epochs)", res.MobilityEpochs)
	}
}

// TestInvalidMobilityConfigRejected checks Config validation covers the
// mobility block.
func TestInvalidMobilityConfigRejected(t *testing.T) {
	cfg := shortCfg(Fig3Scenario())
	cfg.Mobility = &MobilityConfig{Model: MobilityRandomWalk, Epoch: 0, MaxSpeed: 5}
	if _, err := Run(cfg); err == nil {
		t.Error("zero-epoch mobility accepted")
	}
	cfg.Mobility = &MobilityConfig{Model: MobilityRandomWalk, Epoch: time.Second, MaxSpeed: 5, Pinned: []NodeID{99}}
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range pinned node accepted")
	}
}

// TestRerouteKeepsT0Table runs a random walk with a crash and a recovery,
// where every repair after the first builds the live table on its
// predecessor's arrays. The t=0 table, which collect reads, must keep
// every flow's route, and the last live table must read like a fresh one
// over the final topology and down set.
func TestRerouteKeepsT0Table(t *testing.T) {
	sc, err := GridScenario(5, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.WithFlows([][3]int{{0, 24, 1}, {4, 20, 1}, {12, 2, 1}})
	cfg := Config{
		Scenario: sc,
		Protocol: ProtocolGMP,
		Duration: 60 * time.Second,
		Seed:     3,
		Faults: []FaultEvent{
			{At: 10 * time.Second, Kind: FaultNodeDown, Node: 6},
			{At: 30 * time.Second, Kind: FaultNodeUp, Node: 6},
		},
		Mobility: &MobilityConfig{Model: MobilityRandomWalk, Epoch: time.Second, MinSpeed: 5, MaxSpeed: 20},
	}.WithDefaults()
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := func(tab *routing.Table) []string {
		var out []string
		for _, f := range sc.Flows {
			p, err := tab.Path(f.Src, f.Dst)
			out = append(out, fmt.Sprint(p, err))
		}
		return out
	}
	t0 := paths(s.routes)
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	s.sched.Run(cfg.Duration)
	if s.mobEngine.Epochs() == 0 || s.topo.Version() < 2 {
		t.Fatalf("%d epochs changed the adjacency %d times, want repairs that reuse a table", s.mobEngine.Epochs(), s.topo.Version())
	}
	if got := paths(s.routes); !slices.Equal(got, t0) {
		t.Errorf("t=0 routes changed over the run:\n got %v\nwant %v", got, t0)
	}
	if got, want := paths(s.liveRoutes), paths(routing.BuildLazyExcluding(s.topo, s.fengine.DownSet())); !slices.Equal(got, want) {
		t.Errorf("live routes %v, a fresh table reads %v", got, want)
	}
}

package gmp

// The determinism gate pins the simulator's observable behavior across
// performance work: for a fixed Config the full Result — every flow
// rate, fairness index, trace round, channel counter, and fault-recovery
// field — must stay byte-identical to the committed golden files. Any
// optimization of the hot path (adjacency precomputation, event pooling,
// airtime memoization, ...) must not change a single simulated outcome;
// if it does, this test fails with a diff.
//
// Regenerate the goldens only for intentional behavior changes:
//
//	go test -run TestDeterminismGate -update-golden .
//	go test -run TestTelemetryGate -update-golden .   # telemetry goldens

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"gmp/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite determinism-gate golden files")

// gateCases is the pinned workload set: the paper scenarios behind
// Tables 1-4 (Fig2/Fig3/Fig4) under every compared protocol, plus one
// fault-schedule run, two mobility runs (random-waypoint chain,
// group-mobility grid), a random-walk grid under churn, plain 802.11 on
// a random-walk grid with a node crash, three churn runs (GMP with
// admission, a diurnal mesh, 2PP's per-flow queues without admission),
// and the §6 per-node runtime (gmp-dist) on the out-of-band bus, with
// in-band broadcasts, under churn without admission, and on a
// random-walk grid, where every changing epoch hands the agents a new
// decomposition, and GMP with fair aggregation on the gateway mesh,
// with a crash at a relay whose queue holds two origins. Durations are
// shorter than the paper sessions so the gate stays fast; determinism
// does not depend on session length.
func gateCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	grid, err := GridScenario(2, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	grid = grid.WithFlows([][3]int{{0, 2, 1}, {3, 5, 1}})
	chain, err := ChainScenario(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	mobGrid, err := GridScenario(3, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	mobGrid = mobGrid.WithFlows([][3]int{{0, 8, 1}, {6, 2, 1}})
	mesh, err := MeshGatewayScenario(3, 3, 3, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	short := func(cfg Config) Config {
		cfg.Duration = 60 * time.Second
		cfg.Warmup = 30 * time.Second
		cfg.Seed = 1
		return cfg
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"fig2_gmp", short(Config{Scenario: Fig2Scenario(), Protocol: ProtocolGMP})},
		{"fig2w_gmp", short(Config{Scenario: Fig2WeightedScenario(), Protocol: ProtocolGMP})},
		{"fig3_80211", short(Config{Scenario: Fig3Scenario(), Protocol: Protocol80211})},
		{"fig3_2pp", short(Config{Scenario: Fig3Scenario(), Protocol: Protocol2PP})},
		{"fig3_gmp", short(Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP})},
		{"fig4_80211", short(Config{Scenario: Fig4Scenario(), Protocol: Protocol80211})},
		{"fig4_2pp", short(Config{Scenario: Fig4Scenario(), Protocol: Protocol2PP})},
		{"fig4_gmp", short(Config{Scenario: Fig4Scenario(), Protocol: ProtocolGMP})},
		{"faults_grid_gmp", short(Config{
			Scenario: grid,
			Protocol: ProtocolGMP,
			Faults: []FaultEvent{
				{At: 30 * time.Second, Kind: FaultNodeDown, Node: 1},
				{At: 40 * time.Second, Kind: FaultNodeUp, Node: 1},
			},
		})},
		{"mob_rwp_chain_gmp", short(Config{
			Scenario: chain,
			Protocol: ProtocolGMP,
			Mobility: &MobilityConfig{
				Model:    MobilityRandomWaypoint,
				Epoch:    2 * time.Second,
				MinSpeed: 1, MaxSpeed: 10,
				MinX: 0, MaxX: 800, MinY: -200, MaxY: 200,
			},
		})},
		{"mob_group_grid_gmp", short(Config{
			Scenario: mobGrid,
			Protocol: ProtocolGMP,
			Mobility: &MobilityConfig{
				Model:    MobilityGroup,
				Epoch:    2 * time.Second,
				MinSpeed: 1, MaxSpeed: 5,
				MinX: 0, MaxX: 400, MinY: 0, MaxY: 400,
				Groups: 3, GroupRadius: 100,
			},
		})},
		{"mob_churn_grid_gmp", short(Config{
			Scenario: mobGrid,
			Protocol: ProtocolGMP,
			// The random walk city500-dynamic runs, plus churn flows
			// whose routes and reference read the t=0 tables.
			Mobility: &MobilityConfig{
				Model:    MobilityRandomWalk,
				Epoch:    time.Second,
				MinSpeed: 1, MaxSpeed: 5,
				MinX: 0, MaxX: 400, MinY: 0, MaxY: 400,
			},
			Churn: &ChurnConfig{
				Process:   ChurnPoisson,
				Rate:      0.2,
				Matrix:    ChurnRandom,
				Admission: &AdmissionParams{MinShare: 50},
			},
		})},
		{"mob_faults_grid_80211", short(Config{
			Scenario: mobGrid,
			Protocol: Protocol80211,
			// Plain 802.11 through route repair, a crash and motion.
			Mobility: &MobilityConfig{
				Model:    MobilityRandomWalk,
				Epoch:    time.Second,
				MinSpeed: 1, MaxSpeed: 5,
				MinX: 0, MaxX: 400, MinY: 0, MaxY: 400,
			},
			Faults: []FaultEvent{
				{At: 30 * time.Second, Kind: FaultNodeDown, Node: 4},
				{At: 40 * time.Second, Kind: FaultNodeUp, Node: 4},
			},
		})},
		{"churn_fig3_gmp", short(Config{
			Scenario: Fig3Scenario(),
			Protocol: ProtocolGMP,
			Churn: &ChurnConfig{
				Process:   ChurnPoisson,
				Rate:      0.2,
				Matrix:    ChurnRandom,
				Admission: &AdmissionParams{MinShare: 50},
			},
		})},
		{"churn_fig3_2pp", short(Config{
			Scenario: Fig3Scenario(),
			Protocol: Protocol2PP,
			// Per-flow queues released at each departure.
			Churn: &ChurnConfig{
				Process: ChurnPoisson,
				Rate:    0.2,
				Matrix:  ChurnRandom,
			},
		})},
		{"churn_mesh_diurnal_gmp", short(Config{
			Scenario: mesh,
			Protocol: ProtocolGMP,
			Churn: &ChurnConfig{
				Process:          ChurnDiurnal,
				Rate:             0.3,
				DiurnalPeriod:    30 * time.Second,
				DiurnalAmplitude: 0.8,
				Matrix:           ChurnGateway,
				Admission:        &AdmissionParams{MinShare: 50},
			},
		})},
		{"fig2_gmpdist", short(Config{Scenario: Fig2Scenario(), Protocol: ProtocolGMPDistributed})},
		{"fig3_gmpdist", short(Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMPDistributed})},
		{"fig4_gmpdist_inband", short(Config{
			Scenario:      Fig4Scenario(),
			Protocol:      ProtocolGMPDistributed,
			InBandControl: true,
		})},
		{"churn_fig3_gmpdist", short(Config{
			Scenario: Fig3Scenario(),
			Protocol: ProtocolGMPDistributed,
			Churn: &ChurnConfig{
				Process: ChurnPoisson,
				Rate:    0.2,
				Matrix:  ChurnRandom,
			},
		})},
		{"mob_walk_grid_gmpdist", short(Config{
			Scenario: mobGrid,
			Protocol: ProtocolGMPDistributed,
			// mob_churn_grid_gmp's random walk, on the out-of-band bus.
			Mobility: &MobilityConfig{
				Model:    MobilityRandomWalk,
				Epoch:    time.Second,
				MinSpeed: 1, MaxSpeed: 5,
				MinX: 0, MaxX: 400, MinY: 0, MaxY: 400,
			},
		})},
		{"fair_mesh_gmp", short(Config{
			Scenario:        mesh,
			Protocol:        ProtocolGMP,
			FairAggregation: true,
			// Node 3 relays flow 0 and sources flow 2, so the crash
			// purges a queue that holds two origins.
			Faults: []FaultEvent{
				{At: 30 * time.Second, Kind: FaultNodeDown, Node: 3},
				{At: 40 * time.Second, Kind: FaultNodeUp, Node: 3},
			},
		})},
	}
}

func TestDeterminismGate(t *testing.T) {
	for _, tc := range gateCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := dumpResult(res)
			path := filepath.Join("testdata", "determinism", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("result diverged from golden %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// TestTelemetryGate extends the determinism gate to the telemetry
// layer: enabling Config.Telemetry must reproduce the telemetry-off
// Result byte-for-byte (the committed goldens above, which exclude the
// Telemetry field), and the recorded telemetry itself must be schema-
// valid, byte-identical to its own golden (<case>.telemetry.golden,
// rewritten by -update-golden), and byte-identical across repeated
// runs. The repeat run turns every observer on, so neither the Result
// nor the telemetry may move when spans and the event ring share the
// probe.
func TestTelemetryGate(t *testing.T) {
	for _, tc := range gateCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Telemetry = &TelemetryConfig{}
			res1, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res1.Telemetry == nil {
				t.Fatal("telemetry enabled but Result.Telemetry is nil")
			}

			want, err := os.ReadFile(filepath.Join("testdata", "determinism", tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got := dumpResult(res1); got != string(want) {
				t.Fatalf("telemetry-on result diverged from telemetry-off golden:\n%s",
					firstDiff(string(want), got))
			}

			var j1 bytes.Buffer
			if err := res1.Telemetry.WriteJSONL(&j1); err != nil {
				t.Fatal(err)
			}
			if _, err := obs.ValidateJSONL(bytes.NewReader(j1.Bytes())); err != nil {
				t.Fatalf("telemetry JSONL fails its schema: %v", err)
			}
			telPath := filepath.Join("testdata", "determinism", tc.name+".telemetry.golden")
			if *updateGolden {
				if err := os.WriteFile(telPath, j1.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if wantTel, err := os.ReadFile(telPath); err != nil {
				t.Fatalf("missing telemetry golden (run with -update-golden): %v", err)
			} else if got := j1.String(); got != string(wantTel) {
				t.Fatalf("telemetry diverged from golden %s:\n%s", telPath, firstDiff(string(wantTel), got))
			}

			res2, err := Run(withAllObservers(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if got := dumpResult(res2); got != string(want) {
				t.Fatalf("all-observers result diverged from the golden:\n%s",
					firstDiff(string(want), got))
			}
			var j2 bytes.Buffer
			if err := res2.Telemetry.WriteJSONL(&j2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Error("telemetry JSONL differs between identical runs")
			}
		})
	}
}

// withAllObservers returns cfg with telemetry, spans and the event ring
// all enabled.
func withAllObservers(cfg Config) Config {
	cfg.Telemetry = &TelemetryConfig{}
	cfg.Spans = &SpanConfig{}
	cfg.EventTrace = 1 << 12
	return cfg
}

// dumpResult renders every behavior-relevant field of a Result as
// deterministic text. Floats use the shortest round-trip representation,
// so two dumps are equal iff the underlying values are bit-identical.
func dumpResult(res *Result) string {
	var b strings.Builder
	g := func(x float64) string {
		if math.IsInf(x, 1) {
			return "+Inf"
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	fmt.Fprintf(&b, "scenario %s protocol %s\n", res.Scenario, res.Protocol)
	fmt.Fprintf(&b, "Imm %s Ieq %s U %s\n", g(res.Imm), g(res.Ieq), g(res.U))
	for i, f := range res.Flows {
		fmt.Fprintf(&b, "flow %d src %d dst %d w %s hops %d rate %s norm %s del %d drop %d limit %s ref %s\n",
			i, f.Spec.Src, f.Spec.Dst, g(f.Spec.Weight), f.Hops,
			g(f.Rate), g(f.NormRate), f.Delivered, f.Dropped, g(f.Limit), g(res.Reference[i]))
		reasons := make([]string, 0, len(f.DropsByReason))
		for r, n := range f.DropsByReason {
			reasons = append(reasons, fmt.Sprintf("%v=%d", r, n))
		}
		sort.Strings(reasons)
		if len(reasons) > 0 {
			fmt.Fprintf(&b, "  drops %s\n", strings.Join(reasons, " "))
		}
	}
	for _, tgt := range res.TwoPPTarget {
		fmt.Fprintf(&b, "2pp-target %s\n", g(tgt))
	}
	fmt.Fprintf(&b, "channel tx %d corrupt %d deliver %d loss %d downskip %d ctrl %d ctrlair %d\n",
		res.Channel.Transmissions, res.Channel.Corrupted, res.Channel.Delivered,
		res.Channel.InjectedLosses, res.Channel.DownSkipped,
		res.Channel.ControlFrames, int64(res.Channel.ControlAirtime))
	for i, m := range res.MAC {
		fmt.Fprintf(&b, "mac %d sent %d acked %d recv %d dup %d rts %d retry %d drop %d bcast %d\n",
			i, m.DataSent, m.DataAcked, m.DataReceived, m.Duplicates,
			m.RTSSent, m.Retries, m.Drops, m.Broadcasts)
	}
	for _, r := range res.Trace {
		fmt.Fprintf(&b, "round %d req %d sat %d", int64(r.Time), r.Requests, r.SaturatedVNodes)
		for _, x := range r.Rates {
			fmt.Fprintf(&b, " r=%s", g(x))
		}
		for _, x := range r.Limits {
			fmt.Fprintf(&b, " l=%s", g(x))
		}
		for _, n := range r.DownNodes {
			fmt.Fprintf(&b, " down=%d", n)
		}
		b.WriteByte('\n')
	}
	for _, ev := range res.FaultEvents {
		fmt.Fprintf(&b, "fault %v\n", ev)
	}
	if res.MobilityEpochs > 0 {
		// Gated so the static goldens predating mobility stay
		// byte-identical.
		fmt.Fprintf(&b, "mobility epochs %d\n", res.MobilityEpochs)
	}
	if res.Churn != nil {
		// Gated so the goldens predating churn stay byte-identical.
		c := res.Churn
		fmt.Fprintf(&b, "churn arrivals %d admitted %d rejected %d shed %d stale %d\n",
			c.Arrivals, c.Admitted, c.Rejected, c.Shed, c.StaleLimits)
		for i, d := range c.Decisions {
			fmt.Fprintf(&b, "admit flow %d at %d ok %v reason %q ttfs %d\n",
				d.Flow, int64(d.At), d.Admitted, d.Reason, int64(c.TimeToFairShare[i]))
		}
	}
	fmt.Fprintf(&b, "recovered %v recovery %d\n", res.Recovered, int64(res.RecoveryTime))
	return b.String()
}

// firstDiff returns a readable excerpt around the first differing line.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(no line diff; lengths differ)"
}

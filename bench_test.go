package gmp

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§7) plus the ablations listed in DESIGN.md. Each
// benchmark runs the full packet-level simulation and reports the
// paper's metrics through b.ReportMetric:
//
//	Imm       maxmin fairness index  min(r)/max(r)
//	Ieq       equality (Jain) index
//	U_pps     effective network throughput Σ r(f)·l_f
//	minRate   the smallest flow rate (the quantity maxmin raises)
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute pkt/s differ from the paper (different PHY constants); the
// shapes — who wins, by what factor, how the indices order the
// protocols — are the reproduction target. EXPERIMENTS.md records a
// full paper-vs-measured comparison.

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"gmp/internal/clique"
	"gmp/internal/geom"
	"gmp/internal/mobility"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/stats"
	"gmp/internal/topology"
)

// benchRun executes one simulation per benchmark iteration (seed i+1)
// and reports the cross-iteration mean of the paper's metrics, so the
// reported numbers average over every seed the benchmark ran instead of
// echoing only the last one. It returns the cross-seed summary plus the
// individual results for callers that need per-run fields.
func benchRun(b *testing.B, cfg Config) (SweepSummary, []*Result) {
	b.Helper()
	results := make([]*Result, 0, b.N)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	sum := Summarize(results)
	b.ReportMetric(sum.Imm.Mean, "Imm")
	b.ReportMetric(sum.Ieq.Mean, "Ieq")
	b.ReportMetric(sum.U.Mean, "U_pps")
	b.ReportMetric(sum.MinRate.Mean, "minRate")
	return sum, results
}

// BenchmarkTable1Fig2Maxmin regenerates Table 1: GMP on the Figure 2
// topology with unit weights. Paper: f1=563.96 with f2..f4 equal around
// 197-221 (f1 opportunistically exceeds the clique-1 flows by ~2.6x).
func BenchmarkTable1Fig2Maxmin(b *testing.B) {
	sum, _ := benchRun(b, Config{Scenario: Fig2Scenario(), Protocol: ProtocolGMP})
	b.ReportMetric(sum.FlowRates[0].Mean/sum.FlowRates[1].Mean, "f1/f2")
}

// BenchmarkTable2Fig2Weighted regenerates Table 2: weighted maxmin with
// weights (1,2,1,3). Paper: clique-1 rates 225/122/377 ~ 2:1:3.
func BenchmarkTable2Fig2Weighted(b *testing.B) {
	sum, _ := benchRun(b, Config{Scenario: Fig2WeightedScenario(), Protocol: ProtocolGMP})
	b.ReportMetric(sum.FlowRates[1].Mean/sum.FlowRates[2].Mean, "f2/f3")
	b.ReportMetric(sum.FlowRates[3].Mean/sum.FlowRates[2].Mean, "f4/f3")
}

// Tables 3 and 4 compare three protocols; one sub-benchmark each so the
// -bench output carries one row per protocol column.

func benchComparison(b *testing.B, sc Scenario) {
	for _, p := range []Protocol{Protocol80211, Protocol2PP, ProtocolGMP} {
		b.Run(p.String(), func(b *testing.B) {
			benchRun(b, Config{Scenario: sc, Protocol: p})
		})
	}
}

// BenchmarkTable3Fig3Comparison regenerates Table 3 (three-link chain).
// Paper: I_mm 0.366 / 0.547 / 0.919 and U 856 / 1014 / 1026 for
// 802.11 / 2PP / GMP.
func BenchmarkTable3Fig3Comparison(b *testing.B) {
	benchComparison(b, Fig3Scenario())
}

// BenchmarkTable4Fig4Comparison regenerates Table 4 (four-cell
// topology). Paper: I_mm 0.476 / 0.125 / 0.888 for 802.11 / 2PP / GMP.
func BenchmarkTable4Fig4Comparison(b *testing.B) {
	benchComparison(b, Fig4Scenario())
}

// BenchmarkFig1QueueIsolation regenerates the Figure 1 experiment (§5.1):
// per-destination queueing isolates f2 from f1's remote bottleneck. The
// reported isolation metric is r(f2)/r(f1); with a shared queue it is ~1
// (f2 wrongly coupled), with per-destination queues it is >> 1.
func BenchmarkFig1QueueIsolation(b *testing.B) {
	for _, tc := range []struct {
		name     string
		protocol Protocol
	}{
		{"SharedQueue", ProtocolBackpressureShared},
		{"PerDestination", ProtocolBackpressure},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sum, _ := benchRun(b, Config{
				Scenario: Fig1Scenario(),
				Protocol: tc.protocol,
				Duration: 200 * time.Second,
			})
			b.ReportMetric(sum.FlowRates[1].Mean/sum.FlowRates[0].Mean, "f2/f1")
		})
	}
}

// BenchmarkAblationBeta sweeps GMP's equality tolerance β (A2 in
// DESIGN.md). The paper fixes β = 10%; smaller values react to noise,
// larger ones leave wider residual unfairness.
func BenchmarkAblationBeta(b *testing.B) {
	for _, beta := range []float64{0.05, 0.10, 0.20} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			benchRun(b, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, Beta: beta})
		})
	}
}

// BenchmarkAblationPeriod sweeps the measurement/adjustment period (A3).
// The paper uses 4 s.
func BenchmarkAblationPeriod(b *testing.B) {
	for _, period := range []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second} {
		b.Run(period.String(), func(b *testing.B) {
			benchRun(b, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, Period: period})
		})
	}
}

// BenchmarkAblationBuffer sweeps the per-destination queue capacity (A6).
// The paper's comparisons use 10 slots.
func BenchmarkAblationBuffer(b *testing.B) {
	for _, slots := range []int{5, 10, 50} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			benchRun(b, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, QueueSlots: slots})
		})
	}
}

// BenchmarkAblationAdditiveIncrease sweeps the rate-limit probe step:
// larger steps recover utilization faster but overshoot equality.
func BenchmarkAblationAdditiveIncrease(b *testing.B) {
	for _, step := range []float64{2, 4, 8} {
		b.Run(fmt.Sprintf("step=%g", step), func(b *testing.B) {
			benchRun(b, Config{Scenario: Fig4Scenario(), Protocol: ProtocolGMP, AdditiveIncrease: step})
		})
	}
}

// BenchmarkRandomTopologyVsReference (A4) runs GMP on random connected
// topologies and reports how close the distributed outcome gets to the
// centralized water-filling reference: refDist is the mean absolute
// relative deviation of per-flow rates from the reference allocation.
func BenchmarkRandomTopologyVsReference(b *testing.B) {
	sc, err := RandomScenario(15, 5, 900, 900, 3)
	if err != nil {
		b.Fatal(err)
	}
	sum, results := benchRun(b, Config{Scenario: sc, Protocol: ProtocolGMP})
	// The reference allocation is seed-independent; compare it against
	// the cross-seed mean rates.
	reference := results[len(results)-1].Reference
	dev := 0.0
	for i, fr := range sum.FlowRates {
		if ref := reference[i]; ref > 0 {
			d := (fr.Mean - ref) / ref
			if d < 0 {
				d = -d
			}
			dev += d
		}
	}
	b.ReportMetric(dev/float64(len(sum.FlowRates)), "refDist")
}

// BenchmarkMeshGateway (A5) scales GMP to a 4x4 mesh with six flows
// converging on a gateway — the motivating wireless-mesh workload.
func BenchmarkMeshGateway(b *testing.B) {
	sc, err := MeshGatewayScenario(4, 4, 6, 200, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []Protocol{Protocol80211, ProtocolGMP} {
		b.Run(p.String(), func(b *testing.B) {
			benchRun(b, Config{Scenario: sc, Protocol: p})
		})
	}
}

// BenchmarkLossResilience injects uniform frame loss and reports how
// GMP's fairness degrades (failure injection; not in the paper).
func BenchmarkLossResilience(b *testing.B) {
	for _, loss := range []float64{0, 0.01, 0.05} {
		b.Run(fmt.Sprintf("loss=%.2f", loss), func(b *testing.B) {
			benchRun(b, Config{Scenario: Fig3Scenario(), Protocol: ProtocolGMP, LossProb: loss})
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed on the
// busiest paper scenario, so regressions in the event loop show up: one
// short session per op under each protocol family (plain 802.11, central
// GMP, and the distributed GMP runtime with in-band link-state
// broadcasts), reported as frames put on the air per wall-clock second
// with allocations per op.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, arm := range []struct {
		name   string
		proto  Protocol
		inBand bool
	}{
		{"80211", Protocol80211, false},
		{"gmp", ProtocolGMP, false},
		{"gmp-dist", ProtocolGMPDistributed, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := Config{
				Scenario:      Fig4Scenario(),
				Protocol:      arm.proto,
				InBandControl: arm.inBand,
				Duration:      20 * time.Second,
				Warmup:        10 * time.Second,
			}
			var tx int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tx += res.Channel.Transmissions
			}
			b.ReportMetric(float64(tx)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkChurnOverhead measures what the churn engine and admission
// control cost on top of a comparable static run: the mesh-gateway
// overload demo with Poisson arrivals and admission on. The schedule
// is pre-generated and the admission test is O(path cliques) per
// arrival, so the frames/s metric should track the static throughput
// benchmark, not fall off a cliff.
func BenchmarkChurnOverhead(b *testing.B) {
	sc, err := MeshGatewayScenario(3, 3, 3, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Scenario: sc,
		Protocol: ProtocolGMP,
		Duration: 20 * time.Second,
		Warmup:   10 * time.Second,
		Churn: &ChurnConfig{
			Process:     ChurnPoisson,
			Rate:        1.0,
			Matrix:      ChurnGateway,
			MinSizePkts: 4000,
			MaxSizePkts: 40000,
			Admission:   &AdmissionParams{MinShare: 40},
		},
	}
	var tx int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Churn == nil || res.Churn.Arrivals == 0 {
			b.Fatal("churn workload produced no arrivals")
		}
		tx += res.Channel.Transmissions
	}
	b.ReportMetric(float64(tx)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkParallelSweep measures the experiment runner's fan-out: one
// op is a complete 16-seed sweep of the Figure 3 scenario, executed
// serially (Workers=1) and across all CPUs. On an N-core machine the
// parallel variant approaches min(N, 16)× speedup because runs are
// independent single-threaded simulations; on one core the two are
// equal. The runs/s metric is the cross-variant comparable number.
func BenchmarkParallelSweep(b *testing.B) {
	cfgs := SeedSweep(Config{
		Scenario: Fig3Scenario(),
		Protocol: ProtocolGMP,
		Duration: 30 * time.Second,
		Warmup:   15 * time.Second,
	}, 16)
	variants := []struct {
		name    string
		workers int
	}{
		{"Serial", 1},
		{fmt.Sprintf("AllCPUs=%d", runtime.GOMAXPROCS(0)), 0},
	}
	for _, tc := range variants {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := RunMany(context.Background(), cfgs, RunManyOptions{Workers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if sum := Summarize(results); sum.Runs != len(cfgs) {
					b.Fatalf("aggregated %d of %d runs", sum.Runs, len(cfgs))
				}
			}
			b.ReportMetric(float64(len(cfgs)*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkFlowChurn measures GMP's adaptivity to dynamic flow sets (an
// extension beyond the paper's static evaluation): the one-hop flow of
// the Figure 3 chain departs mid-session and the metric is the fairness
// of the surviving flows over the post-churn window.
func BenchmarkFlowChurn(b *testing.B) {
	sc := Fig3Scenario()
	sc.Flows[2].Stop = 200 * time.Second
	r0 := make([]float64, 0, b.N)
	r1 := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Scenario: sc,
			Protocol: ProtocolGMP,
			Warmup:   250 * time.Second,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		r0 = append(r0, res.Rates[0])
		r1 = append(r1, res.Rates[1])
	}
	b.ReportMetric(stats.Mean(r0), "r0_pps")
	b.ReportMetric(stats.Mean(r1), "r1_pps")
}

// BenchmarkInBandControl runs GMP with the §6.2 link-state dissemination
// executed on the channel itself (dominating-set relays included) and
// reports the measured control overhead as a fraction of airtime.
func BenchmarkInBandControl(b *testing.B) {
	sum, results := benchRun(b, Config{
		Scenario:      Fig4Scenario(),
		Protocol:      ProtocolGMP,
		InBandControl: true,
	})
	b.ReportMetric(sum.ControlOverhead.Mean, "ctrlFrac")
	frames := make([]float64, len(results))
	for i, res := range results {
		frames[i] = float64(res.Channel.ControlFrames)
	}
	b.ReportMetric(stats.Mean(frames), "ctrlFrames")
}

// BenchmarkDistributedRuntime compares the centrally-evaluated engine
// with the per-node distributed runtime (§6 executed literally) on the
// paper's Table 3 and Table 4 scenarios. The "InBand" variants run the
// link-state dissemination over real 802.11 broadcasts.
func BenchmarkDistributedRuntime(b *testing.B) {
	cases := []struct {
		name   string
		sc     Scenario
		proto  Protocol
		inband bool
	}{
		{"Fig3/Central", Fig3Scenario(), ProtocolGMP, false},
		{"Fig3/Distributed", Fig3Scenario(), ProtocolGMPDistributed, false},
		{"Fig3/DistributedInBand", Fig3Scenario(), ProtocolGMPDistributed, true},
		{"Fig4/Central", Fig4Scenario(), ProtocolGMP, false},
		{"Fig4/Distributed", Fig4Scenario(), ProtocolGMPDistributed, false},
		{"Fig4/DistributedInBand", Fig4Scenario(), ProtocolGMPDistributed, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sum, _ := benchRun(b, Config{Scenario: tc.sc, Protocol: tc.proto, InBandControl: tc.inband})
			if tc.inband {
				b.ReportMetric(sum.ControlOverhead.Mean, "ctrlFrac")
			}
		})
	}
}

// BenchmarkConvergenceTime reports how quickly GMP settles on the
// paper's scenarios (seconds of virtual time until per-period rates stay
// within 30% of their settled means).
func BenchmarkConvergenceTime(b *testing.B) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"Fig3", Fig3Scenario()},
		{"Fig4", Fig4Scenario()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			secs := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{Scenario: tc.sc, Protocol: ProtocolGMP, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				at, ok := ConvergenceTime(res.Trace, 0.3)
				if !ok {
					at = res.Trace[len(res.Trace)-1].Time
				}
				secs = append(secs, at.Seconds())
			}
			b.ReportMetric(stats.Mean(secs), "convergeSec")
		})
	}
}

// BenchmarkTopologyZoo runs GMP across structurally distinct topologies
// beyond the paper's figures: crossing flows, parallel contending
// chains, and a pure single-destination star.
func BenchmarkTopologyZoo(b *testing.B) {
	cross, err := CrossScenario(2, 200)
	if err != nil {
		b.Fatal(err)
	}
	chains, err := ParallelChainsScenario(3, 4, 200, 240)
	if err != nil {
		b.Fatal(err)
	}
	star, err := StarScenario(6, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"Cross", cross},
		{"ParallelChains", chains},
		{"Star", star},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchRun(b, Config{Scenario: tc.sc, Protocol: ProtocolGMP})
		})
	}
}

// BenchmarkFairAggregation measures the per-origin round-robin queue
// extension (beyond the paper, in the spirit of its ref [4]) on the
// mesh-gateway workload, with and without GMP's rate adaptation on top.
func BenchmarkFairAggregation(b *testing.B) {
	sc, err := MeshGatewayScenario(4, 4, 6, 200, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		protocol Protocol
		fair     bool
	}{
		{"Backpressure/FIFO", ProtocolBackpressure, false},
		{"Backpressure/FairAggregation", ProtocolBackpressure, true},
		{"GMP/FIFO", ProtocolGMP, false},
		{"GMP/FairAggregation", ProtocolGMP, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchRun(b, Config{Scenario: sc, Protocol: tc.protocol, FairAggregation: tc.fair})
		})
	}
}

// BenchmarkFaultRecovery measures GMP under the fault-injection
// subsystem (beyond the paper): a relay on the 2x3 grid crashes at the
// warmup boundary and revives after the given outage, and the benchmark
// reports how long the allocation takes to re-settle after the revival
// alongside the usual fairness metrics. The recovery_s metric is the
// cross-seed mean over runs whose post-fault trace settled.
func BenchmarkFaultRecovery(b *testing.B) {
	sc, err := GridScenario(2, 3, 200)
	if err != nil {
		b.Fatal(err)
	}
	sc = sc.WithFlows([][3]int{{0, 2, 1}, {3, 5, 1}})
	for _, outage := range []time.Duration{10 * time.Second, 30 * time.Second} {
		b.Run(fmt.Sprintf("outage=%s", outage), func(b *testing.B) {
			cfg := Config{
				Scenario: sc,
				Protocol: ProtocolGMP,
				Duration: 200 * time.Second,
				Warmup:   40 * time.Second,
				Faults: []FaultEvent{
					{At: 40 * time.Second, Kind: FaultNodeDown, Node: 1},
					{At: 40*time.Second + outage, Kind: FaultNodeUp, Node: 1},
				},
			}
			_, results := benchRun(b, cfg)
			var rec []float64
			for _, res := range results {
				if res.Recovered {
					rec = append(rec, res.RecoveryTime.Seconds())
				}
			}
			if len(rec) > 0 {
				b.ReportMetric(stats.Mean(rec), "recovery_s")
			}
			b.ReportMetric(float64(len(rec))/float64(len(results)), "recovered_frac")
		})
	}
}

// BenchmarkTelemetryOverhead measures the telemetry layer's cost: the
// same Fig. 4 802.11 workload as BenchmarkSimulatorThroughput with the
// recorder off (the nil-hook baseline every untelemetered run takes)
// and on. The off arm must stay within noise of BenchmarkSimulatorThroughput;
// the on arm bounds what -telemetry costs a user.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		tcfg *TelemetryConfig
	}{
		{"off", nil},
		{"on", &TelemetryConfig{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{
				Scenario:  Fig4Scenario(),
				Protocol:  Protocol80211,
				Duration:  20 * time.Second,
				Warmup:    10 * time.Second,
				Telemetry: mode.tcfg,
			}
			var tx int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tx += res.Channel.Transmissions
			}
			b.ReportMetric(float64(tx)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkSpanOverhead measures the causal-tracing layer's cost on the
// same Fig. 4 802.11 workload: spans off (the nil-hook baseline — must
// stay within noise of BenchmarkSimulatorThroughput) and spans on at the
// default 1-in-64 sampling stride (bounds what -span costs a user).
func BenchmarkSpanOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		scfg *SpanConfig
	}{
		{"off", nil},
		{"on", &SpanConfig{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{
				Scenario: Fig4Scenario(),
				Protocol: Protocol80211,
				Duration: 20 * time.Second,
				Warmup:   10 * time.Second,
				Spans:    mode.scfg,
			}
			var tx int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tx += res.Channel.Transmissions
			}
			b.ReportMetric(float64(tx)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkScaling measures how the per-frame simulation cost grows with
// network size on random connected topologies of constant density (~10
// expected neighbors per node) and on city-regime street grids (4
// neighbors per node, the spatial-grid pipeline's target workload),
// under plain 802.11, GMP and in-band gmp-dist. Before the adjacency
// precomputation the medium scanned all N nodes per transmission, making
// the per-frame cost O(N); with neighbor lists it is O(degree), so ns/op
// should grow roughly linearly in N (more nodes → more flows → more
// frames) rather than quadratically.
//
// Three metrics are reported separately so set-up and steady state cannot
// mask each other: setupms and setupKB are the arm's set-up cost
// (setupCost), frames/s
// reports kernel throughput of the timed simulation runs, and
// ns/reception divides their wall time by the radio's receptions
// (Delivered + Corrupted). A frame costs O(degree), so frames/s may fall
// as the density grows; ns/reception should not grow with N. Each timed
// run includes its own set-up, which setupms bounds.
func BenchmarkScaling(b *testing.B) {
	cases := []struct {
		name string
		make func() (Scenario, error)
	}{
		{"N=50", func() (Scenario, error) { return RandomScenario(50, 5, 1000, 1000, 1) }},
		{"N=100", func() (Scenario, error) { return RandomScenario(100, 10, 1400, 1400, 1) }},
		{"N=200", func() (Scenario, error) { return RandomScenario(200, 20, 2000, 2000, 1) }},
		{"city/N=500", func() (Scenario, error) { return CityScenario(500, 4, 10, 220, 1) }},
		{"city/N=2000", func() (Scenario, error) { return CityScenario(2000, 8, 24, 220, 1) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sc, err := tc.make()
			if err != nil {
				b.Fatal(err)
			}
			for _, arm := range []struct {
				name   string
				proto  Protocol
				inBand bool
			}{
				{"80211", Protocol80211, false},
				{"gmp", ProtocolGMP, false},
				{"gmp-dist", ProtocolGMPDistributed, true},
			} {
				b.Run(arm.name, func(b *testing.B) {
					cfg := Config{
						Scenario:      sc,
						Protocol:      arm.proto,
						InBandControl: arm.inBand,
						Duration:      30 * time.Second,
						Warmup:        10 * time.Second,
					}
					var frames, receptions int64
					var simSeconds float64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cfg.Seed = int64(i + 1)
						res, err := Run(cfg)
						if err != nil {
							b.Fatal(err)
						}
						frames += res.Channel.Transmissions
						receptions += res.Channel.Delivered + res.Channel.Corrupted
						simSeconds += cfg.Duration.Seconds()
					}
					b.StopTimer()
					elapsed := b.Elapsed()
					if elapsed > 0 {
						b.ReportMetric(float64(frames)/elapsed.Seconds(), "frames/s")
						b.ReportMetric(simSeconds/elapsed.Seconds(), "simsec/s")
					}
					if receptions > 0 {
						b.ReportMetric(float64(elapsed.Nanoseconds())/float64(receptions), "ns/reception")
					}
					// After StopTimer/ResetTimer so the framework does not
					// discard it (ResetTimer deletes user-reported metrics).
					reportSetup(b, cfg)
				})
			}
		})
	}
}

// setupCost returns a session's set-up cost: the median wall time, in
// milliseconds, of five Runs of cfg cut to 1 ms of simulated time, which
// build everything a session builds and run a negligible event loop, and
// the KiB that median run allocated (the runtime.MemStats.TotalAlloc
// delta). The time is the benchmark module's setup_s (bench/measure.go)
// for one arm, at seed 1.
func setupCost(b *testing.B, cfg Config) (ms, kb float64) {
	b.Helper()
	cfg.Duration, cfg.Warmup, cfg.Seed = time.Millisecond, 500*time.Microsecond, 1
	type sample struct{ ms, kb float64 }
	samples := make([]sample, 5)
	var before, after runtime.MemStats
	for i := range samples {
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		samples[i] = sample{elapsed.Seconds() * 1000, float64(after.TotalAlloc-before.TotalAlloc) / 1024}
	}
	slices.SortFunc(samples, func(x, y sample) int { return cmp.Compare(x.ms, y.ms) })
	median := samples[len(samples)/2]
	return median.ms, median.kb
}

// reportSetup reports setupCost as the setupms and setupKB metrics.
func reportSetup(b *testing.B, cfg Config) {
	ms, kb := setupCost(b, cfg)
	b.ReportMetric(ms, "setupms")
	b.ReportMetric(kb, "setupKB")
}

// BenchmarkCityEndToEnd builds and simulates the 10,000-node city — the
// scale target of the spatial-grid work — in one piece: grid-backed
// topology construction, lazy routing, the cliques around the flows'
// paths, and a short 802.11 session. Completing at all is the acceptance
// criterion; frames/s tracks the kernel's share of the run, and setupms
// and setupKB the set-up's (setupCost).
func BenchmarkCityEndToEnd(b *testing.B) {
	sc, err := CityScenario(10000, 16, 40, 220, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Scenario: sc,
		Protocol: Protocol80211,
		Duration: 20 * time.Second,
		Warmup:   10 * time.Second,
	}
	var frames int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Channel.Transmissions
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(frames)/s, "frames/s")
	}
	reportSetup(b, cfg)
}

// BenchmarkMobilityEpoch times the repairs RunContext makes to the
// network on a mobility epoch, over the epochs of the city500-dynamic
// benchmark panel: the 500-node city at 220 m pitch under a 1 s random
// walk at 1-5 m/s, four 60 s sessions whose trajectories are seeded the
// way the benchmark's build-stage replay (bench/layers.go) seeds them
// for workload seed 1. Each iteration replays the panel, and only the
// step under test is timed and its allocations counted (the
// runtime.MemStats deltas). ns/epoch, B/epoch and allocs/epoch are its
// cost per epoch: every epoch for MoveNodes, and for a repair every
// epoch that changed the adjacency, as an unchanged one repairs nothing.
//
//	go test -run '^$' -bench MobilityEpoch -benchtime 2x .
//
// The clique rows compare Update given the full mover list and the
// cover of the flipped pairs that RunContext passes, next to the
// from-scratch Build. The routing rows compare the eager table
// the benchmark's replay still times with the lazy table, plus the rows
// of the city's flows, built fresh and, as RunContext builds every
// repair after a session's first, on the retired table's arrays.
func BenchmarkMobilityEpoch(b *testing.B) {
	sc, err := CityScenario(500, 4, 10, 220, 1)
	if err != nil {
		b.Fatal(err)
	}
	mob := MobilityConfig{Model: MobilityRandomWalk, Epoch: time.Second, MinSpeed: 1, MaxSpeed: 5}
	// The panel's session seeds for workload seed 1 (bench/workloads.go).
	seeds := []int64{8240856498840590925, 196268158620989535, 1884379821067057501, 1547107535566102797}
	type epoch struct {
		moved []topology.NodeID
		pos   []geom.Point
	}
	var panel [][]epoch
	for _, seed := range seeds {
		var eps []epoch
		sched := sim.NewScheduler()
		record := func(moved []topology.NodeID, pos []geom.Point) {
			eps = append(eps, epoch{slices.Clone(moved), slices.Clone(pos)})
		}
		if _, err := mobility.Start(sched, sc.Positions, mob, sim.NewRand(seed), record); err != nil {
			b.Fatal(err)
		}
		sched.Run(60 * time.Second)
		panel = append(panel, eps)
	}

	type repair func(topo *topology.Topology, cs *clique.Set, d *topology.Diff) *clique.Set
	routeFlows := func(rt *routing.Table) {
		for _, f := range sc.Flows {
			rt.HopCount(f.Src, f.Dst)
		}
	}
	// The live table of the session replayed now; a session's first
	// repair builds it fresh.
	var live *routing.Table
	var liveTopo *topology.Topology
	for _, tc := range []struct {
		name string
		fn   repair // nil: the row times MoveNodes itself
	}{
		{"topology.MoveNodes", nil},
		{"clique.Update/moved", func(topo *topology.Topology, cs *clique.Set, d *topology.Diff) *clique.Set {
			return clique.Update(topo, cs, d.Moved)
		}},
		{"clique.Update/cover", func(topo *topology.Topology, cs *clique.Set, d *topology.Diff) *clique.Set {
			return clique.Update(topo, cs, d.Cover)
		}},
		{"clique.Build", func(topo *topology.Topology, _ *clique.Set, _ *topology.Diff) *clique.Set {
			return clique.Build(topo)
		}},
		{"routing.BuildExcluding", func(topo *topology.Topology, cs *clique.Set, _ *topology.Diff) *clique.Set {
			routeFlows(routing.BuildExcluding(topo, nil))
			return cs
		}},
		{"routing.BuildLazyExcluding+rows", func(topo *topology.Topology, cs *clique.Set, _ *topology.Diff) *clique.Set {
			routeFlows(routing.BuildLazyExcluding(topo, nil))
			return cs
		}},
		{"routing.BuildLazyFrom+rows", func(topo *topology.Topology, cs *clique.Set, _ *topology.Diff) *clique.Set {
			if liveTopo != topo {
				live, liveTopo = routing.BuildLazyExcluding(topo, nil), topo
			} else {
				live = routing.BuildLazyFrom(live, topo, nil)
			}
			routeFlows(live)
			return cs
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var timed time.Duration
			var bytes, allocs uint64
			measured := 0
			var before, after runtime.MemStats
			measure := func(step func()) {
				runtime.ReadMemStats(&before)
				start := time.Now()
				step()
				timed += time.Since(start)
				runtime.ReadMemStats(&after)
				bytes += after.TotalAlloc - before.TotalAlloc
				allocs += after.Mallocs - before.Mallocs
				measured++
			}
			for i := 0; i < b.N; i++ {
				for _, eps := range panel {
					topo := topology.MustNew(sc.Positions, sc.Radio)
					cs := clique.Build(topo)
					for _, e := range eps {
						var d *topology.Diff
						var err error
						move := func() { d, err = topo.MoveNodes(e.moved, e.pos) }
						if tc.fn == nil {
							measure(move)
						} else {
							move()
						}
						if err != nil {
							b.Fatal(err)
						}
						if tc.fn == nil || !d.Changed() {
							continue
						}
						measure(func() { cs = tc.fn(topo, cs, d) })
					}
				}
			}
			b.ReportMetric(float64(timed.Nanoseconds())/float64(measured), "ns/epoch")
			b.ReportMetric(float64(bytes)/float64(measured), "B/epoch")
			b.ReportMetric(float64(allocs)/float64(measured), "allocs/epoch")
			b.ReportMetric(float64(measured)/float64(b.N), "epochs/op")
		})
	}
}

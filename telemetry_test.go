package gmp

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// runTelemetry runs a short GMP session on the given scenario with
// telemetry enabled.
func runTelemetry(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(Config{
		Scenario:  sc,
		Protocol:  ProtocolGMP,
		Duration:  120 * time.Second,
		Warmup:    60 * time.Second,
		Seed:      1,
		Telemetry: &TelemetryConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("telemetry enabled but Result.Telemetry is nil")
	}
	return res
}

// TestTelemetryContent checks the recorded telemetry against the run it
// describes, on the paper's Fig2 and Fig3 scenarios: histograms account
// for the delivered packets, periodic samples have the right shape, the
// limit-event chain is consistent, and every flow the protocol ended up
// rate-limiting below its demand has a bottleneck condition in the
// timeline — the local condition that the maxmin allocation binds on.
func TestTelemetryContent(t *testing.T) {
	scenarios := []Scenario{Fig2Scenario(), Fig3Scenario()}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			res := runTelemetry(t, sc)
			tel := res.Telemetry

			if tel.Meta.Flows != len(sc.Flows) {
				t.Errorf("Meta.Flows = %d, want %d", tel.Meta.Flows, len(sc.Flows))
			}
			if tel.Meta.Protocol != "GMP" || tel.Meta.Scenario != sc.Name {
				t.Errorf("Meta = %+v", tel.Meta)
			}

			// Latency histograms cover at least the measured deliveries
			// (the recorder sees the whole session including warmup).
			for i, f := range res.Flows {
				fl := tel.Flows[i]
				if f.Delivered > 0 && fl.Latency.Count < f.Delivered {
					t.Errorf("flow %d: histogram count %d < measured deliveries %d",
						i, fl.Latency.Count, f.Delivered)
				}
				if fl.Delivered != fl.Latency.Count {
					t.Errorf("flow %d: Delivered %d != histogram count %d",
						i, fl.Delivered, fl.Latency.Count)
				}
			}

			// One sample per GMP period over the session.
			if len(tel.Samples) < 20 {
				t.Errorf("samples = %d, want >= 20 (120s / 4s period, minus edge)", len(tel.Samples))
			}
			for _, s := range tel.Samples {
				if len(s.Queues) != tel.Meta.Nodes || len(s.Limits) != tel.Meta.Flows {
					t.Fatalf("sample at %v has wrong vector sizes: %+v", s.At, s)
				}
				for _, l := range s.Links {
					if l.Util < 0 || l.Util > 1.05 {
						t.Errorf("sample at %v: link %d->%d utilization %v outside [0,1]",
							s.At, l.From, l.To, l.Util)
					}
				}
			}

			// Limit events for one flow chain: each change starts from
			// the limit the previous one installed.
			last := make(map[FlowID]float64)
			for _, l := range tel.Limits {
				if prev, ok := last[l.Flow]; ok && l.Before != prev {
					t.Errorf("flow %d limit chain broken at t=%v: before %v, previous after %v",
						l.Flow, l.At, l.Before, prev)
				}
				last[l.Flow] = l.After
			}

			// The timeline explains the allocation: every flow that
			// finished rate-limited below its demand was reduced by some
			// local condition, so it has a final bottleneck; and at least
			// one flow in these contended scenarios is bottlenecked.
			bottlenecked := 0
			for i, f := range res.Flows {
				limited := !math.IsInf(f.Limit, 1) && f.Limit < sc.Flows[i].DesiredRate
				bn := tel.FinalBottleneck(FlowID(i))
				if bn != 0 {
					bottlenecked++
				}
				if limited && bn == 0 {
					t.Errorf("flow %d ends limited to %.1f pkt/s (demand %.1f) but has no reducing condition event",
						i, f.Limit, sc.Flows[i].DesiredRate)
				}
			}
			if bottlenecked == 0 {
				t.Error("no flow has a bottleneck condition; contended scenarios must reduce someone")
			}

			// The final limits in the last sample agree with the Result.
			lastSample := tel.Samples[len(tel.Samples)-1]
			for i, f := range res.Flows {
				want := f.Limit
				if math.IsInf(want, 1) {
					want = -1
				}
				if got := lastSample.Limits[i]; got != want {
					t.Errorf("flow %d: last sampled limit %v, Result limit %v", i, got, want)
				}
			}
		})
	}
}

// TestTelemetrySampleInterval checks the Config.SampleInterval override.
func TestTelemetrySampleInterval(t *testing.T) {
	res, err := Run(Config{
		Scenario:  Fig2Scenario(),
		Protocol:  ProtocolGMP,
		Duration:  40 * time.Second,
		Telemetry: &TelemetryConfig{SampleInterval: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Telemetry.Samples)
	if n < 18 || n > 20 {
		t.Errorf("samples = %d, want ~19 (40s at 2s spacing)", n)
	}
	if res.Telemetry.Meta.SampleInterval != 2*time.Second {
		t.Errorf("Meta.SampleInterval = %v", res.Telemetry.Meta.SampleInterval)
	}
}

// TestTelemetryOffByDefault pins the disabled state: without
// Config.Telemetry the Result carries no telemetry.
func TestTelemetryOffByDefault(t *testing.T) {
	res, err := Run(Config{
		Scenario: Fig2Scenario(),
		Protocol: ProtocolGMP,
		Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Error("Result.Telemetry set without Config.Telemetry")
	}
}

// TestTelemetryDistributed checks the distributed engine records the
// condition timeline too, and deterministically.
func TestTelemetryDistributed(t *testing.T) {
	cfg := Config{
		Scenario:  Fig3Scenario(),
		Protocol:  ProtocolGMPDistributed,
		Duration:  120 * time.Second,
		Warmup:    60 * time.Second,
		Seed:      1,
		Telemetry: &TelemetryConfig{},
	}
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Telemetry.Conditions) == 0 {
		t.Fatal("distributed run recorded no condition events")
	}
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Telemetry.Conditions) != len(res2.Telemetry.Conditions) {
		t.Fatalf("condition counts differ across identical runs: %d vs %d",
			len(res1.Telemetry.Conditions), len(res2.Telemetry.Conditions))
	}
	for i := range res1.Telemetry.Conditions {
		if res1.Telemetry.Conditions[i] != res2.Telemetry.Conditions[i] {
			t.Fatalf("condition %d differs: %+v vs %+v",
				i, res1.Telemetry.Conditions[i], res2.Telemetry.Conditions[i])
		}
	}
}

// TestSojournCoversMACService checks every committed telemetry golden:
// the gate cases' and the gmpsim CLI's (which the telemetry gates
// reproduce from the code). A hop's sojourn runs from the packet's
// admission at the node to its acknowledgement, and its MAC service from
// the MAC's pull of that packet to the same acknowledgement, so each
// node must record both for the same packets, and the sojourns' sum and
// minimum must be at least the MAC services'.
func TestSojournCoversMACService(t *testing.T) {
	var paths []string
	for _, tc := range gateCases(t) {
		paths = append(paths, filepath.Join("testdata", "determinism", tc.name+".telemetry.golden"))
	}
	paths = append(paths,
		filepath.Join("cmd", "gmpsim", "testdata", "fig2_gmp_telemetry.golden"),
		filepath.Join("cmd", "gmpsim", "testdata", "fig4_gmpdist_telemetry.golden"))
	type hist struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum_ns"`
		Min   int64 `json:"min_ns"`
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec struct {
				Type       string `json:"type"`
				Node       int    `json:"node"`
				Sojourn    hist   `json:"sojourn"`
				MACService hist   `json:"mac_service"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if rec.Type != "node" {
				continue
			}
			nodes++
			s, m := rec.Sojourn, rec.MACService
			if s.Count != m.Count || s.Sum < m.Sum || s.Min < m.Min {
				t.Errorf("%s: node %d sojourn {count %d, sum %d ns, min %d ns} does not cover its MAC service {count %d, sum %d ns, min %d ns}",
					path, rec.Node, s.Count, s.Sum, s.Min, m.Count, m.Sum, m.Min)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if nodes == 0 {
			t.Errorf("%s: no node records", path)
		}
	}
}

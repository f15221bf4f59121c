package gmp

// The span gate extends the determinism gate to the causal tracing
// layer: enabling Config.Spans must reproduce the spans-off Result
// byte-for-byte against every committed golden, and the recorded trace
// itself must be schema-valid and byte-identical across repeated runs
// and across serial vs parallel RunMany batches. Content tests pin the
// semantics: critical paths must tile end-to-end latency exactly, and
// on Fig. 3 the chain flow must show MAC-contention wait at a
// bottleneck relay.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gmp/internal/span"
)

func spanJSONL(t *testing.T, tr *SpanTrace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSpanGate runs every determinism-gate case with spans enabled: the
// Result must match the spans-off golden byte for byte, and the span
// JSONL must validate and reproduce across runs. The repeat run turns
// every observer on, and neither the Result nor the spans may move.
func TestSpanGate(t *testing.T) {
	for _, tc := range gateCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Spans = &SpanConfig{}
			res1, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res1.Spans == nil {
				t.Fatal("spans enabled but Result.Spans is nil")
			}

			want, err := os.ReadFile(filepath.Join("testdata", "determinism", tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got := dumpResult(res1); got != string(want) {
				t.Fatalf("spans-on result diverged from spans-off golden:\n%s",
					firstDiff(string(want), got))
			}

			j1 := spanJSONL(t, res1.Spans)
			if _, err := span.ValidateJSONL(bytes.NewReader(j1)); err != nil {
				t.Fatalf("span JSONL fails its schema: %v", err)
			}

			res2, err := Run(withAllObservers(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if got := dumpResult(res2); got != string(want) {
				t.Fatalf("all-observers result diverged from the golden:\n%s",
					firstDiff(string(want), got))
			}
			if !bytes.Equal(j1, spanJSONL(t, res2.Spans)) {
				t.Error("span JSONL differs between identical runs")
			}
		})
	}
}

// TestSpanRunManySerialVsParallel pins that the span stream is
// independent of RunMany's worker count.
func TestSpanRunManySerialVsParallel(t *testing.T) {
	mk := func() []Config {
		var cfgs []Config
		for _, proto := range []Protocol{Protocol80211, ProtocolGMP} {
			cfgs = append(cfgs, Config{
				Scenario: Fig3Scenario(),
				Protocol: proto,
				Duration: 30 * time.Second,
				Warmup:   15 * time.Second,
				Spans:    &SpanConfig{SampleEvery: 16},
			})
		}
		return cfgs
	}
	serial, err := RunMany(context.Background(), mk(), RunManyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMany(context.Background(), mk(), RunManyOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !bytes.Equal(spanJSONL(t, serial[i].Spans), spanJSONL(t, parallel[i].Spans)) {
			t.Errorf("run %d: span JSONL differs between serial and parallel batches", i)
		}
	}
}

// TestSpanCriticalPathTiling pins the tiling invariant behind traceq's
// critical paths: for every sampled delivered packet, the hop windows
// tile [created, delivered) with no gaps or overlaps, so the per-hop
// wait+airtime+other breakdown sums exactly to the recorded end-to-end
// latency, and no breakdown component is negative.
func TestSpanCriticalPathTiling(t *testing.T) {
	res, err := Run(Config{
		Scenario: Fig3Scenario(),
		Protocol: ProtocolGMP,
		Duration: 60 * time.Second,
		Warmup:   30 * time.Second,
		Seed:     1,
		Spans:    &SpanConfig{SampleEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := span.CriticalPaths(res.Spans, -1)
	delivered := 0
	for _, p := range paths {
		if p.Outcome != "delivered" {
			continue
		}
		delivered++
		if !p.Exact {
			t.Fatalf("flow %d seq %d: hops do not tile e2e latency: created %v done %v hops %+v",
				p.Flow, p.Seq, p.Created, p.Done, p.Hops)
		}
		var sum time.Duration
		for _, h := range p.Hops {
			if h.Queue < 0 || h.Backoff < 0 || h.Defer < 0 || h.Airtime < 0 || h.Other < 0 {
				t.Fatalf("flow %d seq %d node %d: negative breakdown component: %+v", p.Flow, p.Seq, h.Node, h)
			}
			sum += h.Queue + h.Backoff + h.Defer + h.Airtime + h.Other
		}
		if sum != p.E2E {
			t.Fatalf("flow %d seq %d: breakdown sums to %v, e2e is %v", p.Flow, p.Seq, sum, p.E2E)
		}
	}
	if delivered == 0 {
		t.Fatal("no sampled delivered packets to check")
	}
}

// TestSpanFig3BottleneckAttribution pins the content check from the
// issue: on Fig. 3, the chain flow (0→3, relayed by nodes 1 and 2 under
// hidden-terminal contention) must have a critical path attributing MAC
// contention wait — deferral to a busy neighbor — at a bottleneck relay.
func TestSpanFig3BottleneckAttribution(t *testing.T) {
	res, err := Run(Config{
		Scenario: Fig3Scenario(),
		Protocol: ProtocolGMP,
		Duration: 60 * time.Second,
		Warmup:   30 * time.Second,
		Seed:     1,
		Spans:    &SpanConfig{SampleEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	attributed := false
	for _, p := range span.CriticalPaths(res.Spans, 0) {
		for _, h := range p.Hops {
			if (h.Node == 1 || h.Node == 2) && h.Defer > 0 {
				for peer, d := range h.DeferBy {
					if peer >= 0 && d > 0 {
						attributed = true
					}
				}
			}
		}
	}
	if !attributed {
		t.Fatal("chain flow's critical paths never attribute MAC-contention wait to a bottleneck relay (nodes 1/2)")
	}
}

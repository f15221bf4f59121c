// Command traceq queries span JSONL recordings (gmpsim -span, gmpd
// /v1/jobs/{id}/spans): it reconstructs per-packet critical paths with
// per-hop latency breakdowns, aggregates where sampled packets waited,
// lists the provenance chain behind every §5.3 rate-limit change, and
// converts traces to Chrome trace-event JSON for Perfetto.
//
// Its lint command validates telemetry and span JSONL files against
// their schemas (obs.ValidateJSONL and span.ValidateJSONL, the schemas'
// executable definitions) and prints per-type record counts; CI runs it
// on freshly recorded streams. The schema is auto-detected per file:
// span streams open with a meta record carrying "sample_every",
// telemetry streams do not. Use -schema to force one.
//
// Usage:
//
//	traceq critical-path [-flow N] [-verify] trace.jsonl
//	traceq top-waits [-n 10] trace.jsonl
//	traceq limit-chain [-flow N] trace.jsonl
//	traceq perfetto [-o out.json] [-check] trace.jsonl
//	traceq lint [-schema auto|telemetry|spans] file.jsonl [file.jsonl ...]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/span"
	"gmp/internal/topology"
)

func packetFlow(f int) packet.FlowID { return packet.FlowID(f) }

func usage() {
	fmt.Fprintln(os.Stderr, `usage: traceq <command> [flags] trace.jsonl
commands:
  critical-path  per-packet hop-by-hop latency breakdown (-flow N, -verify)
  top-waits      where sampled packets waited, aggregated by node (-n N)
  limit-chain    provenance of every rate-limit change (-flow N)
  perfetto       convert to Chrome trace-event JSON (-o file, -check)
  lint           validate telemetry/span JSONL files (-schema auto|telemetry|spans)`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "critical-path":
		fs := flag.NewFlagSet("critical-path", flag.ExitOnError)
		flow := fs.Int("flow", -1, "restrict to one flow (-1 = all)")
		verify := fs.Bool("verify", false, "fail unless every delivered packet's breakdown sums exactly to its e2e latency")
		fs.Parse(os.Args[2:])
		err = withTrace(fs.Args(), func(t *span.Trace) error {
			return criticalPath(os.Stdout, t, *flow, *verify)
		})
	case "top-waits":
		fs := flag.NewFlagSet("top-waits", flag.ExitOnError)
		n := fs.Int("n", 10, "show the top N wait sites")
		fs.Parse(os.Args[2:])
		err = withTrace(fs.Args(), func(t *span.Trace) error {
			return topWaits(os.Stdout, t, *n)
		})
	case "limit-chain":
		fs := flag.NewFlagSet("limit-chain", flag.ExitOnError)
		flow := fs.Int("flow", -1, "restrict to one flow (-1 = all)")
		fs.Parse(os.Args[2:])
		err = withTrace(fs.Args(), func(t *span.Trace) error {
			return limitChain(os.Stdout, t, *flow)
		})
	case "perfetto":
		fs := flag.NewFlagSet("perfetto", flag.ExitOnError)
		out := fs.String("o", "", "output file (default stdout)")
		check := fs.Bool("check", false, "verify the emitted JSON parses")
		fs.Parse(os.Args[2:])
		err = withTrace(fs.Args(), func(t *span.Trace) error {
			return perfetto(t, *out, *check)
		})
	case "lint":
		fs := flag.NewFlagSet("lint", flag.ExitOnError)
		schema := fs.String("schema", "auto", "schema to validate against: auto, telemetry, or spans")
		fs.Parse(os.Args[2:])
		err = lintFiles(fs.Args(), *schema)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceq: %v\n", err)
		os.Exit(1)
	}
}

func withTrace(args []string, fn func(*span.Trace) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one trace file, got %d args", len(args))
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	t, _, err := span.ReadJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return fn(t)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// criticalPath prints every sampled packet's hop-by-hop breakdown. With
// verify it exits non-zero unless each delivered packet's hop windows
// tile its lifetime exactly, i.e. queue+backoff+defer+airtime+other sums
// to the recorded end-to-end latency with nothing unaccounted.
func criticalPath(w io.Writer, t *span.Trace, flow int, verify bool) error {
	paths := span.CriticalPaths(t, packetFlow(flow))
	if len(paths) == 0 {
		return fmt.Errorf("no sampled packets (flow filter %d)", flow)
	}
	inexact := 0
	for _, p := range paths {
		fmt.Fprintf(w, "flow %d seq %d: %s e2e=%.3fms", p.Flow, p.Seq, p.Outcome, ms(p.E2E))
		if p.Blocked > 0 {
			fmt.Fprintf(w, " (+%.3fms source-blocked)", ms(p.Blocked))
		}
		if p.Outcome == "delivered" && !p.Exact {
			inexact++
			fmt.Fprintf(w, " [inexact tiling]")
		}
		fmt.Fprintln(w)
		for _, h := range p.Hops {
			next := "·"
			if h.Next >= 0 {
				next = fmt.Sprintf("%d", h.Next)
			}
			fmt.Fprintf(w, "  %d→%s %8.3fms  queue=%.3f backoff=%.3f defer=%.3f air=%.3f other=%.3f",
				h.Node, next, ms(h.End-h.Start), ms(h.Queue), ms(h.Backoff), ms(h.Defer), ms(h.Airtime), ms(h.Other))
			if h.Retries > 0 {
				fmt.Fprintf(w, " retries=%d", h.Retries)
			}
			if len(h.DeferBy) > 0 {
				peers := make([]int, 0, len(h.DeferBy))
				for n := range h.DeferBy {
					peers = append(peers, int(n))
				}
				sort.Ints(peers)
				fmt.Fprintf(w, " deferred-by:")
				for _, n := range peers {
					who := fmt.Sprintf("node %d", n)
					if n < 0 {
						who = "nav/wait"
					}
					fmt.Fprintf(w, " %s=%.3fms", who, ms(h.DeferBy[topology.NodeID(n)]))
				}
			}
			fmt.Fprintln(w)
		}
	}
	if verify && inexact > 0 {
		return fmt.Errorf("%d of %d delivered packets have hop breakdowns that do not tile their e2e latency", inexact, len(paths))
	}
	return nil
}

func topWaits(w io.Writer, t *span.Trace, n int) error {
	waits := span.TopWaits(t)
	if len(waits) == 0 {
		return fmt.Errorf("no wait spans in trace")
	}
	if n > 0 && len(waits) > n {
		waits = waits[:n]
	}
	fmt.Fprintf(w, "%-6s %-8s %12s %8s %12s\n", "node", "kind", "total_ms", "count", "mean_us")
	for _, ws := range waits {
		mean := float64(ws.Total) / float64(ws.Count) / float64(time.Microsecond)
		fmt.Fprintf(w, "%-6d %-8s %12.3f %8d %12.1f\n", ws.Node, ws.Kind, ms(ws.Total), ws.Count, mean)
	}
	return nil
}

// limitChain prints each rate-limit change with the condition, clique,
// and occupancy figures the engine acted on.
func limitChain(w io.Writer, t *span.Trace, flow int) error {
	chain := span.LimitChain(t, packetFlow(flow))
	if len(chain) == 0 {
		return fmt.Errorf("no limit changes in trace (flow filter %d)", flow)
	}
	for _, l := range chain {
		fmt.Fprintf(w, "%10.3fms flow %d %-8s %s → %s", ms(l.At), l.Flow, l.Action, limitStr(l.Before), limitStr(l.After))
		if l.Cond != "" {
			fmt.Fprintf(w, "  ⇐ %s@node %d (%.3fms", l.Cond, l.Node, ms(l.CondAt))
			if l.Factor != 0 {
				fmt.Fprintf(w, ", ×%.2f", l.Factor)
			}
			fmt.Fprintf(w, ")")
		}
		if l.Clique != "" {
			fmt.Fprintf(w, " clique %s max_occ=%.3f occ=%v", l.Clique, l.MaxOcc, l.Occupancy)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func limitStr(v float64) string {
	if v < 0 {
		return "∞"
	}
	return fmt.Sprintf("%.1fpps", v)
}

func perfetto(t *span.Trace, out string, check bool) error {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if !check {
		return t.WriteTraceEvent(w)
	}
	var b bytes.Buffer
	if err := t.WriteTraceEvent(&b); err != nil {
		return err
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		return fmt.Errorf("emitted trace-event JSON does not parse: %w", err)
	}
	if _, err := w.Write(b.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "traceq: perfetto: %d events, JSON ok\n", len(events))
	return nil
}

// lintFiles lints every file, reporting each failure, and fails if any
// file does.
func lintFiles(paths []string, schema string) error {
	switch schema {
	case "auto", "telemetry", "spans":
	default:
		return fmt.Errorf("lint: unknown -schema %q", schema)
	}
	if len(paths) == 0 {
		return fmt.Errorf("lint: expected at least one JSONL file")
	}
	failed := 0
	for _, path := range paths {
		if err := lint(path, schema); err != nil {
			fmt.Fprintf(os.Stderr, "traceq: %s: %v\n", path, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("lint: %d of %d files failed", failed, len(paths))
	}
	return nil
}

// lint validates one JSONL file against schema ("auto" detects it) and
// prints its per-type record counts.
func lint(path, schema string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if schema == "auto" {
		br := bufio.NewReader(f)
		head, _ := br.Peek(4096)
		schema = "telemetry"
		if line, _, ok := bytes.Cut(head, []byte("\n")); (ok || len(line) > 0) && bytes.Contains(line, []byte(`"sample_every"`)) {
			schema = "spans"
		}
		r = br
	}
	var counts map[string]int
	if schema == "spans" {
		counts, err = span.ValidateJSONL(r)
	} else {
		counts, err = obs.ValidateJSONL(r)
	}
	if err != nil {
		return err
	}
	types := make([]string, 0, len(counts))
	for k := range counts {
		types = append(types, k)
	}
	sort.Strings(types)
	fmt.Printf("%s: ok (%s)", path, schema)
	for _, k := range types {
		fmt.Printf(" %s=%d", k, counts[k])
	}
	fmt.Println()
	return nil
}

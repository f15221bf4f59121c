package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gmp "gmp"
	"gmp/internal/span"
)

// record runs a short Fig. 3 GMP simulation with aggressive sampling and
// writes its span stream to a temp file.
func record(t *testing.T) (string, *span.Trace) {
	t.Helper()
	res, err := gmp.Run(gmp.Config{
		Scenario: gmp.Fig3Scenario(),
		Protocol: gmp.ProtocolGMP,
		Duration: 30 * time.Second,
		Warmup:   15 * time.Second,
		Seed:     1,
		Spans:    &gmp.SpanConfig{SampleEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Spans.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig3.jsonl")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, res.Spans
}

func TestCriticalPathVerify(t *testing.T) {
	path, _ := record(t)
	err := withTrace([]string{path}, func(tr *span.Trace) error {
		var out bytes.Buffer
		if err := criticalPath(&out, tr, -1, true); err != nil {
			return err
		}
		s := out.String()
		if !strings.Contains(s, "delivered") {
			t.Fatalf("no delivered packets in output:\n%s", s)
		}
		if !strings.Contains(s, "queue=") || !strings.Contains(s, "defer=") {
			t.Fatalf("per-hop breakdown missing wait columns:\n%s", s)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("critical-path -verify failed (tiling broken): %v", err)
	}
}

func TestTopWaitsAndLimitChain(t *testing.T) {
	path, _ := record(t)
	err := withTrace([]string{path}, func(tr *span.Trace) error {
		var out bytes.Buffer
		if err := topWaits(&out, tr, 5); err != nil {
			return err
		}
		if lines := strings.Count(out.String(), "\n"); lines < 2 || lines > 6 {
			t.Fatalf("top-waits -n 5 printed %d lines:\n%s", lines, out.String())
		}
		out.Reset()
		if err := limitChain(&out, tr, -1); err != nil {
			return err
		}
		// GMP on Fig. 3 must reduce the chain flow via a bandwidth or
		// buffer condition somewhere in the run.
		if !strings.Contains(out.String(), "reduce") {
			t.Fatalf("limit chain has no reduce actions:\n%s", out.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerfettoCheck(t *testing.T) {
	path, _ := record(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	err := withTrace([]string{path}, func(tr *span.Trace) error {
		return perfetto(tr, out, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '[' {
		t.Fatal("perfetto output is not a JSON array")
	}
}

func TestWithTraceRejectsMalformed(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"type\":\"span\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := withTrace([]string{bad}, func(*span.Trace) error { return nil }); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

const goodSpans = `{"type":"meta","scenario":"s","protocol":"gmp","seed":1,"sample_every":64,"nodes":4,"flows":2,"duration_ns":1000}
{"type":"span","id":1,"parent":0,"kind":"packet","flow":0,"seq":0,"node":0,"peer":3,"start_ns":0,"end_ns":10}
{"type":"limit","id":1,"at_ns":5,"flow":0,"action":"reduce","before":100,"after":90,"node":3,"cond_at_ns":4}
`

// A span stream whose second record breaks the schema (span id gap).
const badSpans = `{"type":"meta","scenario":"s","protocol":"gmp","seed":1,"sample_every":64,"nodes":4,"flows":2,"duration_ns":1000}
{"type":"span","id":2,"parent":0,"kind":"packet","flow":0,"seq":0,"node":0,"peer":3,"start_ns":0,"end_ns":10}
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintSpanSchemaAutoDetect(t *testing.T) {
	good := write(t, "good.jsonl", goodSpans)
	if err := lint(good, "auto"); err != nil {
		t.Fatalf("valid span stream rejected under auto-detection: %v", err)
	}
	if err := lint(good, "spans"); err != nil {
		t.Fatalf("valid span stream rejected under forced schema: %v", err)
	}
	// Forcing the wrong schema must fail: telemetry has no span records.
	if err := lint(good, "telemetry"); err == nil {
		t.Fatal("span stream accepted by the telemetry schema")
	}
}

func TestLintRejectsMalformedSpans(t *testing.T) {
	bad := write(t, "bad.jsonl", badSpans)
	err := lint(bad, "auto")
	if err == nil {
		t.Fatal("malformed span stream accepted")
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error %q does not name the malformed record", err)
	}
}

func TestLintMissingFile(t *testing.T) {
	if err := lint(filepath.Join(t.TempDir(), "nope.jsonl"), "auto"); err == nil {
		t.Fatal("missing file accepted")
	}
}

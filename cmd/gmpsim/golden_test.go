package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenOutput pins the CLI's byte-exact output on short paper
// scenarios. Together with the library-level determinism gate this
// catches any behavioral drift introduced by performance work, all the
// way through the text and JSON renderers.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fig2_gmp_text.golden", []string{
			"-scenario", "fig2", "-protocol", "gmp",
			"-duration", "60s", "-warmup", "30s", "-seed", "1", "-trace"}},
		{"fig3_80211_json.golden", []string{
			"-scenario", "fig3", "-protocol", "802.11",
			"-duration", "60s", "-warmup", "30s", "-seed", "1", "-json"}},
		{"fig4_2pp_json.golden", []string{
			"-scenario", "fig4", "-protocol", "2pp",
			"-duration", "60s", "-warmup", "30s", "-seed", "1", "-json"}},
		{"fig2_gmp_why.golden", []string{
			"-scenario", "fig2", "-protocol", "gmp",
			"-duration", "60s", "-warmup", "30s", "-seed", "1", "-why", "1"}},
		{"fig3_80211_events.golden", []string{
			"-scenario", "fig3", "-protocol", "802.11",
			"-duration", "60s", "-warmup", "30s", "-seed", "1",
			"-events", "200", "-events-node", "1", "-events-kind", "rx"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}
}

// TestTelemetryGolden pins the JSONL telemetry export byte-for-byte:
// the schema and its determinism are part of the CLI contract. The
// fig4 gmp-dist case pins the per-node agents' condition and limit
// records, which the Result goldens cannot see.
func TestTelemetryGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fig2_gmp_telemetry.golden", []string{
			"-scenario", "fig2", "-protocol", "gmp",
			"-duration", "60s", "-warmup", "30s", "-seed", "1"}},
		{"fig4_gmpdist_telemetry.golden", []string{
			"-scenario", "fig4", "-protocol", "gmp-dist",
			"-duration", "60s", "-warmup", "30s", "-seed", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, runToFile(t, tc.args, "-telemetry"))
		})
	}
}

// TestSpanGolden pins the span JSONL export byte-for-byte through the
// CLI: the causal-trace schema and its determinism are part of the
// contract traceq and gmpd rely on. The fig4 cases sample so sparsely
// that no packet is traced: they pin the rate-limit provenance of both
// GMP runtimes.
func TestSpanGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fig2_gmp_spans.golden", []string{
			"-scenario", "fig2", "-protocol", "gmp",
			"-duration", "20s", "-warmup", "10s", "-seed", "1",
			"-span-sample", "256"}},
		{"fig4_gmp_spans.golden", []string{
			"-scenario", "fig4", "-protocol", "gmp",
			"-duration", "60s", "-warmup", "30s", "-seed", "1",
			"-span-sample", "1000000"}},
		{"fig4_gmpdist_spans.golden", []string{
			"-scenario", "fig4", "-protocol", "gmp-dist",
			"-duration", "60s", "-warmup", "30s", "-seed", "1",
			"-span-sample", "1000000"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, runToFile(t, tc.args, "-span"))
		})
	}
}

// runToFile runs the CLI with outFlag pointing at a temporary file and
// returns what the run wrote there.
func runToFile(t *testing.T, args []string, outFlag string) []byte {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "out.jsonl")
	var buf bytes.Buffer
	if err := run(append(args, outFlag, tmp), &buf); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update after intended changes):\n got: %q\nwant: %q",
			path, got, want)
	}
}

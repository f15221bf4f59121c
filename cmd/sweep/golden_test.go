package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenCSV pins the sweep's byte-exact CSV, run through the
// parallel executor: worker scheduling must not leak into the output,
// and the underlying simulations must stay bit-deterministic. The fault
// cases cover the recovery columns per run and aggregated, alone and
// before the churn columns.
func TestGoldenCSV(t *testing.T) {
	fault := []string{"-seeds", "2", "-duration", "48s", "-warmup", "12s", "-parallel", "4"}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig3_beta_parallel.golden", []string{
			"-scenario", "fig3", "-protocol", "gmp",
			"-param", "beta", "-values", "0.05,0.10",
			"-seeds", "2", "-duration", "30s", "-parallel", "4",
		}},
		{"grid23_crash_ci.golden", append([]string{
			"-scenario", "grid23", "-param", "crash", "-node", "1", "-values", "0,0.5", "-ci",
		}, fault...)},
		{"fig3_crash_churn_ci.golden", append([]string{
			"-scenario", "fig3", "-param", "crash", "-node", "1", "-values", "0,0.5",
			"-churn", "poisson", "-admit", "40", "-ci",
		}, fault...)},
		{"fig3_link_loss.golden", append([]string{
			"-scenario", "fig3", "-param", "link-loss", "-from", "1", "-to", "2", "-values", "0.4",
		}, fault...)},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("CSV differs from %s (re-run with -update after intended changes):\n got: %q\nwant: %q",
					path, buf.String(), want)
			}
		})
	}
}

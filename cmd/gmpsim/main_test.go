package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestBuildScenario(t *testing.T) {
	for _, name := range []string{"fig1", "fig2", "fig2w", "fig3", "fig4", "chain", "mesh", "random", "city"} {
		sc, err := buildScenario(name, 10, 2, 3, 3, 4, 4, 200, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sc.Positions) == 0 || len(sc.Flows) == 0 {
			t.Errorf("%s: empty scenario", name)
		}
	}
	if _, err := buildScenario("bogus", 0, 0, 0, 0, 0, 0, 0, 0); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Exercise the full CLI path, including scenario save + load.
	dir := t.TempDir()
	file := filepath.Join(dir, "sc.json")
	if err := run([]string{"-scenario", "fig3", "-save-scenario", file}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario-file", file, "-protocol", "802.11",
		"-duration", "2s", "-warmup", "1s", "-json"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-protocol", "bogus"}, io.Discard); err == nil {
		t.Error("bad protocol accepted")
	}
	if err := run([]string{"-scenario", "bogus"}, io.Discard); err == nil {
		t.Error("bad scenario accepted")
	}
	if err := run([]string{"-scenario-file", "/does/not/exist"}, io.Discard); err == nil {
		t.Error("missing scenario file accepted")
	}
}

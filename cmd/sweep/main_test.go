package main

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestSweepProducesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "fig3", "-protocol", "802.11",
		"-param", "queue", "-values", "5,10",
		"-seeds", "2", "-duration", "4s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 2 values x 2 seeds.
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,protocol,param,value,seed") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "fig3,802.11,queue,") {
			t.Errorf("row = %q", l)
		}
	}
}

func TestSweepWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/out.csv"
	err := run([]string{
		"-scenario", "fig3", "-protocol", "802.11",
		"-param", "loss", "-values", "0",
		"-seeds", "1", "-duration", "2s", "-out", path,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	args := func(parallel string) []string {
		return []string{
			"-scenario", "fig3", "-protocol", "gmp",
			"-param", "beta", "-values", "0.1,0.2",
			"-seeds", "2", "-duration", "8s", "-parallel", parallel,
		}
	}
	var serial, parallel bytes.Buffer
	if err := run(args("1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(args("8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel sweep CSV differs from serial:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
}

func TestSweepAggregatedCI(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "fig3", "-protocol", "802.11",
		"-param", "queue", "-values", "5,10",
		"-seeds", "3", "-duration", "4s", "-ci",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + one aggregated row per value.
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,protocol,param,value,seeds,i_mm,i_mm_ci95") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 13 {
			t.Fatalf("row has %d fields, want 13: %q", len(fields), l)
		}
		if fields[4] != "3" {
			t.Errorf("seeds column = %q, want 3", fields[4])
		}
	}

	// A relay crash: the baseline (value 0) runs fault-free and keeps
	// every flow alive; the crash starves <0,3> during the outage, so
	// the faulted maxmin floor cannot exceed the baseline's.
	buf.Reset()
	err = run([]string{
		"-scenario", "fig3", "-param", "crash", "-node", "1", "-values", "0,0.5",
		"-seeds", "2", "-duration", "48s", "-warmup", "12s", "-ci",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][13] != "recovered_frac" || len(rows[0]) != 16 {
		t.Fatalf("crash sweep: %v", rows)
	}
	for _, row := range rows[1:] {
		if frac, err := strconv.ParseFloat(row[13], 64); err != nil || frac < 0 || frac > 1 {
			t.Errorf("recovered_frac %q", row[13])
		}
	}
	base, err := strconv.ParseFloat(rows[1][11], 64)
	if err != nil || base <= 0 {
		t.Fatalf("baseline min rate %q", rows[1][11])
	}
	if faulted, err := strconv.ParseFloat(rows[2][11], 64); err != nil || faulted > base {
		t.Errorf("min rate under a crash %q, baseline %.2f", rows[2][11], base)
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-scenario", "bogus"},
		{"-protocol", "bogus"},
		{"-param", "bogus", "-duration", "2s"},
		{"-values", "abc"},
		{"-seeds", "0"},
		{"-parallel", "-1"},
		{"-param", "crash", "-values", "2"},
		{"-param", "crash", "-values", "x"},
		{"-duration", "10s", "-warmup", "20s"},
		{"-param", "beta", "-values", "0"},
		{"-param", "period_s", "-values", "0"},
		{"-param", "additive", "-values", "0"},
		{"-param", "omega", "-values", "0"},
		{"-param", "queue", "-values", "0"},
		{"-param", "queue", "-values", "2.7"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

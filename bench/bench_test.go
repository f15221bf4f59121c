package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// quick runs a workload with 2 s sessions, one timed round and few
// samples.
func quick(t *testing.T, w workload, trace bool) report {
	t.Helper()
	kernelRuns = 1
	rep, err := runWorkload(w, options{
		seed:         1,
		budget:       time.Nanosecond,
		trace:        trace,
		session:      2 * time.Second,
		setupSamples: 3,
		buildSamples: 3,
		outDir:       t.TempDir(),
		log:          io.Discard,
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s (trace %v): %d of %d calls failed", w.name, trace, rep.failed, rep.attempted)
	}
	return rep
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			specs := endToEndSpecs
			if trace {
				specs = perLayerSpecs()
			}
			rep := quick(t, w, trace)
			line, err := resultLine(rep, specs)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var out resultJSON
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Metrics) != len(specs) || !out.Correct {
				t.Errorf("%s: %d metrics for %d specs, correct %v", w.name, len(out.Metrics), len(specs), out.Correct)
			}
			for name := range out.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: bad metric name %q", w.name, name)
				}
			}
			// The race detector's C frames carry no Go stack, so only
			// ask that the profile was read and attributed at all.
			if trace && w.name == "city2k-80211" {
				if n, f := rep.metrics["trace.samples"], rep.metrics["trace.attributed_frac"]; n == 0 || f == 0 {
					t.Errorf("city2k-80211 profile: %v samples, %v attributed", n, f)
				}
			}
		}
	}
}

func TestDigestCheckCatchesPerturbation(t *testing.T) {
	w, err := findWorkload("fig4-gmp")
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := w.sessions(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{w: w, opts: options{log: io.Discard}, refs: map[string]string{}}
	res, _, ok := h.call("s", sessions[0], true)
	if !ok {
		t.Fatal("first call failed")
	}
	if _, _, ok := h.call("s", sessions[0], true); !ok {
		t.Fatal("identical rerun failed the digest check")
	}

	perturbations := map[string]func(){
		"rate":      func() { res.Flows[0].Rate = math.Nextafter(res.Flows[0].Rate, math.Inf(1)) },
		"retries":   func() { res.MAC[0].Retries++ },
		"reference": func() { res.Reference[0] = math.Nextafter(res.Reference[0], 0) },
	}
	for name, perturb := range perturbations {
		perturb()
		h.refs["s"] = digest(res)
		if _, _, ok := h.call("s", sessions[0], true); ok {
			t.Errorf("a perturbed %s did not trip the digest check", name)
		}
	}
	if h.failed != len(perturbations) {
		t.Errorf("%d failures counted, want %d", h.failed, len(perturbations))
	}

	res.Rates[0] = math.NaN()
	if invariantError(res, true) == nil {
		t.Error("a NaN rate passed the invariant check")
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json equal to the code's workloads
// and metric specs, and within the format's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: listed %+v, defined %q", i, w, workloads[i].name)
		}
	}
	check := func(kind string, listed, defined []metricSpec) {
		if len(listed) != len(defined) {
			t.Errorf("%s: %d listed, %d defined", kind, len(listed), len(defined))
			return
		}
		for i, s := range listed {
			d := defined[i]
			if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound != d.Bound {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, s, d)
			}
			if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, s)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndSpecs)
	check("per_layer", spec.PerLayer, perLayerSpecs())
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(spec.PerLayer))
	}
}

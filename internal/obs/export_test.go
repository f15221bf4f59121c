package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// sampleTelemetry builds a small synthetic telemetry through the
// recorder, the same way a run does.
func sampleTelemetry(t *testing.T) *Telemetry {
	t.Helper()
	now := time.Duration(0)
	r := NewRecorder(3, 2, time.Second, func() time.Duration { return now })

	now = time.Second
	r.HopForwarded(0, 0, 3*time.Millisecond)
	r.MACService(0, 0, time.Millisecond)
	r.MACRetry(1, 0)
	r.Delivered(0, 8*time.Millisecond)
	r.PacketDropped(1, 1)
	r.AddSample(Sample{At: now, Queues: []int{1, 0, 2}, Limits: []float64{-1, 40}})
	r.Condition(0, 1, CondBandwidth, true, 0.9)
	r.LimitChange(0, ActionReduce, -1, 36)
	now = 2 * time.Second
	r.AddSample(Sample{At: now, Queues: []int{0, 0, 0}, Limits: []float64{36, 40}})
	r.Condition(0, 0, CondRateLimit, false, 1.1)
	r.LimitChange(0, ActionProbe, 36, 40)

	return r.Finalize("test", "GMP", []AdmissionEvent{
		{At: time.Second, Flow: 1, Admitted: true},
		{At: 2 * time.Second, Flow: 1, Reason: "shed"},
	})
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	tel := sampleTelemetry(t)
	var buf bytes.Buffer
	if err := tel.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	counts, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL rejected WriteJSONL output: %v\n%s", err, buf.String())
	}
	want := map[string]int{
		"meta": 1, "flow": 2, "node": 3, "sample": 2, "condition": 2, "limit": 2, "admission": 2,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("record count %q = %d, want %d", k, counts[k], n)
		}
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tel.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated WriteJSONL produced different bytes")
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	meta := `{"type":"meta","scenario":"s","protocol":"p","flows":1,"nodes":2,"sample_interval_ns":1,"bucket_bounds_ns":[1000]}`
	cases := []struct {
		name string
		doc  string
	}{
		{"no meta", `{"type":"condition","at_ns":1,"flow":0,"node":0,"cond":"source","reduce":true,"factor":0.9}`},
		{"duplicate meta", meta + "\n" + meta},
		{"unknown type", meta + "\n" + `{"type":"mystery"}`},
		{"unknown field", meta + "\n" + `{"type":"limit","at_ns":1,"flow":0,"action":"reduce","before":1,"after":0.9,"extra":1}`},
		{"unknown condition", meta + "\n" + `{"type":"condition","at_ns":1,"flow":0,"node":0,"cond":"gremlins","reduce":true,"factor":0.9}`},
		{"unknown action", meta + "\n" + `{"type":"limit","at_ns":1,"flow":0,"action":"explode","before":1,"after":0.9}`},
		{"bucket mismatch", meta + "\n" + `{"type":"flow","flow":0,"latency":{"counts":[1],"count":1,"sum_ns":1,"min_ns":1,"max_ns":1},"retries":0,"delivered":1}`},
		{"queue length", meta + "\n" + `{"type":"sample","at_ns":1,"queues":[0],"links":null,"limits":[-1]}`},
		{"limits length", meta + "\n" + `{"type":"sample","at_ns":1,"queues":[0,0],"links":null,"limits":[]}`},
		{"sample before meta", `{"type":"sample","at_ns":1,"queues":[0],"links":null,"limits":[]}`},
		{"not json", "pigeon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ValidateJSONL(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("ValidateJSONL accepted %s", tc.name)
			}
		})
	}

	// The minimal valid document is just the meta line.
	if _, err := ValidateJSONL(strings.NewReader(meta)); err != nil {
		t.Errorf("ValidateJSONL rejected minimal document: %v", err)
	}
}

func TestWriteSamplesCSV(t *testing.T) {
	tel := sampleTelemetry(t)
	var buf bytes.Buffer
	if err := tel.WriteSamplesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 samples:\n%s", len(lines), buf.String())
	}
	if lines[0] != "at_s,queue_n0,queue_n1,queue_n2,limit_f0,limit_f1" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1.000,1,0,2,-1.000,40.000" {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestSummarize(t *testing.T) {
	tel := sampleTelemetry(t)
	s := tel.Summarize()
	if s.Scenario != "test" || s.Protocol != "GMP" {
		t.Errorf("meta = %q/%q", s.Scenario, s.Protocol)
	}
	if s.Samples != 2 || s.Conditions != 2 || s.Admitted != 1 || s.Rejected != 1 {
		t.Errorf("samples/conditions/admitted/rejected = %d/%d/%d/%d, want 2/2/1/1",
			s.Samples, s.Conditions, s.Admitted, s.Rejected)
	}
	if len(s.Flows) != 2 {
		t.Fatalf("flow summaries = %d, want 2", len(s.Flows))
	}
	f0 := s.Flows[0]
	if f0.Delivered != 1 || f0.Bottleneck != "bandwidth" || f0.LimitChanges != 2 {
		t.Errorf("flow 0 summary = %+v", f0)
	}
	if f0.Conditions != [4]int64{0, 0, 1, 1} {
		t.Errorf("flow 0 conditions = %v", f0.Conditions)
	}
	if f1 := s.Flows[1]; f1.Bottleneck != "" || f1.LimitChanges != 0 {
		t.Errorf("flow 1 summary = %+v", f1)
	}
}

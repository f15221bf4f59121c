package obs

import (
	"slices"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/topology"
)

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Microsecond) // bucket 0 (<= 1ms)
	h.Observe(1 * time.Millisecond)   // bucket 0 (bounds are inclusive)
	h.Observe(3 * time.Millisecond)   // bucket 2 (<= 5ms)
	h.Observe(2 * time.Minute)        // overflow bucket

	if h.Count != 4 {
		t.Fatalf("Count = %d, want 4", h.Count)
	}
	if got := h.Counts[0]; got != 2 {
		t.Errorf("Counts[0] = %d, want 2", got)
	}
	if got := h.Counts[2]; got != 1 {
		t.Errorf("Counts[2] = %d, want 1", got)
	}
	if got := h.Counts[len(h.Counts)-1]; got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if h.Min != 500*time.Microsecond || h.Max != 2*time.Minute {
		t.Errorf("Min/Max = %v/%v", h.Min, h.Max)
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 3*time.Millisecond + 2*time.Minute
	if h.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum, wantSum)
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	var empty Histogram
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zero mean/quantile")
	}

	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Millisecond) // bucket 2: bound 5ms
	}
	for i := 0; i < 10; i++ {
		h.Observe(300 * time.Millisecond) // bucket 8: bound 500ms
	}
	if got := h.Quantile(0.5); got != 5*time.Millisecond {
		t.Errorf("p50 = %v, want 5ms (bucket upper bound)", got)
	}
	if got := h.Quantile(0.99); got != 500*time.Millisecond {
		t.Errorf("p99 = %v, want 500ms", got)
	}
	wantMean := (90*3*time.Millisecond + 10*300*time.Millisecond) / 100
	if got := h.Mean(); got != wantMean {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}

	// Observations beyond the last bound: quantile falls back to Max.
	o := NewHistogram()
	o.Observe(2 * time.Minute)
	if got := o.Quantile(0.99); got != 2*time.Minute {
		t.Errorf("overflow quantile = %v, want Max", got)
	}
}

// TestNilRecorderSafe pins the disabled-state contract: every method of
// a nil *Recorder is a no-op, so producers may call hooks without their
// own nil gate (they add one anyway, to skip argument evaluation).
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.HopForwarded(0, 0, time.Millisecond)
	r.MACService(0, 0, time.Millisecond)
	r.MACRetry(0, 0)
	r.Delivered(0, time.Millisecond)
	r.PacketDropped(0, 0)
	r.AddSample(Sample{})
	r.Condition(0, 0, CondBandwidth, true, 0.9)
	r.LimitChange(0, ActionReduce, 10, 9)
	if got := r.SampleInterval(); got != 0 {
		t.Errorf("nil SampleInterval = %v, want 0", got)
	}
	if got := r.Finalize("x", "y", nil); got != nil {
		t.Errorf("nil Finalize = %v, want nil", got)
	}
}

// TestFinalizeCanonicalOrder checks that condition events recorded in a
// map-iteration-dependent order come out of Finalize in the canonical
// (At, Flow, Node, Cond, Reduce, Factor) order.
func TestFinalizeCanonicalOrder(t *testing.T) {
	now := time.Duration(0)
	r := NewRecorder(3, 3, time.Second, func() time.Duration { return now })

	now = 2 * time.Second
	r.Condition(2, 1, CondBandwidth, true, 0.9)
	r.Condition(0, 1, CondBandwidth, true, 0.9)
	r.Condition(1, 0, CondSource, true, 0.8)
	now = time.Second
	// Recorded later but timestamped... no: the recorder stamps its own
	// clock, so this event is at t=1s and must sort first.
	r.Condition(2, 2, CondBuffer, false, 1.1)

	tel := r.Finalize("s", "p", nil)
	want := []ConditionEvent{
		{At: time.Second, Flow: 2, Node: 2, Cond: CondBuffer, Reduce: false, Factor: 1.1},
		{At: 2 * time.Second, Flow: 0, Node: 1, Cond: CondBandwidth, Reduce: true, Factor: 0.9},
		{At: 2 * time.Second, Flow: 1, Node: 0, Cond: CondSource, Reduce: true, Factor: 0.8},
		{At: 2 * time.Second, Flow: 2, Node: 1, Cond: CondBandwidth, Reduce: true, Factor: 0.9},
	}
	if len(tel.Conditions) != len(want) {
		t.Fatalf("got %d events, want %d", len(tel.Conditions), len(want))
	}
	for i, ev := range tel.Conditions {
		if ev != want[i] {
			t.Errorf("Conditions[%d] = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestFlowConditionCountsAndBottleneck(t *testing.T) {
	now := time.Duration(0)
	r := NewRecorder(3, 2, time.Second, func() time.Duration { return now })
	now = time.Second
	r.Condition(0, 1, CondBandwidth, true, 0.9)
	now = 2 * time.Second
	r.Condition(0, 0, CondSource, true, 0.8)
	r.Condition(0, 0, CondRateLimit, false, 1.1)
	tel := r.Finalize("s", "p", nil)

	counts := tel.FlowConditionCounts(0)
	if counts != [4]int64{1, 0, 1, 1} {
		t.Errorf("counts = %v, want [1 0 1 1]", counts)
	}
	if got := tel.FinalBottleneck(0); got != CondSource {
		t.Errorf("FinalBottleneck(0) = %v, want source (last reducing event)", got)
	}
	if got := tel.FinalBottleneck(1); got != 0 {
		t.Errorf("FinalBottleneck(1) = %v, want 0 (never reduced)", got)
	}
}

// TestLinkUtils converts one meter reading: current links first in
// dense link-index order, then pairs that are no longer links by
// (From, To), with zero entries left out.
func TestLinkUtils(t *testing.T) {
	// Node 3 is out of everyone's range: no pair with it is a link.
	topo, err := topology.New(
		[]geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 1000, Y: 0}},
		topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if topo.LinkIndex(0, 3) >= 0 || topo.LinkIndex(0, 1) >= topo.LinkIndex(1, 0) {
		t.Fatal("test topology does not have the assumed links")
	}
	air := map[topology.Link]time.Duration{
		{From: 3, To: 0}: 100 * time.Millisecond,
		{From: 1, To: 0}: 500 * time.Millisecond,
		{From: 0, To: 3}: 200 * time.Millisecond,
		{From: 0, To: 1}: 250 * time.Millisecond,
		{From: 2, To: 1}: 0,
	}
	got := LinkUtils(topo, air, time.Second)
	want := []LinkUtil{
		{From: 0, To: 1, Util: 0.25},
		{From: 1, To: 0, Util: 0.5},
		{From: 0, To: 3, Util: 0.2},
		{From: 3, To: 0, Util: 0.1},
	}
	if !slices.Equal(got, want) {
		t.Errorf("LinkUtils = %v, want %v", got, want)
	}
	if got := LinkUtils(topo, nil, time.Second); got != nil {
		t.Errorf("LinkUtils of no airtime = %v, want nil", got)
	}
}

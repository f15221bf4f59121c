package faults

import (
	"strings"
	"testing"
	"time"

	"gmp/internal/routing"
	"gmp/internal/sim"
)

func TestKindStringParseRoundTrip(t *testing.T) {
	kinds := []Kind{NodeDown, NodeUp, LinkDegrade, LinkRestore, NodeDegrade, NodeRestore}
	for _, k := range kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("node-explodes"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
	if s := Kind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind String = %q", s)
	}
}

func TestEventValidate(t *testing.T) {
	const n = 4
	good := []Event{
		{At: time.Second, Kind: NodeDown, Node: 2},
		{At: 0, Kind: NodeUp, Node: 0},
		{At: time.Minute, Kind: LinkDegrade, From: 0, To: 3, LossProb: 0.5},
		{At: time.Minute, Kind: LinkRestore, From: 3, To: 0},
		{At: time.Second, Kind: NodeDegrade, Node: 1, LossProb: 0.99},
		{At: time.Second, Kind: NodeRestore, Node: 1},
	}
	for i, e := range good {
		if err := e.Validate(n); err != nil {
			t.Errorf("good event %d rejected: %v", i, err)
		}
	}
	bad := []Event{
		{At: -time.Second, Kind: NodeDown, Node: 1},                        // negative time
		{At: 0, Kind: NodeDown, Node: 4},                                   // node out of range
		{At: 0, Kind: NodeDown, Node: -1},                                  // node out of range
		{At: 0, Kind: NodeDown, Node: 1, To: 2},                            // stray link field
		{At: 0, Kind: NodeDown, Node: 1, LossProb: 0.5},                    // stray loss
		{At: 0, Kind: LinkDegrade, From: 0, To: 4, LossProb: 0.5},          // link out of range
		{At: 0, Kind: LinkDegrade, From: 2, To: 2, LossProb: 0.5},          // self-link
		{At: 0, Kind: LinkDegrade, From: 0, To: 1},                         // missing loss
		{At: 0, Kind: LinkDegrade, From: 0, To: 1, LossProb: 1},            // loss out of (0,1)
		{At: 0, Kind: LinkDegrade, From: 0, To: 1, Node: 2, LossProb: 0.5}, // stray node
		{At: 0, Kind: NodeDegrade, Node: 1},                                // missing loss
		{At: 0, Kind: NodeRestore, Node: 1, LossProb: 0.5},                 // restore carries loss
		{At: 0, Kind: Kind(0), Node: 1},                                    // zero kind
		{At: 0, Kind: Kind(7)},                                             // unknown kind
	}
	for i, e := range bad {
		if err := e.Validate(n); err == nil {
			t.Errorf("bad event %d accepted: %+v", i, e)
		}
	}
}

func TestValidateScheduleChurnSequencing(t *testing.T) {
	const n = 3
	ok := []Event{
		{At: 2 * time.Second, Kind: NodeUp, Node: 1},
		{At: time.Second, Kind: NodeDown, Node: 1}, // order in the slice is irrelevant
		{At: 3 * time.Second, Kind: NodeDown, Node: 1},
	}
	if err := ValidateSchedule(ok, n); err != nil {
		t.Errorf("valid down/up/down schedule rejected: %v", err)
	}
	if err := ValidateSchedule([]Event{
		{At: time.Second, Kind: NodeDown, Node: 1},
		{At: 2 * time.Second, Kind: NodeDown, Node: 1},
	}, n); err == nil {
		t.Error("double crash accepted")
	}
	if err := ValidateSchedule([]Event{
		{At: time.Second, Kind: NodeUp, Node: 1},
	}, n); err == nil {
		t.Error("revive of a live node accepted")
	}
	// Same-instant events keep slice order: down then up at t=1 is legal...
	if err := ValidateSchedule([]Event{
		{At: time.Second, Kind: NodeDown, Node: 1},
		{At: time.Second, Kind: NodeUp, Node: 1},
	}, n); err != nil {
		t.Errorf("same-instant down/up rejected: %v", err)
	}
	// ...and up then down at t=1 is not.
	if err := ValidateSchedule([]Event{
		{At: time.Second, Kind: NodeUp, Node: 1},
		{At: time.Second, Kind: NodeDown, Node: 1},
	}, n); err == nil {
		t.Error("same-instant up-before-down accepted")
	}
}

func TestStartRejectsBadSchedule(t *testing.T) {
	sched := sim.NewScheduler()
	_, err := Start(sched, 3, []Event{{At: 0, Kind: NodeUp, Node: 1}}, Hooks{})
	if err == nil {
		t.Fatal("Start accepted an invalid schedule")
	}
}

// TestEngineAppliesScheduleInOrder drives a loss-only schedule (needing
// only the Medium hook) through a real scheduler and checks timing,
// bookkeeping, and the medium's resulting loss state.
func TestEngineAppliesScheduleInOrder(t *testing.T) {
	topo := newTestTopo(t)
	sched := sim.NewScheduler()
	medium := newTestMedium(sched, topo)
	events := []Event{
		{At: 4 * time.Second, Kind: LinkRestore, From: 0, To: 1},
		{At: 2 * time.Second, Kind: LinkDegrade, From: 0, To: 1, LossProb: 0.5},
		{At: 6 * time.Second, Kind: NodeDegrade, Node: 2, LossProb: 0.25},
	}
	eng, err := Start(sched, topo.NumNodes(), events, Hooks{Medium: medium})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Schedule(); got[0].Kind != LinkDegrade || got[2].Kind != NodeDegrade {
		t.Errorf("Schedule not sorted: %+v", got)
	}

	sched.Run(time.Second)
	if eng.Applied() != 0 {
		t.Fatal("event fired early")
	}
	sched.Run(3 * time.Second)
	if eng.Applied() != 1 || eng.LastFaultTime() != 2*time.Second {
		t.Errorf("after 3s: applied=%d last=%v", eng.Applied(), eng.LastFaultTime())
	}
	sched.Run(10 * time.Second)
	if eng.Applied() != 3 || eng.LastFaultTime() != 6*time.Second {
		t.Errorf("after 10s: applied=%d last=%v", eng.Applied(), eng.LastFaultTime())
	}
	if eng.DownNodes() != nil {
		t.Errorf("loss faults marked nodes down: %v", eng.DownNodes())
	}
}

// TestEngineChurnTracksDownSetAndRebuilds crashes and revives nodes
// via a full stack (medium, MAC, forwarding) and checks the down set,
// the medium gating, and that every churn event reroutes with the
// correct down set. The hook installs the table itself, as the session
// does.
func TestEngineChurnTracksDownSetAndRebuilds(t *testing.T) {
	topo := newTestTopo(t)
	sched := sim.NewScheduler()
	medium := newTestMedium(sched, topo)
	stations, nodes := newTestStack(t, sched, topo, medium)

	var rebuilds [][]bool
	reroute := func(down []bool) {
		rebuilds = append(rebuilds, append([]bool(nil), down...))
		table := routing.BuildExcluding(topo, down)
		for _, n := range nodes {
			n.ResetNeighborState()
			n.SetRoutes(table)
		}
	}
	events := []Event{
		{At: 1 * time.Second, Kind: NodeDown, Node: 1},
		{At: 2 * time.Second, Kind: NodeDown, Node: 2},
		{At: 3 * time.Second, Kind: NodeUp, Node: 1},
	}
	eng, err := Start(sched, topo.NumNodes(), events, Hooks{
		Medium: medium, Stations: stations, Nodes: nodes, Reroute: reroute,
	})
	if err != nil {
		t.Fatal(err)
	}

	sched.Run(1500 * time.Millisecond)
	if !eng.Down(1) || eng.Down(2) {
		t.Fatalf("down set after first crash: %v", eng.DownNodes())
	}
	if !medium.NodeDown(1) || !stations[1].Down() {
		t.Error("crash did not propagate to medium and MAC")
	}

	sched.Run(2500 * time.Millisecond)
	got := eng.DownNodes()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("DownNodes = %v, want [1 2]", got)
	}

	sched.Run(10 * time.Second)
	if eng.Down(1) || !eng.Down(2) {
		t.Fatalf("down set after revive: %v", eng.DownNodes())
	}
	if medium.NodeDown(1) || stations[1].Down() {
		t.Error("revive did not propagate to medium and MAC")
	}

	want := [][]bool{
		{false, true, false, false},
		{false, true, true, false},
		{false, false, true, false},
	}
	if len(rebuilds) != len(want) {
		t.Fatalf("%d rebuilds, want %d", len(rebuilds), len(want))
	}
	for i := range want {
		for n := range want[i] {
			if rebuilds[i][n] != want[i][n] {
				t.Errorf("rebuild %d down set %v, want %v", i, rebuilds[i], want[i])
			}
		}
	}
}

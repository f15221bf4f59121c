package admission

import (
	"math"
	"testing"

	"gmp/internal/clique"
	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// chain builds a 4-node 200m chain: one clique holding all 3 links.
func chain(t *testing.T) (*topology.Topology, *clique.Set) {
	t.Helper()
	topo, err := topology.New([]geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo, clique.Build(topo)
}

func pathLinks(n int) []topology.Link {
	links := make([]topology.Link, n)
	for i := 0; i < n; i++ {
		links[i] = topology.Link{From: topology.NodeID(i), To: topology.NodeID(i + 1)}
	}
	return links
}

func TestParamsValidate(t *testing.T) {
	good := Params{MinShare: 50, Headroom: 0.9, ShedAfter: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for name, p := range map[string]Params{
		"zero min share":     {MinShare: 0, Headroom: 1},
		"negative min share": {MinShare: -5, Headroom: 1},
		"headroom above 1":   {MinShare: 50, Headroom: 1.5},
		"negative shed":      {MinShare: 50, Headroom: 1, ShedAfter: -1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
	d := Params{MinShare: 50}.WithDefaults()
	if d.Headroom != 1 || d.ShedAfter != DefaultShedAfter {
		t.Fatalf("WithDefaults gave %+v", d)
	}
}

func TestAdmitUntilBudgetThenReject(t *testing.T) {
	_, set := chain(t)
	// Capacity 1000 pkt/s, min share 100: the single clique sees 3
	// crossings per end-to-end flow, so each flow books 300 and the 4th
	// flow (booked 900 → 1200) must be refused.
	ctrl := NewController(Params{MinShare: 100}, set, 1000)
	for i := 0; i < 3; i++ {
		if r := ctrl.Admit(packet.FlowID(i), 1, pathLinks(3)); r != 0 {
			t.Fatalf("flow %d rejected with %v, want admitted", i, r)
		}
	}
	if r := ctrl.Admit(4, 1, pathLinks(3)); r != CliqueOverload {
		t.Fatalf("4th flow got %v, want CliqueOverload", r)
	}
	if n := ctrl.NumFlows(); n != 3 {
		t.Fatalf("NumFlows = %d, want 3", n)
	}
	// A single-hop flow crosses the clique once: 900+100 = 1000 fits.
	if r := ctrl.Admit(5, 1, pathLinks(1)); r != 0 {
		t.Fatalf("single-hop flow got %v, want admitted", r)
	}
}

func TestReleaseFreesBudget(t *testing.T) {
	_, set := chain(t)
	ctrl := NewController(Params{MinShare: 100}, set, 1000)
	for i := 0; i < 3; i++ {
		if r := ctrl.Admit(packet.FlowID(i), 1, pathLinks(3)); r != 0 {
			t.Fatalf("flow %d rejected: %v", i, r)
		}
	}
	if r := ctrl.Admit(3, 1, pathLinks(3)); r != CliqueOverload {
		t.Fatalf("overload not detected: %v", r)
	}
	ctrl.Release(1)
	if r := ctrl.Admit(3, 1, pathLinks(3)); r != 0 {
		t.Fatalf("after release flow got %v, want admitted", r)
	}
	ctrl.Release(99) // unknown id is a no-op
	// Releasing everything should empty the books entirely.
	for _, id := range []packet.FlowID{0, 2, 3} {
		ctrl.Release(id)
	}
	if n := ctrl.NumFlows(); n != 0 {
		t.Fatalf("NumFlows = %d after releasing all, want 0", n)
	}
	q := set.All()[0].ID
	if b := ctrl.Booked(q); b != 0 {
		t.Fatalf("clique still books %v after releasing all", b)
	}
}

func TestWeightAndHeadroom(t *testing.T) {
	_, set := chain(t)
	// Headroom 0.5 halves the budget to 500; one weight-2 3-hop flow
	// books 600 and must be refused even on an empty controller.
	ctrl := NewController(Params{MinShare: 100, Headroom: 0.5}, set, 1000)
	if r := ctrl.Admit(0, 2, pathLinks(3)); r != CliqueOverload {
		t.Fatalf("weight-2 flow got %v, want CliqueOverload", r)
	}
	if r := ctrl.Admit(0, 1, pathLinks(2)); r != 0 {
		t.Fatalf("2-hop weight-1 flow got %v, want admitted", r)
	}
}

func TestBookGrandfathersWithoutTest(t *testing.T) {
	_, set := chain(t)
	ctrl := NewController(Params{MinShare: 1000}, set, 100)
	// Book skips the test even though this load could never be admitted.
	ctrl.Book(0, 1, pathLinks(3))
	if n := ctrl.NumFlows(); n != 1 {
		t.Fatalf("NumFlows = %d, want 1", n)
	}
	if r := ctrl.Admit(1, 1, pathLinks(1)); r != CliqueOverload {
		t.Fatalf("arrival against grandfathered overload got %v, want CliqueOverload", r)
	}
}

func TestNewestCrossing(t *testing.T) {
	_, set := chain(t)
	ctrl := NewController(Params{MinShare: 1}, set, 1e9)
	q := set.All()[0].ID
	ctrl.Book(0, 1, pathLinks(3)) // static, below minID
	if r := ctrl.Admit(10, 1, pathLinks(3)); r != 0 {
		t.Fatal(r)
	}
	if r := ctrl.Admit(11, 1, pathLinks(1)); r != 0 {
		t.Fatal(r)
	}
	id, ok := ctrl.NewestCrossing(q, 10)
	if !ok || id != 11 {
		t.Fatalf("NewestCrossing = %v,%v, want 11,true", id, ok)
	}
	ctrl.Release(11)
	id, ok = ctrl.NewestCrossing(q, 10)
	if !ok || id != 10 {
		t.Fatalf("after release NewestCrossing = %v,%v, want 10,true", id, ok)
	}
	ctrl.Release(10)
	if _, ok := ctrl.NewestCrossing(q, 10); ok {
		t.Fatal("NewestCrossing found a victim among grandfathered flows")
	}
}

func TestSetCliquesRebooks(t *testing.T) {
	topo, set := chain(t)
	ctrl := NewController(Params{MinShare: 100}, set, 1000)
	if r := ctrl.Admit(0, 1, pathLinks(3)); r != 0 {
		t.Fatal(r)
	}
	before := ctrl.Booked(set.All()[0].ID)
	if before != 3 {
		t.Fatalf("booked %v, want 3", before)
	}
	// Re-decompose over the same topology: bookings must be identical.
	fresh := clique.Build(topo)
	ctrl.SetCliques(fresh)
	if after := ctrl.Booked(fresh.All()[0].ID); after != before {
		t.Fatalf("re-booked %v, want %v", after, before)
	}
}

// TestSetCliquesRebooksDeterministically pins the rebooking order: with
// weights whose sums round (not dyadic, as a user-set churn weight may
// be), every rebook against the same cliques gives bit-identical
// bookings, equal to adding each flow's weight once per path link in
// each of that link's cliques, flows in admission order.
func TestSetCliquesRebooksDeterministically(t *testing.T) {
	_, set := chain(t)
	ctrl := NewController(Params{MinShare: 1}, set, 1000)
	want := make(map[clique.ID]float64)
	for i := 0; i < 40; i++ {
		w := 0.1 + 0.01*float64(i) + 1.0/3
		links := pathLinks(1 + i%3)
		ctrl.Book(packet.FlowID(i), w, links)
		for _, l := range links {
			for _, q := range set.Of(l) {
				want[q.ID] += w
			}
		}
	}
	for call := 0; call < 200; call++ {
		ctrl.SetCliques(set)
		for _, q := range set.All() {
			got := ctrl.Booked(q.ID)
			if math.Float64bits(got) != math.Float64bits(want[q.ID]) {
				t.Fatalf("rebook %d: Booked(%v) = %v (%#x), want %v (%#x)",
					call, q.ID, got, math.Float64bits(got), want[q.ID], math.Float64bits(want[q.ID]))
			}
		}
	}
}

func TestWatchdogStreaks(t *testing.T) {
	wd := NewWatchdog(3)
	a := clique.ID{Owner: 1, Seq: 0}
	b := clique.ID{Owner: 2, Seq: 0}
	if fired := wd.Observe([]clique.ID{a, b}); len(fired) != 0 {
		t.Fatalf("fired after 1 period: %v", fired)
	}
	if fired := wd.Observe([]clique.ID{a}); len(fired) != 0 {
		t.Fatalf("fired after 2 periods: %v", fired)
	}
	// b's streak reset by its absence above; only a reaches 3.
	fired := wd.Observe([]clique.ID{a, b})
	if len(fired) != 1 || fired[0] != a {
		t.Fatalf("fired = %v, want [%v]", fired, a)
	}
	// a's streak was reset on firing: two more periods to fire again,
	// while b (streak 1 after the reset above) reaches 3 first.
	if fired := wd.Observe([]clique.ID{a, b}); len(fired) != 0 {
		t.Fatalf("refired too soon: %v", fired)
	}
	fired = wd.Observe([]clique.ID{a, b})
	if len(fired) != 1 || fired[0] != b {
		t.Fatalf("fired = %v, want [%v]", fired, b)
	}
	fired = wd.Observe([]clique.ID{a, b})
	if len(fired) != 1 || fired[0] != a {
		t.Fatalf("fired = %v, want [%v]", fired, a)
	}
}

func TestWatchdogFiredSorted(t *testing.T) {
	wd := NewWatchdog(1)
	in := []clique.ID{{Owner: 3, Seq: 1}, {Owner: 1, Seq: 2}, {Owner: 1, Seq: 0}}
	fired := wd.Observe(in)
	want := []clique.ID{{Owner: 1, Seq: 0}, {Owner: 1, Seq: 2}, {Owner: 3, Seq: 1}}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

package radio

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/topology"
)

// moveNode relocates node n through the medium's topology-change
// protocol, as a mobility epoch does.
func moveNode(t *testing.T, h *harness, n topology.NodeID, to geom.Point) {
	t.Helper()
	h.medium.BeginTopologyChange()
	diff, err := h.medium.topo.MoveNodes([]topology.NodeID{n}, []geom.Point{to})
	if err != nil {
		t.Fatal(err)
	}
	h.medium.EndTopologyChange(diff.OldLinks)
}

// lostOf sends n frames 0→1 and returns how many node 1 received
// corrupted.
func lostOf(h *harness, n int) int {
	before := len(h.nodes[1].oks)
	start := h.sched.Now()
	for i := 0; i < n; i++ {
		h.sched.At(start+time.Duration(i)*10*time.Millisecond, func() { h.medium.Transmit(0, dataFrame(0, 1), nil) })
	}
	h.sched.Run(start + time.Duration(n+1)*10*time.Millisecond)
	lost := 0
	for _, ok := range h.nodes[1].oks[before:] {
		if !ok {
			lost++
		}
	}
	return lost
}

// TestLinkLossSurvivesMotion sets loss on 0→1, walks node 1 out of
// range and back, and expects the loss to still apply; loss cleared
// while the pair is out of range stays cleared when it returns.
func TestLinkLossSurvivesMotion(t *testing.T) {
	near, far := geom.Point{X: 200}, geom.Point{X: 1000}
	h := newHarness(t, []geom.Point{{X: 0}, near})
	h.medium.SetLinkLoss(0, 1, 0.9)

	moveNode(t, h, 1, far)
	if h.medium.topo.LinkIndex(0, 1) >= 0 {
		t.Fatal("0→1 is still a link after node 1 moved away")
	}
	if got := h.medium.lossAt(0, 1); got != 0.9 {
		t.Errorf("out of range: lossAt(0,1) = %v, want 0.9", got)
	}
	moveNode(t, h, 1, near)
	const n = 100
	if lost := lostOf(h, n); lost < n/2 {
		t.Errorf("after moving back, node 1 lost %d/%d frames on a 0.9-loss link", lost, n)
	}

	moveNode(t, h, 1, far)
	h.medium.SetLinkLoss(0, 1, 0)
	moveNode(t, h, 1, near)
	if got := h.medium.lossAt(0, 1); got != 0 {
		t.Errorf("loss cleared out of range: lossAt(0,1) = %v, want 0", got)
	}
	if len(h.medium.linkLoss) != 0 {
		t.Errorf("cleared loss left entries %v", h.medium.linkLoss)
	}
	if lost := lostOf(h, n); lost != 0 {
		t.Errorf("node 1 lost %d/%d frames after the loss was cleared", lost, n)
	}
}

// TestAirtimeMetersUnderMotion reads two meters on different cadences
// while the 0→1 pair vanishes and reappears: each reports every
// frame's airtime exactly once, including frames on the pair while it
// is not a link.
func TestAirtimeMetersUnderMotion(t *testing.T) {
	near, far := geom.Point{X: 200}, geom.Point{X: 1000}
	h := newHarness(t, []geom.Point{{X: 0}, near})
	fast, slow := h.medium.NewAirtimeMeter(), h.medium.NewAirtimeMeter()
	l := topology.Link{From: 0, To: 1}
	air := h.medium.Airtime(dataFrame(0, 1))
	send := func() {
		h.medium.Transmit(0, dataFrame(0, 1), nil)
		h.sched.Run(h.sched.Now() + time.Second)
	}
	expect := func(name string, got map[topology.Link]time.Duration, frames int) {
		t.Helper()
		if frames == 0 {
			if len(got) != 0 {
				t.Errorf("%s: Take = %v, want nothing", name, got)
			}
			return
		}
		if got[l] != time.Duration(frames)*air || len(got) != 1 {
			t.Errorf("%s: Take = %v, want %d frames (%v) on 0→1", name, got, frames, time.Duration(frames)*air)
		}
	}

	send()
	expect("fast, link up", fast.Take(), 1)
	send()
	moveNode(t, h, 1, far)
	expect("fast, pair vanished before the Take", fast.Take(), 1)
	// The MAC may still air frames of an exchange whose ends parted.
	send()
	expect("fast, pair out of range", fast.Take(), 1)
	expect("slow, three frames across the vanish", slow.Take(), 3)

	moveNode(t, h, 1, near)
	expect("fast, pair back, nothing new", fast.Take(), 0)
	send()
	expect("fast, pair back", fast.Take(), 1)
	expect("slow, pair back", slow.Take(), 1)
	expect("fast, drained", fast.Take(), 0)
	expect("slow, drained", slow.Take(), 0)

	// A meter made now starts from now.
	late := h.medium.NewAirtimeMeter()
	expect("late meter, before any frame", late.Take(), 0)
	send()
	expect("late meter", late.Take(), 1)
}

// TestAirtimeLedgerBounded checks the far-pair pruning against an
// unbounded model ledger: two meters read on random cadences while two
// nodes walk in and out of range and frames air on pairs in and out of
// range. Every Take must equal the model's delta for that meter, no far
// pair that every meter has read may remain, and a meter remembers only
// current links and unread far pairs.
func TestAirtimeLedgerBounded(t *testing.T) {
	type spot struct{ near, far geom.Point }
	walkers := map[topology.NodeID]spot{
		1: {geom.Point{X: 200}, geom.Point{X: 1000}},
		2: {geom.Point{Y: 200}, geom.Point{Y: 1200}},
	}
	pairs := []topology.Link{{From: 0, To: 1}, {From: 1, To: 0}, {From: 0, To: 2}, {From: 2, To: 0}, {From: 1, To: 2}}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, []geom.Point{{}, walkers[1].near, walkers[2].near})
		m := h.medium
		meters := []*AirtimeMeter{m.NewAirtimeMeter(), m.NewAirtimeMeter()}
		cadence := []float64{0.5, 0.1}
		total := make(map[topology.Link]time.Duration) // every frame since the start
		seen := []map[topology.Link]time.Duration{{}, {}}
		take := func(i int) {
			t.Helper()
			want := make(map[topology.Link]time.Duration)
			for l, tot := range total {
				if d := tot - seen[i][l]; d != 0 {
					want[l] = d
					seen[i][l] = tot
				}
			}
			if got := meters[i].Take(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: meter %d Take = %v, want %v", seed, i, got, want)
			}
		}
		for step := 0; step < 400; step++ {
			switch r := rng.Float64(); {
			case r < 0.15:
				n := topology.NodeID(1 + rng.Intn(2))
				to := walkers[n].near
				if rng.Intn(2) == 0 {
					to = walkers[n].far
				}
				moveNode(t, h, n, to)
			default:
				l := pairs[rng.Intn(len(pairs))]
				f := dataFrame(l.From, l.To)
				total[l] += m.Airtime(f)
				m.Transmit(l.From, f, nil)
				h.sched.Run(h.sched.Now() + time.Second)
			}
			for i := range meters {
				if rng.Float64() < cadence[i] {
					take(i)
				}
			}
			for l, tot := range m.airtimeFar {
				if meters[0].seen[l] == tot && meters[1].seen[l] == tot {
					t.Fatalf("seed %d step %d: far pair %v kept after every meter read %v", seed, step, l, tot)
				}
			}
			for i, a := range meters {
				for l := range a.seen {
					if _, far := m.airtimeFar[l]; !far && m.topo.LinkIndex(l.From, l.To) < 0 {
						t.Fatalf("seed %d step %d: meter %d remembers %v, neither a link nor an unread far pair", seed, step, i, l)
					}
				}
			}
		}
		take(0)
		take(1)
		if len(m.airtimeFar) != 0 {
			t.Fatalf("seed %d: far pairs %v kept after both meters read them", seed, m.airtimeFar)
		}
	}
}

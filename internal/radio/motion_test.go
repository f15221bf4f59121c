package radio

import (
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

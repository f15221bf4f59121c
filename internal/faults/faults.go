// Package faults is the fault-injection and network-dynamics subsystem:
// a deterministic fault-schedule engine driven by the simulation clock.
//
// The paper (§2.1) assumes a static network, so GMP's convergence is
// only ever exercised from a clean start. This package perturbs a run
// mid-flight with three fault families and lets experiments measure how
// the protocol re-converges:
//
//   - Node churn: NodeDown crashes a node (its MAC halts, its queued
//     packets drop, the medium delivers nothing to it) and NodeUp
//     revives it with clean state.
//   - Loss episodes: LinkDegrade/LinkRestore and NodeDegrade/NodeRestore
//     open and close scheduled windows of extra injected loss on one
//     directed link or at one receiver, generalizing the radio's global
//     LossProb.
//   - Route repair: every churn event is a topology-change epoch — the
//     engine hands the current down set to the Reroute hook, which
//     routes around it and installs the new table on every node, so
//     flows reroute mid-run.
//
// The engine draws no randomness of its own: a given schedule applied
// to a given seed yields a byte-identical run. Schedules are plain
// []Event values, carried in gmp.Config and in scenario JSON files.
package faults

import (
	"fmt"
	"sort"
	"time"

	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/mac"
	"gmp/internal/radio"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// Kind enumerates the fault event types.
type Kind int

// Fault kinds. Down/Degrade open a fault; Up/Restore close it.
const (
	NodeDown    Kind = iota + 1 // crash a node
	NodeUp                      // revive a crashed node
	LinkDegrade                 // add loss probability on one directed link
	LinkRestore                 // clear that link's extra loss
	NodeDegrade                 // add loss probability at one receiver
	NodeRestore                 // clear that receiver's extra loss
)

// String returns the canonical schedule-file name of the kind.
func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	case NodeDegrade:
		return "node-degrade"
	case NodeRestore:
		return "node-restore"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String, for schedule files.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "node-down":
		return NodeDown, nil
	case "node-up":
		return NodeUp, nil
	case "link-degrade":
		return LinkDegrade, nil
	case "link-restore":
		return LinkRestore, nil
	case "node-degrade":
		return NodeDegrade, nil
	case "node-restore":
		return NodeRestore, nil
	default:
		return 0, fmt.Errorf("faults: unknown event kind %q", s)
	}
}

// Event is one scheduled fault. Which fields are meaningful depends on
// Kind: Node for the four node events, From/To for the two link events,
// LossProb for the two degrade events. Irrelevant fields must be zero.
type Event struct {
	// At is the virtual time the fault fires.
	At time.Duration
	// Kind selects the fault type.
	Kind Kind
	// Node is the affected node (NodeDown/NodeUp/NodeDegrade/NodeRestore).
	Node topology.NodeID
	// From, To name the directed link (LinkDegrade/LinkRestore).
	From, To topology.NodeID
	// LossProb is the injected loss probability in (0,1) for
	// LinkDegrade/NodeDegrade, composing independently with the global
	// LossProb and each other.
	LossProb float64
}

// usesNode reports whether the kind addresses a single node.
func (k Kind) usesNode() bool {
	return k == NodeDown || k == NodeUp || k == NodeDegrade || k == NodeRestore
}

// usesLink reports whether the kind addresses a directed link.
func (k Kind) usesLink() bool { return k == LinkDegrade || k == LinkRestore }

// usesLoss reports whether the kind carries a loss probability.
func (k Kind) usesLoss() bool { return k == LinkDegrade || k == NodeDegrade }

// Validate checks a single event against a network of numNodes nodes.
func (e Event) Validate(numNodes int) error {
	if e.At < 0 {
		return fmt.Errorf("faults: event at negative time %v", e.At)
	}
	switch {
	case e.Kind.usesNode():
		if e.Node < 0 || int(e.Node) >= numNodes {
			return fmt.Errorf("faults: %s node %d outside [0,%d)", e.Kind, e.Node, numNodes)
		}
		if e.From != 0 || e.To != 0 {
			return fmt.Errorf("faults: %s carries link endpoints", e.Kind)
		}
	case e.Kind.usesLink():
		if e.From < 0 || int(e.From) >= numNodes || e.To < 0 || int(e.To) >= numNodes {
			return fmt.Errorf("faults: %s link (%d,%d) outside [0,%d)", e.Kind, e.From, e.To, numNodes)
		}
		if e.From == e.To {
			return fmt.Errorf("faults: %s link from node %d to itself", e.Kind, e.From)
		}
		if e.Node != 0 {
			return fmt.Errorf("faults: %s carries a node", e.Kind)
		}
	default:
		return fmt.Errorf("faults: invalid kind %d", int(e.Kind))
	}
	if e.Kind.usesLoss() {
		if !(e.LossProb > 0 && e.LossProb < 1) {
			return fmt.Errorf("faults: %s loss probability %v outside (0,1)", e.Kind, e.LossProb)
		}
	} else if e.LossProb != 0 {
		return fmt.Errorf("faults: %s carries a loss probability", e.Kind)
	}
	return nil
}

// ValidateSchedule checks every event and the churn sequencing: sorted
// by time, a node must alternate NodeDown/NodeUp (crashing a crashed
// node or reviving a live one is a schedule bug, not a tolerated no-op).
func ValidateSchedule(events []Event, numNodes int) error {
	for i, e := range events {
		if err := e.Validate(numNodes); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	down := make(map[topology.NodeID]bool)
	for _, e := range sortedByTime(events) {
		switch e.Kind {
		case NodeDown:
			if down[e.Node] {
				return fmt.Errorf("faults: node %d crashed twice (second at %v)", e.Node, e.At)
			}
			down[e.Node] = true
		case NodeUp:
			if !down[e.Node] {
				return fmt.Errorf("faults: node %d revived while up (at %v)", e.Node, e.At)
			}
			down[e.Node] = false
		}
	}
	return nil
}

// sortedByTime returns a copy of events stably sorted by At, so
// same-instant events keep their schedule order.
func sortedByTime(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Hooks are the engine's handles into the simulation layers it
// perturbs. All slices are indexed by node ID except Sources (one per
// flow, in flow-ID order). Reroute repairs the routes around the given
// down set and installs them on every node; the engine calls it after
// each churn event.
type Hooks struct {
	Medium   *radio.Medium
	Stations []*mac.Station
	Nodes    []*forwarding.Node
	Sources  []*flow.Source
	Reroute  func(down []bool)
}

// Engine applies a fault schedule to a running simulation. Create it
// with Start before sched.Run; all work happens in scheduled callbacks
// on the simulation goroutine.
type Engine struct {
	sched *sim.Scheduler
	hooks Hooks
	down  []bool

	lastFault time.Duration
	applied   int
	schedule  []Event
}

// Start validates the schedule, registers every event with the
// scheduler, and returns the engine. numNodes is the network size the
// events are checked against.
func Start(sched *sim.Scheduler, numNodes int, events []Event, hooks Hooks) (*Engine, error) {
	if err := ValidateSchedule(events, numNodes); err != nil {
		return nil, err
	}
	e := &Engine{
		sched:    sched,
		hooks:    hooks,
		down:     make([]bool, numNodes),
		schedule: sortedByTime(events),
	}
	for _, ev := range e.schedule {
		ev := ev
		sched.At(ev.At, func() { e.apply(ev) })
	}
	return e, nil
}

// Schedule returns the engine's events, sorted by time.
func (e *Engine) Schedule() []Event { return append([]Event(nil), e.schedule...) }

// Down reports whether node n is currently crashed.
func (e *Engine) Down(n topology.NodeID) bool { return e.down[n] }

// DownNodes returns the currently crashed nodes in ascending order
// (nil when none — the common case allocates nothing).
func (e *Engine) DownNodes() []topology.NodeID {
	var out []topology.NodeID
	for n, d := range e.down {
		if d {
			out = append(out, topology.NodeID(n))
		}
	}
	return out
}

// DownSet returns a copy of the per-node crashed flags, indexed by
// NodeID. It is the composition point for mobility route repair: routes
// rebuilt on a motion epoch must still exclude crashed nodes.
func (e *Engine) DownSet() []bool { return append([]bool(nil), e.down...) }

// LastFaultTime returns the virtual time of the last fault applied so
// far (0 if none yet). After a run it anchors recovery-time analysis.
func (e *Engine) LastFaultTime() time.Duration { return e.lastFault }

// Applied returns how many events have fired.
func (e *Engine) Applied() int { return e.applied }

func (e *Engine) apply(ev Event) {
	e.lastFault = e.sched.Now()
	e.applied++
	switch ev.Kind {
	case NodeDown:
		e.crash(ev.Node)
	case NodeUp:
		e.revive(ev.Node)
	case LinkDegrade:
		e.hooks.Medium.SetLinkLoss(ev.From, ev.To, ev.LossProb)
	case LinkRestore:
		e.hooks.Medium.SetLinkLoss(ev.From, ev.To, 0)
	case NodeDegrade:
		e.hooks.Medium.SetNodeLoss(ev.Node, ev.LossProb)
	case NodeRestore:
		e.hooks.Medium.SetNodeLoss(ev.Node, 0)
	}
}

// crash takes node n down. Order matters: sources halt first so the
// queue-open waiters fired by the buffer purge cannot regenerate
// packets at a dead node; the MAC goes down next (handing any in-flight
// packet back, where it lands in a queue the purge then empties); the
// medium stops deliveries; finally routes recompute around the hole.
func (e *Engine) crash(n topology.NodeID) {
	if e.down[n] {
		return
	}
	e.down[n] = true
	for _, src := range e.hooks.Sources {
		if src != nil && src.Spec().Src == n {
			src.SetHalted(true)
		}
	}
	e.hooks.Stations[n].SetDown(true)
	e.hooks.Nodes[n].DropAll(forwarding.DropNodeDown)
	e.hooks.Medium.SetNodeDown(n, true)
	e.epoch()
}

// revive brings node n back with clean state and re-runs route repair
// so traffic may shift back onto it.
func (e *Engine) revive(n topology.NodeID) {
	if !e.down[n] {
		return
	}
	e.down[n] = false
	e.hooks.Medium.SetNodeDown(n, false)
	e.hooks.Stations[n].SetDown(false)
	for _, src := range e.hooks.Sources {
		if src != nil && src.Spec().Src == n {
			src.SetHalted(false)
		}
	}
	e.epoch()
}

// epoch is the topology-change notification: reroute around the
// current down set.
func (e *Engine) epoch() {
	if e.hooks.Reroute != nil {
		e.hooks.Reroute(e.down)
	}
}

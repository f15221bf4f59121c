// Package trace provides an optional event recorder for simulations: a
// bounded ring of channel-level events (frame transmissions and their
// outcomes) that tools can dump for debugging protocol behavior, in the
// spirit of ns-2 trace files.
package trace

import (
	"fmt"
	"io"
	"time"

	"gmp/internal/topology"
)

// Kind classifies a recorded event.
type Kind int

// Event kinds.
const (
	KindTransmit Kind = iota + 1 // frame put on the air
	KindDeliver                  // frame decoded at a node
	KindCorrupt                  // frame corrupted at a node
	KindDrop                     // packet dropped by the network layer
)

// String names the kind in the trace output.
func (k Kind) String() string {
	switch k {
	case KindTransmit:
		return "tx"
	case KindDeliver:
		return "rx"
	case KindCorrupt:
		return "col"
	case KindDrop:
		return "drop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node is where the event happened (transmitter or receiver).
	Node topology.NodeID
	// Peer is the other end (intended receiver for tx, transmitter for
	// rx/col), or -1.
	Peer topology.NodeID
	// Detail is a short free-form description (frame kind, packet
	// identity, drop reason).
	Detail string
}

// String renders one trace line.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-4s n%-3d peer %-3d %s",
		e.At, e.Kind, e.Node, e.Peer, e.Detail)
}

// ParseKind maps a trace output name back to its Kind. The empty string
// parses to 0, which Filter treats as "any kind".
func ParseKind(s string) (Kind, error) {
	switch s {
	case "":
		return 0, nil
	case "tx":
		return KindTransmit, nil
	case "rx":
		return KindDeliver, nil
	case "col":
		return KindCorrupt, nil
	case "drop":
		return KindDrop, nil
	default:
		return 0, fmt.Errorf("trace: unknown event kind %q (want tx|rx|col|drop)", s)
	}
}

// Filter returns the events involving node with the given kind, oldest
// order preserved. node < 0 matches any node; otherwise an event matches
// when the node is either endpoint (Node or Peer). kind 0 matches any
// kind. The input slice is never modified.
func Filter(events []Event, node topology.NodeID, kind Kind) []Event {
	if node < 0 && kind == 0 {
		return events
	}
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if node >= 0 && e.Node != node && e.Peer != node {
			continue
		}
		if kind != 0 && e.Kind != kind {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Filtered returns the ring's held events restricted by Filter's rules,
// oldest first. It walks the ring in place and allocates only once a
// matching event is found, so a miss costs nothing — callers can probe
// large rings for rare events (a node's drops, say) on a hot path.
func (r *Ring) Filtered(node topology.NodeID, kind Kind) []Event {
	n := r.Len()
	start := 0
	if r.full {
		start = r.next
	}
	var out []Event
	for i := 0; i < n; i++ {
		e := &r.events[(start+i)%len(r.events)]
		if node >= 0 && e.Node != node && e.Peer != node {
			continue
		}
		if kind != 0 && e.Kind != kind {
			continue
		}
		if out == nil {
			out = make([]Event, 0, n-i)
		}
		out = append(out, *e)
	}
	return out
}

// Ring is a bounded in-memory event recorder. The zero value is unusable;
// construct with NewRing. It keeps the most recent Cap events.
type Ring struct {
	events []Event
	next   int
	full   bool
}

// NewRing builds a recorder holding the most recent capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: non-positive capacity %d", capacity))
	}
	return &Ring{events: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full. A nil ring
// records nothing.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.full = true
	}
}

// Len reports how many events are held.
func (r *Ring) Len() int {
	if r.full {
		return len(r.events)
	}
	return r.next
}

// Events returns the held events, oldest first.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Dump writes the held events, one per line, oldest first.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

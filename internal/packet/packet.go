// Package packet defines the data units and piggybacked control fields
// shared by the MAC, forwarding, and protocol layers.
package packet

import (
	"fmt"
	"time"

	"gmp/internal/topology"
)

// FlowID identifies an end-to-end flow. IDs are dense, starting at zero.
type FlowID int

// Packet is one network-layer data packet traveling along a flow's route.
// A packet is created once at the flow source and the same value travels
// hop by hop (the simulator never copies payload bytes).
type Packet struct {
	// Flow identifies the end-to-end flow the packet belongs to.
	Flow FlowID
	// Src is the flow's source node; Dst is the flow's final destination.
	Src topology.NodeID
	Dst topology.NodeID
	// Seq is the per-flow sequence number, starting at zero.
	Seq int64
	// SizeBytes is the payload length (the paper uses 1024-byte packets).
	SizeBytes int
	// Weight is the flow's weight, carried so relays can normalize rates.
	Weight float64
	// NormRate is the flow's normalized end-to-end rate (packets per
	// second per unit weight) stamped by the source. Per §6.2, sources
	// measure rates during the first half of a measurement period and
	// stamp packets during the second half; Stamped marks validity.
	NormRate float64
	Stamped  bool
	// Created is the virtual time the source generated the packet.
	Created time.Duration
}

// String renders a compact identity for tracing.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{f%d %d->%d #%d}", p.Flow, p.Src, p.Dst, p.Seq)
}

// QueueID names one packet queue at a node. Under GMP's per-destination
// queueing a queue is identified by the destination node; under 2PP's
// per-flow queueing by the flow; under plain 802.11 all packets share
// queue 0. The interpretation is uniform network-wide for a given run.
type QueueID int64

// QueueForDest returns the QueueID for per-destination queueing.
func QueueForDest(dest topology.NodeID) QueueID { return QueueID(dest) }

// QueueForFlow returns the QueueID for per-flow queueing.
func QueueForFlow(flow FlowID) QueueID { return QueueID(flow) }

// SharedQueue is the single QueueID used when all traffic shares one FIFO.
const SharedQueue QueueID = 0

// QueueState is a piggybacked buffer-state advertisement: whether the
// sender's queue identified by Queue currently has at least one free slot
// (§2.2: "one bit to indicate whether there is at least one free buffer
// slot"). Every frame a node transmits carries its current states so that
// upstream neighbors can overhear them.
type QueueState struct {
	Queue QueueID
	Free  bool
}

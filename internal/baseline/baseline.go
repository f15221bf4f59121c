// Package baseline implements the two comparison protocols of §7.2:
//
//   - Plain IEEE 802.11: no rate control, one shared FIFO per node with
//     tail overwrite on overflow. Realized entirely by forwarding-layer
//     configuration; this package provides that configuration.
//
//   - 2PP, the two-phase protocol of ref [11] (Li, ICDCS'05): per-flow
//     queueing, a conservative "basic fair share" guaranteed to every
//     flow, and the remaining bandwidth allocated to maximize aggregate
//     throughput, which biases it heavily toward short flows. [11]'s
//     exact linear program is not public; this package reproduces its two
//     documented properties with a clique-capacity basic share plus a
//     short-flow-first greedy fill (see DESIGN.md, substitution 4).
package baseline

import (
	"fmt"
	"sort"

	"gmp/internal/clique"
	"gmp/internal/forwarding"
	"gmp/internal/maxminref"
	"gmp/internal/routing"
	"gmp/internal/topology"
)

// Plain80211Forwarding returns the forwarding configuration of the plain
// 802.11 baseline: one shared FIFO holding queueSlots packets and no
// congestion avoidance, so an arrival at a full queue overwrites the
// tail and a packet past the retry limit is dropped.
func Plain80211Forwarding(queueSlots int) forwarding.Config {
	return forwarding.Config{Mode: forwarding.Shared, QueueSlots: queueSlots}
}

// TwoPPForwarding returns the forwarding configuration of 2PP: one queue
// per flow holding queueSlots packets (10 in §7.2), with backpressure so
// the precomputed allocation is not eroded by drops.
func TwoPPForwarding(queueSlots int) forwarding.Config {
	fc := forwarding.DefaultConfig()
	fc.Mode, fc.QueueSlots = forwarding.PerFlow, queueSlots
	return fc
}

// TwoPPAllocation computes 2PP's per-flow rates in two phases.
//
// Phase 1 (basic fair share): every clique's capacity is divided equally
// among the flows crossing it, and a flow crossing a clique with n links
// of its path can sustain only 1/n of its clique share end-to-end, so
// bs_f = min over cliques Q of C_Q / (N_Q · n_f(Q)) with N_Q the number
// of crossing flows. This matches [11]'s conservative guarantee — it can
// be far below the maxmin rate (§1, §7.2), especially for multihop flows.
//
// Phase 2 (throughput maximization): the residual capacity is handed out
// greedily to flows in ascending order of resource cost (total clique
// crossings, i.e. short flows first), each flow taking as much as its
// path's tightest clique allows. This reproduces the strong short-flow
// bias of [11]'s linear program.
func TwoPPAllocation(flows []maxminref.FlowSpec, routes *routing.Table, cliques *clique.Set, capacity func(*clique.Clique) float64) ([]float64, error) {
	problem, err := maxminref.BuildProblem(flows, routes, cliques, capacity)
	if err != nil {
		return nil, err
	}
	n := len(flows)
	if n == 0 {
		return nil, nil
	}

	// Phase 1: basic fair share.
	rates := make([]float64, n)
	for f := 0; f < n; f++ {
		share := flows[f].Demand
		for q, row := range problem.Usage {
			if row[f] == 0 {
				continue
			}
			crossers := 0.0
			for _, u := range row {
				if u > 0 {
					crossers++
				}
			}
			if s := problem.Capacities[q] / (crossers * row[f]); s < share {
				share = s
			}
		}
		rates[f] = share
	}

	// Current load per clique.
	load := make([]float64, len(problem.Usage))
	for q, row := range problem.Usage {
		for f, u := range row {
			load[q] += u * rates[f]
		}
	}

	// Phase 2: short flows first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	cost := func(f int) float64 {
		c := 0.0
		for _, row := range problem.Usage {
			c += row[f]
		}
		return c
	}
	sort.SliceStable(order, func(i, j int) bool { return cost(order[i]) < cost(order[j]) })

	for _, f := range order {
		extra := flows[f].Demand - rates[f]
		for q, row := range problem.Usage {
			if row[f] == 0 {
				continue
			}
			if room := (problem.Capacities[q] - load[q]) / row[f]; room < extra {
				extra = room
			}
		}
		if extra <= 0 {
			continue
		}
		rates[f] += extra
		for q, row := range problem.Usage {
			load[q] += row[f] * extra
		}
	}

	for f, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("baseline: negative 2PP rate %v for flow %d", r, f)
		}
	}
	return rates, nil
}

// UniformCliqueCapacity returns a capacity function assigning every clique
// the same effective capacity in packets per second (e.g. the estimated
// single-link saturation rate from radio.Params.SaturationRate).
func UniformCliqueCapacity(pps float64) func(*clique.Clique) float64 {
	return func(*clique.Clique) float64 { return pps }
}

// PathCost returns the number of links of the flow's path, for reporting.
func PathCost(routes *routing.Table, src, dst topology.NodeID) int {
	return routes.HopCount(src, dst)
}

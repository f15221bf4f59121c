// Package maxminref provides a centralized weighted maxmin reference
// solver: progressive filling ("water-filling") over clique capacity
// constraints. GMP is a distributed protocol that should converge to the
// same allocation; the solver provides the ground truth that tests and
// EXPERIMENTS.md compare against.
package maxminref

import (
	"fmt"
	"math"

	"gmp/internal/clique"
	"gmp/internal/routing"
	"gmp/internal/topology"
)

// Problem is a weighted maxmin allocation instance: maximize rates r_f
// lexicographically in normalized order μ_f = r_f / w_f subject to
// r_f ≤ d_f and, for every constraint q, Σ_f Usage[q][f]·r_f ≤ Cap[q].
type Problem struct {
	Weights    []float64
	Demands    []float64
	Usage      [][]float64 // [constraint][flow]
	Capacities []float64
}

// Validate checks dimensions and signs.
func (p *Problem) Validate() error {
	n := len(p.Weights)
	if len(p.Demands) != n {
		return fmt.Errorf("maxminref: %d weights but %d demands", n, len(p.Demands))
	}
	if len(p.Usage) != len(p.Capacities) {
		return fmt.Errorf("maxminref: %d usage rows but %d capacities", len(p.Usage), len(p.Capacities))
	}
	for i, w := range p.Weights {
		if w <= 0 {
			return fmt.Errorf("maxminref: flow %d has non-positive weight %v", i, w)
		}
		if p.Demands[i] <= 0 {
			return fmt.Errorf("maxminref: flow %d has non-positive demand %v", i, p.Demands[i])
		}
	}
	for q, row := range p.Usage {
		if len(row) != n {
			return fmt.Errorf("maxminref: usage row %d has %d entries, want %d", q, len(row), n)
		}
		if p.Capacities[q] <= 0 {
			return fmt.Errorf("maxminref: constraint %d has non-positive capacity %v", q, p.Capacities[q])
		}
		for f, u := range row {
			if u < 0 {
				return fmt.Errorf("maxminref: usage[%d][%d] negative: %v", q, f, u)
			}
		}
	}
	return nil
}

// Solve runs progressive filling and returns the weighted maxmin rates.
// All unfrozen flows rise at normalized level λ (rate w_f·λ) until a flow
// reaches its demand or a constraint saturates; saturated-constraint
// crossers freeze; repeat.
func (p *Problem) Solve() ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Weights)
	rates := make([]float64, n)
	frozen := make([]bool, n)
	lambda := 0.0

	for remaining := n; remaining > 0; {
		// Next level at which an unfrozen flow caps out on demand.
		next := math.Inf(1)
		for f := 0; f < n; f++ {
			if !frozen[f] {
				if lf := p.Demands[f] / p.Weights[f]; lf < next {
					next = lf
				}
			}
		}
		// Next level at which a constraint saturates.
		for q, row := range p.Usage {
			frozenLoad, slope := 0.0, 0.0
			for f := 0; f < n; f++ {
				if row[f] == 0 {
					continue
				}
				if frozen[f] {
					frozenLoad += row[f] * rates[f]
				} else {
					slope += row[f] * p.Weights[f]
				}
			}
			if slope == 0 {
				continue
			}
			lq := (p.Capacities[q] - frozenLoad) / slope
			if lq < lambda {
				lq = lambda // numerical guard: levels never decrease
			}
			if lq < next {
				next = lq
			}
		}
		if math.IsInf(next, 1) {
			break
		}
		lambda = next

		// Freeze every flow that hit its demand or crosses a now-tight
		// constraint at this level.
		for f := 0; f < n; f++ {
			if frozen[f] {
				continue
			}
			if p.Demands[f]/p.Weights[f] <= lambda+1e-12 {
				rates[f] = p.Demands[f]
				frozen[f] = true
				remaining--
			}
		}
		for q, row := range p.Usage {
			frozenLoad, slope := 0.0, 0.0
			for f := 0; f < n; f++ {
				if row[f] == 0 {
					continue
				}
				if frozen[f] {
					frozenLoad += row[f] * rates[f]
				} else {
					slope += row[f] * p.Weights[f]
				}
			}
			if slope == 0 {
				continue
			}
			if frozenLoad+slope*lambda >= p.Capacities[q]-1e-9 {
				for f := 0; f < n; f++ {
					if !frozen[f] && row[f] > 0 {
						rates[f] = p.Weights[f] * lambda
						frozen[f] = true
						remaining--
					}
				}
			}
		}
	}
	// Any flow never constrained gets its full demand.
	for f := 0; f < n; f++ {
		if !frozen[f] {
			rates[f] = p.Demands[f]
		}
	}
	return rates, nil
}

// FlowSpec is the slice of a flow the builder needs.
type FlowSpec struct {
	Src    topology.NodeID
	Dst    topology.NodeID
	Weight float64
	Demand float64
}

// BuildProblem assembles a Problem from routed flows and the clique
// decomposition. Each clique is one constraint; a flow consumes one unit
// of a clique's capacity per link of its path inside the clique (packet
// transmissions on clique links are serialized, §3.3). capacity gives a
// clique's effective capacity in packets per second.
//
// Only the cliques some path crosses become constraints, in the order of
// cliques.All(). Each row is filled from the cliques of the flows' path
// links (Set.Of), so the cost is O(path links × cliques per link +
// cliques), and cliques need hold only the cliques of those links, such
// as clique.Holding those links.
func BuildProblem(flows []FlowSpec, routes *routing.Table, cliques *clique.Set, capacity func(*clique.Clique) float64) (*Problem, error) {
	p := &Problem{
		Weights: make([]float64, len(flows)),
		Demands: make([]float64, len(flows)),
	}
	rows := make(map[*clique.Clique][]float64)
	for i, f := range flows {
		p.Weights[i] = f.Weight
		p.Demands[i] = f.Demand
		links, err := routes.Links(f.Src, f.Dst)
		if err != nil {
			return nil, fmt.Errorf("maxminref: flow %d: %w", i, err)
		}
		for _, l := range links {
			for _, c := range cliques.Of(l) {
				row := rows[c]
				if row == nil {
					row = make([]float64, len(flows))
					rows[c] = row
				}
				row[i]++
			}
		}
	}
	for _, c := range cliques.All() {
		if row := rows[c]; row != nil {
			p.Usage = append(p.Usage, row)
			p.Capacities = append(p.Capacities, capacity(c))
		}
	}
	return p, nil
}

package scenario

import (
	"fmt"
	"sort"
)

// builders maps the registry names accepted by Named to their
// constructors. Parametric generators are registered at representative
// default sizes; callers needing other sizes construct them directly
// (or, over the gmpd API, submit the full scenario JSON).
var builders = map[string]func() (Scenario, error){
	"fig1":          func() (Scenario, error) { return Fig1(), nil },
	"fig2":          func() (Scenario, error) { return Fig2([4]float64{1, 1, 1, 1}), nil },
	"fig2-weighted": func() (Scenario, error) { return Fig2([4]float64{1, 2, 1, 3}), nil },
	"fig3":          func() (Scenario, error) { return Fig3(), nil },
	"fig4":          func() (Scenario, error) { return Fig4(), nil },
	"chain":         func() (Scenario, error) { return Chain(5, 200) },
	"grid23":        grid23,
	"cross":         func() (Scenario, error) { return Cross(2, 200) },
	"star":          func() (Scenario, error) { return Star(4, 200) },
	"mesh-gateway":  func() (Scenario, error) { return MeshGateway(4, 4, 6, 220, 1) },
	"city":          func() (Scenario, error) { return City(2000, 8, 24, 220, 1) },
	"vehicular":     func() (Scenario, error) { return Vehicular(6, 180, 12) },
	"drones":        func() (Scenario, error) { return DroneSwarm(9, 3, 80) },
}

// grid23 is the 2x3 grid at 200 m with flow 0→2: crashing node 1
// leaves the alternate path 0-3-4-5-2, so a crash exercises route
// repair rather than a partition.
func grid23() (Scenario, error) {
	s, err := Grid(2, 3, 200)
	return s.WithFlows([][3]int{{0, 2, 1}}), err
}

// Named builds the registered scenario with the given name. It is the
// lookup behind gmpd's scenario-by-name job submissions and sweep's
// -scenario.
func Named(name string) (Scenario, error) {
	b, ok := builders[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, Names())
	}
	return b()
}

// Names lists the registry names in sorted order.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package gmp

import (
	"io"

	"gmp/internal/mac"
	"gmp/internal/scenario"
)

// LoadScenario reads a scenario from its JSON representation (see the
// format documented in internal/scenario: nodes as [x,y] meter pairs,
// flows with optional weight/rate/size/start/stop).
func LoadScenario(r io.Reader) (Scenario, error) { return scenario.Load(r) }

// SaveScenario writes a scenario as indented JSON, loadable by
// LoadScenario.
func SaveScenario(w io.Writer, s Scenario) error { return s.Save(w) }

// Fig1Scenario returns Figure 1's two-flow topology demonstrating why
// per-destination queueing is necessary (§5.1). Run it under
// ProtocolBackpressureShared vs ProtocolBackpressure to reproduce the
// isolation effect.
func Fig1Scenario() Scenario { return scenario.Fig1() }

// Fig2Scenario returns Figure 2's six-node topology with unit weights
// (Table 1).
func Fig2Scenario() Scenario { return scenario.Fig2([4]float64{1, 1, 1, 1}) }

// Fig2WeightedScenario returns Figure 2's topology with Table 2's weights
// (1, 2, 1, 3).
func Fig2WeightedScenario() Scenario { return scenario.Fig2([4]float64{1, 2, 1, 3}) }

// Fig2CustomScenario returns Figure 2's topology with caller-chosen
// weights for the four flows.
func Fig2CustomScenario(weights [4]float64) Scenario { return scenario.Fig2(weights) }

// Fig3Scenario returns Figure 3's three-link chain (Table 3).
func Fig3Scenario() Scenario { return scenario.Fig3() }

// Fig4Scenario returns Figure 4's four-cell topology (Table 4).
func Fig4Scenario() Scenario { return scenario.Fig4() }

// ChainScenario returns an n-node chain with one end-to-end flow.
func ChainScenario(n int, spacingMeters float64) (Scenario, error) {
	return scenario.Chain(n, spacingMeters)
}

// GridScenario returns a rows×cols grid with no flows; attach flows with
// Scenario.WithFlows.
func GridScenario(rows, cols int, spacingMeters float64) (Scenario, error) {
	return scenario.Grid(rows, cols, spacingMeters)
}

// MeshGatewayScenario returns a grid mesh with k flows converging on a
// gateway node (the §1 motivation workload).
func MeshGatewayScenario(rows, cols, k int, spacingMeters float64, seed int64) (Scenario, error) {
	return scenario.MeshGateway(rows, cols, k, spacingMeters, seed)
}

// CityScenario returns an n-node city-scale mesh at the given street
// pitch with g gateways and k client flows, each routed to its nearest
// gateway — the scaling workload for the spatial-grid topology pipeline.
func CityScenario(n, g, k int, spacingMeters float64, seed int64) (Scenario, error) {
	return scenario.City(n, g, k, spacingMeters, seed)
}

// RandomScenario returns n nodes placed uniformly (re-sampled until
// connected) with k random flows.
func RandomScenario(n, k int, width, height float64, seed int64) (Scenario, error) {
	return scenario.RandomConnected(n, k, width, height, seed)
}

// mac2Config derives the MAC configuration from the run config.
func mac2Config(cfg Config) mac.Config {
	return mac.Config{UseRTS: !cfg.DisableRTS}
}

// ParallelChainsScenario returns k disjoint chains of n nodes with one
// end-to-end flow each; gap controls whether adjacent chains contend.
func ParallelChainsScenario(k, n int, spacingMeters, gapMeters float64) (Scenario, error) {
	return scenario.ParallelChains(k, n, spacingMeters, gapMeters)
}

// CrossScenario returns two flows crossing at a shared center node.
func CrossScenario(armLen int, spacingMeters float64) (Scenario, error) {
	return scenario.Cross(armLen, spacingMeters)
}

// StarScenario returns k one-hop flows converging on a hub.
func StarScenario(k int, radiusMeters float64) (Scenario, error) {
	return scenario.Star(k, radiusMeters)
}

// VehicularScenario returns n vehicles on a highway chain with a pinned
// roadside unit, moving under random waypoint in a lane-shaped field.
func VehicularScenario(n int, spacingMeters, maxSpeedMPS float64) (Scenario, error) {
	return scenario.Vehicular(n, spacingMeters, maxSpeedMPS)
}

// DroneSwarmScenario returns n drones in cohesive groups around a
// pinned ground station, one telemetry flow per group.
func DroneSwarmScenario(n, groups int, groupRadiusMeters float64) (Scenario, error) {
	return scenario.DroneSwarm(n, groups, groupRadiusMeters)
}

// NamedScenario builds a scenario from the registry by name — the
// lookup behind gmpd's scenario-by-name job submissions and sweep's
// -scenario. ScenarioNames lists the accepted names.
func NamedScenario(name string) (Scenario, error) { return scenario.Named(name) }

// ScenarioNames lists the scenario registry's names in sorted order.
func ScenarioNames() []string { return scenario.Names() }

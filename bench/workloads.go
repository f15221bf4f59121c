package main

import (
	"fmt"
	"time"

	"gmp"
)

// A workload is one fixed network and protocol setup. The workload seed
// picks the simulation seeds of its panel: a round runs the same setup once
// per panel member, each with its own seed. A panel of several sessions
// averages the seed-to-seed variation of the simulated work (frame counts
// differ by ±5 % between single fig4 sessions), so a round does nearly the
// same amount of work whatever the seed.
type workload struct {
	name  string
	why   string
	panel int
	base  func() (gmp.Config, error)
}

// cityMapSeed fixes the city placements. The map is part of the workload
// (it is the "city" entry of the scenario registry): redrawing it per seed
// moves frame counts by ±10 %, which would swamp the timing bounds.
const cityMapSeed = 1

var workloads = []workload{
	{
		name:  "fig4-gmp",
		why:   "paper Table 4 session: 400 s of central GMP on Figure 4; kernel, radio/MAC, GC and the 5.3 engine do all the work",
		panel: 4,
		base: func() (gmp.Config, error) {
			return gmp.Config{Scenario: gmp.Fig4Scenario(), Protocol: gmp.ProtocolGMP}, nil
		},
	},
	{
		name:  "fig4-gmpdist",
		why:   "same session under the paper's section 6 per-node agents with in-band link-state broadcasts; only the runtime differs from fig4-gmp",
		panel: 8, // the agents' ref_gap varies twice as much per seed as fig4-gmp's
		base: func() (gmp.Config, error) {
			return gmp.Config{Scenario: gmp.Fig4Scenario(), Protocol: gmp.ProtocolGMPDistributed, InBandControl: true}, nil
		},
	},
	{
		name:  "city2k-80211",
		why:   "2000-node city under plain 802.11: interference marking over N-bit rows, the scaling anomaly; bypasses core, measure and dissemination",
		panel: 1,
		base: func() (gmp.Config, error) {
			sc, err := gmp.CityScenario(2000, 8, 24, 220, cityMapSeed)
			return gmp.Config{Scenario: sc, Protocol: gmp.Protocol80211, Duration: 15 * time.Second, Warmup: 5 * time.Second}, err
		},
	},
	{
		name:  "city500-dynamic",
		why:   "500-node city with random-walk mobility and Poisson churn under GMP: writes topology, cliques and routes every epoch; churn teardown and admission",
		panel: 4, // a few long churn flows: single sessions' frames differ by 7 % (one standard deviation) per seed
		base: func() (gmp.Config, error) {
			sc, err := gmp.CityScenario(500, 4, 10, 220, cityMapSeed)
			return gmp.Config{
				Scenario: sc,
				Protocol: gmp.ProtocolGMP,
				Duration: 60 * time.Second,
				Warmup:   30 * time.Second,
				// Zero field bounds: the walk stays in the placement's
				// bounding box.
				Mobility: &gmp.MobilityConfig{Model: gmp.MobilityRandomWalk, Epoch: time.Second, MinSpeed: 1, MaxSpeed: 5},
				// The arrival rate and flow sizes cmd/sweep and
				// cmd/faultsweep use; the gateway matrix matches the
				// city's client-to-gateway flows.
				Churn: &gmp.ChurnConfig{
					Process:     gmp.ChurnPoisson,
					Rate:        0.5,
					Matrix:      gmp.ChurnGateway,
					MinSizePkts: 4000,
					MaxSizePkts: 40000,
					Admission:   &gmp.AdmissionParams{MinShare: 25},
				},
			}, err
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
}

// sessionSeed derives panel member m's simulation seed from the workload
// seed with a splitmix64 step, so neighbouring workload seeds give
// unrelated sessions. The result is positive and never 0, which gmp would
// replace by its default seed.
func sessionSeed(seed int64, m int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(m+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// sessions returns the panel's configs for a workload seed. A positive
// session overrides the simulated length (warmup half of it), which the
// self-test uses to stay fast.
func (w workload) sessions(seed int64, session time.Duration) ([]gmp.Config, error) {
	base, err := w.base()
	if err != nil {
		return nil, fmt.Errorf("%s: building scenario: %w", w.name, err)
	}
	if session > 0 {
		base.Duration, base.Warmup = session, session/2
	}
	cfgs := make([]gmp.Config, w.panel)
	for m := range cfgs {
		cfgs[m] = base
		cfgs[m].Seed = sessionSeed(seed, m)
	}
	return cfgs, nil
}

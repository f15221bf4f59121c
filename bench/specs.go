package main

// metricSpec describes one reported metric. BENCHMARK.json at the
// repository root lists the same specs; the self-test keeps the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a value that is a pure function of the simulated work:
	// equal seeds must reproduce it bit for bit, so -repeat-check requires
	// equality rather than the bound.
	exact bool
}

// endToEndSpecs are measured with tracing off. Bound is the share of the
// parent's median by which a metric may worsen before a change counts as
// a regression. ref_gap's bound covers seed-to-seed variation; at one seed
// it must repeat exactly.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "frames_per_s", Unit: "frames/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ref_gap", Unit: "ratio", Better: "lower", Bound: 0.20, exact: true},
}

// tracedModules are the internal/ packages the CPU profile attributes
// self time to; perFrameModules also get a cost per simulated frame.
var (
	tracedModules = []string{
		"sim", "radio", "topology", "mac", "forwarding", "flow", "measure", "core",
		"dissemination", "clique", "routing", "mobility", "churn", "admission", "maxminref",
	}
	perFrameModules = []string{"sim", "radio", "topology", "mac", "forwarding", "runtime"}
)

func exactSpec(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, exact: true}
}

func layerSpec(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

// perLayerSpecs are measured in a run with tracing on.
func perLayerSpecs() []metricSpec {
	specs := []metricSpec{
		// Work counts of one round, summed over the panel.
		exactSpec("radio.frames", "count", "higher"),
		exactSpec("radio.corrupt_frac", "ratio", "lower"),
		exactSpec("radio.control_frames", "count", "lower"),
		exactSpec("mac.data_sent", "count", "higher"),
		exactSpec("mac.rts_sent", "count", "lower"),
		exactSpec("mac.retries", "count", "lower"),
		exactSpec("mac.drops", "count", "lower"),
		exactSpec("mac.ack_ratio", "ratio", "higher"),
		exactSpec("forwarding.drops", "count", "lower"),
		exactSpec("forwarding.overflow_drops", "count", "lower"),
		exactSpec("flow.delivered", "count", "higher"),
		exactSpec("flow.delivery_ratio", "ratio", "higher"),
		exactSpec("core.rounds", "count", "higher"),
		exactSpec("core.requests", "count", "lower"),
		exactSpec("mobility.epochs", "count", "higher"),
		exactSpec("churn.arrivals", "count", "higher"),
		exactSpec("churn.admitted", "count", "higher"),
		exactSpec("churn.shed", "count", "lower"),
		// Fidelity to the water-filling reference, panel means.
		exactSpec("metrics.imm", "ratio", "higher"),
		exactSpec("metrics.ieq", "ratio", "higher"),
		// Go runtime, medians over timed runs.
		layerSpec("runtime.allocs_per_frame", "allocs/frame", "lower"),
		layerSpec("runtime.bytes_per_frame", "B/frame", "lower"),
		layerSpec("runtime.gc_cycles", "count", "lower"),
		layerSpec("runtime.gc_pause_s", "s", "lower"),
		// The host: its speed against the reference host during the timed
		// sessions, and their unscaled host time per session.
		layerSpec("host.speed", "ratio", "higher"),
		layerSpec("host.run_s", "s", "lower"),
		// Build layers, timed directly.
		layerSpec("topology.new_s", "s", "lower"),
		layerSpec("clique.build_s", "s", "lower"),
		exactSpec("clique.count", "count", "lower"),
		layerSpec("routing.build_s", "s", "lower"),
		layerSpec("maxminref.solve_s", "s", "lower"),
		layerSpec("topology.move_s", "s", "lower"),
		layerSpec("clique.update_s", "s", "lower"),
		layerSpec("routing.rebuild_s", "s", "lower"),
	}
	// The profiled round.
	for _, m := range tracedModules {
		specs = append(specs, layerSpec(m+".self_s", "s", "lower"), layerSpec(m+".share", "ratio", "lower"))
	}
	specs = append(specs,
		layerSpec("runtime.malloc_s", "s", "lower"),
		layerSpec("runtime.gc_s", "s", "lower"),
		layerSpec("other.self_s", "s", "lower"),
	)
	for _, m := range perFrameModules {
		specs = append(specs, layerSpec(m+".ns_per_frame", "ns/frame", "lower"))
	}
	return append(specs,
		layerSpec("trace.overhead_frac", "ratio", "lower"),
		layerSpec("trace.attributed_frac", "ratio", "higher"),
		layerSpec("trace.samples", "count", "lower"),
	)
}

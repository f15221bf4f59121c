// Command sweep runs a one-dimensional parameter sweep over repeated
// simulations and writes the results as CSV, ready for plotting. It
// automates the ablation studies listed in DESIGN.md and the fault
// sweeps of the dynamics extension.
//
// The whole value × seed grid executes through the parallel experiment
// runner (gmp.RunMany): -parallel sets the worker count (default all
// CPUs) and results are byte-identical whatever that count is. By
// default the CSV has one row per run; -ci aggregates the seeds of each
// parameter value into one row of mean and Student-t 95% confidence
// half-width columns.
//
// Usage:
//
//	sweep -scenario fig3 -param beta -values 0.05,0.1,0.2 -seeds 5
//	sweep -scenario fig4 -param additive -values 2,4,8 -out fig4_additive.csv
//	sweep -scenario fig3 -param loss -values 0,0.01,0.05 -protocol gmp
//	sweep -scenario fig3 -param beta -values 0.05,0.1 -seeds 16 -ci -parallel 8
//	sweep -scenario fig3 -mobility random-waypoint -param speed -values 1,5,10,20
//	sweep -scenario fig3 -churn poisson -admit 40 -param lambda -values 0.2,0.5,1,2 -ci
//	sweep -scenario grid23 -param crash -node 1 -values 0,0.5,1 -duration 200s -warmup 40s -ci
//	sweep -scenario fig3 -param link-loss -from 1 -to 2 -values 0,0.2,0.4 -ci
//
// Supported parameters: beta, period_s, additive, omega, queue, loss,
// with -mobility set — speed (pins both speed bounds to the value), and
// with -churn set — lambda (the churn arrival rate in flows/s; churn
// runs add admitted/rejected/shed columns and report min_rate over the
// static flows only, since refused arrivals deliver nothing by design).
// gmp.Config runs a zero at the default, so beta, period_s, additive,
// omega and queue must be positive, and queue whole.
//
// The fault axes crash and link-loss take an intensity v in [0,1], 0
// being the fault-free baseline. From the warmup boundary W, crash
// takes -node down for v × (duration − W) / 2, and link-loss drops
// frames on the link -from → -to with probability v (0.99 for v = 1)
// until the middle of the measured window. Their rows add recovery
// columns after min_rate: recovered and recovery_s per run, or under
// -ci recovered_frac and the mean and CI95 of recovery_s over the runs
// that recovered.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"gmp"
	"gmp/internal/prof"
	"gmp/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	pf := prof.Register(fs)
	scenarioName := fs.String("scenario", "fig3", "scenario: "+strings.Join(gmp.ScenarioNames(), "|"))
	protocolName := fs.String("protocol", "gmp", "protocol: gmp|gmp-dist|802.11|2pp|bp|bp-shared")
	param := fs.String("param", "beta", "parameter to sweep: beta|period_s|additive|omega|queue|loss|speed|lambda|crash|link-loss")
	mobModel := fs.String("mobility", "", "move nodes during every run: random-waypoint|random-walk|group")
	churnProc := fs.String("churn", "", "overlay a dynamic flow workload on every run: poisson|diurnal")
	admitShare := fs.Float64("admit", 0, "churn admission control: minimum weighted per-flow share (pkt/s; 0 = admit everything)")
	values := fs.String("values", "0.05,0.10,0.20", "comma-separated parameter values")
	seeds := fs.Int("seeds", 3, "seeds per value")
	duration := fs.Duration("duration", 400*time.Second, "session length")
	warmup := fs.Duration("warmup", 0, "warmup excluded from the rates; fault axes start here (0 = duration/2)")
	node := fs.Int("node", 1, "node to crash (crash parameter)")
	from := fs.Int("from", 1, "degraded link source (link-loss parameter)")
	to := fs.Int("to", 2, "degraded link destination (link-loss parameter)")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = all CPUs, 1 = serial)")
	ci := fs.Bool("ci", false, "aggregate seeds: one row per value with mean and 95% CI columns")
	timeout := fs.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
	out := fs.String("out", "", "CSV output path (default stdout)")
	telemetry := fs.String("telemetry", "", "record per-run telemetry; write one summary JSON line per run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	sc, err := gmp.NamedScenario(*scenarioName)
	if err != nil {
		return err
	}
	protocol, err := gmp.ParseProtocol(*protocolName)
	if err != nil {
		return err
	}
	vals, err := parseValues(*values)
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("need at least one seed")
	}
	if *parallel < 0 {
		return fmt.Errorf("negative parallelism %d", *parallel)
	}
	// The fault axes anchor their schedules at the resolved warmup.
	base := gmp.Config{Scenario: sc, Protocol: protocol, Duration: *duration, Warmup: *warmup}.WithDefaults()

	mob, err := baseMobility(*mobModel)
	if err != nil {
		return err
	}
	if *param == "speed" && mob == nil {
		return fmt.Errorf("the speed parameter needs -mobility")
	}
	ch, err := baseChurn(*churnProc, *admitShare)
	if err != nil {
		return err
	}
	if *param == "lambda" && ch == nil {
		return fmt.Errorf("the lambda parameter needs -churn")
	}
	site := faultSite{node: gmp.NodeID(*node), from: gmp.NodeID(*from), to: gmp.NodeID(*to)}

	// Build the full value × seed grid, checking each config as Run
	// will, then fan it out in one batch so the worker pool stays busy
	// across value boundaries.
	var cfgs []gmp.Config
	for _, v := range vals {
		for seed := 1; seed <= *seeds; seed++ {
			cfg := base
			cfg.Seed = int64(seed)
			if mob != nil {
				m := *mob
				cfg.Mobility = &m
			}
			if ch != nil {
				c := *ch
				if c.Admission != nil {
					a := *c.Admission
					c.Admission = &a
				}
				cfg.Churn = &c
			}
			if err := applyParam(&cfg, *param, v, site); err != nil {
				return err
			}
			if *telemetry != "" {
				cfg.Telemetry = &gmp.TelemetryConfig{}
			}
			if err := cfg.Validate(); err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := gmp.RunMany(context.Background(), cfgs, gmp.RunManyOptions{
		Workers: *parallel,
		Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	if *telemetry != "" {
		if err := writeTelemetrySummaries(*telemetry, *param, vals, *seeds, results); err != nil {
			return err
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "sweep: closing output:", cerr)
			}
		}()
		w = f
	}
	cw := csv.NewWriter(w)
	staticN := 0
	if ch != nil {
		staticN = len(sc.Flows)
	}
	fault := *param == "crash" || *param == "link-loss"
	if *ci {
		err = writeAggregated(cw, *scenarioName, protocol.String(), *param, vals, *seeds, staticN, fault, results)
	} else {
		err = writePerRun(cw, *scenarioName, protocol.String(), *param, vals, *seeds, staticN, fault, results)
	}
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// writeTelemetrySummaries emits one JSON line per run: the sweep grid
// coordinates plus the run's telemetry summary (latency percentiles,
// condition counts, final bottleneck per flow).
func writeTelemetrySummaries(path, param string, vals []float64, seeds int, results []*gmp.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for vi, v := range vals {
		for seed := 1; seed <= seeds; seed++ {
			res := results[vi*seeds+seed-1]
			if res == nil || res.Telemetry == nil {
				continue
			}
			line := struct {
				Param   string               `json:"param"`
				Value   float64              `json:"value"`
				Seed    int                  `json:"seed"`
				Summary gmp.TelemetrySummary `json:"summary"`
			}{param, v, seed, res.Telemetry.Summarize()}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// minRate returns the smallest end-of-run rate that the row should
// report. Static runs take the minimum over every flow; churn runs
// (staticN > 0) take it over the static prefix only — refused or
// departed arrivals deliver nothing by design and would always pin the
// column to zero.
func minRate(res *gmp.Result, staticN int) float64 {
	rates := res.Rates
	if staticN > 0 && staticN <= len(rates) {
		rates = rates[:staticN]
	}
	min := rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
	}
	return min
}

// writePerRun emits the historical one-row-per-run format. Fault axes
// append the recovery columns and churn runs the admission counters.
func writePerRun(cw *csv.Writer, scenario, protocol, param string, vals []float64, seeds, staticN int, fault bool, results []*gmp.Result) error {
	header := []string{"scenario", "protocol", "param", "value", "seed", "i_mm", "i_eq", "u_pps", "min_rate_pps"}
	if fault {
		header = append(header, "recovered", "recovery_s")
	}
	if staticN > 0 {
		header = append(header, "arrivals", "admitted", "rejected", "shed")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for vi, v := range vals {
		for seed := 1; seed <= seeds; seed++ {
			res := results[vi*seeds+seed-1]
			row := []string{
				scenario, protocol, param,
				strconv.FormatFloat(v, 'g', -1, 64),
				strconv.Itoa(seed),
				fmt.Sprintf("%.4f", res.Imm),
				fmt.Sprintf("%.4f", res.Ieq),
				fmt.Sprintf("%.2f", res.U),
				fmt.Sprintf("%.2f", minRate(res, staticN)),
			}
			if fault {
				row = append(row, strconv.FormatBool(res.Recovered), fmt.Sprintf("%.2f", res.RecoveryTime.Seconds()))
			}
			if staticN > 0 {
				c := res.Churn
				row = append(row,
					strconv.Itoa(c.Arrivals), strconv.Itoa(c.Admitted),
					strconv.Itoa(c.Rejected), strconv.Itoa(c.Shed))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeAggregated emits one row per parameter value: across-seed means
// with Student-t 95% confidence half-widths. Static runs go through
// gmp.Summarize; churn runs aggregate scalar-by-scalar instead, because
// arrival counts (and therefore flow counts) differ between seeds. A
// fault axis adds the fraction of runs whose post-fault trace
// re-settled and the recovery time over those runs.
func writeAggregated(cw *csv.Writer, scenario, protocol, param string, vals []float64, seeds, staticN int, fault bool, results []*gmp.Result) error {
	header := []string{
		"scenario", "protocol", "param", "value", "seeds",
		"i_mm", "i_mm_ci95", "i_eq", "i_eq_ci95",
		"u_pps", "u_pps_ci95", "min_rate_pps", "min_rate_ci95",
	}
	if fault {
		header = append(header, "recovered_frac", "recovery_s", "recovery_s_ci95")
	}
	if staticN > 0 {
		header = append(header,
			"arrivals", "arrivals_ci95", "admitted", "admitted_ci95",
			"rejected", "rejected_ci95", "shed", "shed_ci95")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for vi, v := range vals {
		block := results[vi*seeds : (vi+1)*seeds]
		row := []string{
			scenario, protocol, param,
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.Itoa(len(block)),
		}
		if staticN == 0 {
			sum := gmp.Summarize(block)
			row = append(row,
				fmt.Sprintf("%.4f", sum.Imm.Mean), fmt.Sprintf("%.4f", sum.Imm.CI95),
				fmt.Sprintf("%.4f", sum.Ieq.Mean), fmt.Sprintf("%.4f", sum.Ieq.CI95),
				fmt.Sprintf("%.2f", sum.U.Mean), fmt.Sprintf("%.2f", sum.U.CI95),
				fmt.Sprintf("%.2f", sum.MinRate.Mean), fmt.Sprintf("%.2f", sum.MinRate.CI95))
		} else {
			row = appendCI(row, block, []string{"%.4f", "%.4f", "%.2f", "%.2f"}, func(res *gmp.Result) []float64 {
				return []float64{res.Imm, res.Ieq, res.U, minRate(res, staticN)}
			})
		}
		if fault {
			var rec []float64
			for _, res := range block {
				if res.Recovered {
					rec = append(rec, res.RecoveryTime.Seconds())
				}
			}
			s := stats.Summarize(rec)
			row = append(row, fmt.Sprintf("%.2f", float64(len(rec))/float64(len(block))),
				fmt.Sprintf("%.2f", s.Mean), fmt.Sprintf("%.2f", s.CI95))
		}
		if staticN > 0 {
			row = appendCI(row, block, []string{"%.2f", "%.2f", "%.2f", "%.2f"}, func(res *gmp.Result) []float64 {
				c := res.Churn
				return []float64{float64(c.Arrivals), float64(c.Admitted), float64(c.Rejected), float64(c.Shed)}
			})
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// appendCI appends, for each value that metrics returns per run, its
// mean and Student-t 95% half-width over the block, formatted with the
// matching prec.
func appendCI(row []string, block []*gmp.Result, prec []string, metrics func(*gmp.Result) []float64) []string {
	cols := make([][]float64, len(prec))
	for _, res := range block {
		for j, x := range metrics(res) {
			cols[j] = append(cols[j], x)
		}
	}
	for j, xs := range cols {
		s := stats.Summarize(xs)
		row = append(row, fmt.Sprintf(prec[j], s.Mean), fmt.Sprintf(prec[j], s.CI95))
	}
	return row
}

func parseValues(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	vals := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return vals, nil
}

// faultSite is where the fault axes inject: the node crash takes down
// and the directed link link-loss degrades.
type faultSite struct{ node, from, to gmp.NodeID }

func applyParam(cfg *gmp.Config, param string, v float64, site faultSite) error {
	switch param {
	case "beta", "period_s", "additive", "omega", "queue":
		if v == 0 {
			return fmt.Errorf("%s 0 would run at the default %s", param, param)
		}
	case "crash", "link-loss":
		if v < 0 || v > 1 {
			return fmt.Errorf("%s intensity %v outside [0,1]", param, v)
		}
	}
	switch param {
	case "beta":
		cfg.Beta = v
	case "period_s":
		cfg.Period = time.Duration(v * float64(time.Second))
	case "additive":
		cfg.AdditiveIncrease = v
	case "omega":
		cfg.OmegaThreshold = v
	case "queue":
		if v != math.Trunc(v) {
			return fmt.Errorf("queue %v is not a whole number of slots", v)
		}
		cfg.QueueSlots = int(v)
	case "loss":
		cfg.LossProb = v
	case "speed":
		// baseMobility guarantees cfg.Mobility is set on this path.
		cfg.Mobility.MinSpeed = v
		cfg.Mobility.MaxSpeed = v
	case "lambda":
		// baseChurn guarantees cfg.Churn is set on this path.
		cfg.Churn.Rate = v
	case "crash", "link-loss":
		cfg.Faults = schedule(param, v, site, cfg.Warmup, cfg.Duration)
	default:
		return fmt.Errorf("unknown parameter %q", param)
	}
	return nil
}

// schedule builds a fault axis's schedule for intensity v in [0,1]:
// nothing at 0, the fault-free baseline; otherwise a fault from the
// warmup boundary (see the package comment).
func schedule(param string, v float64, site faultSite, warmup, duration time.Duration) []gmp.FaultEvent {
	if v == 0 {
		return nil
	}
	if param == "crash" {
		window := time.Duration(v * 0.5 * float64(duration-warmup))
		return []gmp.FaultEvent{
			{At: warmup, Kind: gmp.FaultNodeDown, Node: site.node},
			{At: warmup + window, Kind: gmp.FaultNodeUp, Node: site.node},
		}
	}
	// Loss probabilities live in [0,1); cap just below 1.
	p := v
	if p >= 1 {
		p = 0.99
	}
	return []gmp.FaultEvent{
		{At: warmup, Kind: gmp.FaultLinkDegrade, From: site.from, To: site.to, LossProb: p},
		{At: warmup + (duration-warmup)/2, Kind: gmp.FaultLinkRestore, From: site.from, To: site.to},
	}
}

// baseMobility returns the sweep's shared mobility template: the chosen
// model at a 2 s epoch with speeds 1-10 m/s (overridden per value by the
// speed parameter) on the placement-derived field.
func baseMobility(model string) (*gmp.MobilityConfig, error) {
	if model == "" {
		return nil, nil
	}
	m, err := gmp.ParseMobilityModel(model)
	if err != nil {
		return nil, err
	}
	cfg := &gmp.MobilityConfig{
		Model:    m,
		Epoch:    2 * time.Second,
		MinSpeed: 1,
		MaxSpeed: 10,
	}
	if m == gmp.MobilityGroup {
		cfg.Groups = 2
		cfg.GroupRadius = 100
	}
	return cfg, nil
}

// baseChurn returns the sweep's shared churn template: the chosen
// arrival process over random node pairs at λ = 0.5/s (overridden per
// value by the lambda parameter) with mid-sized bounded-Pareto flows,
// and optional admission control when -admit is set.
func baseChurn(process string, admitShare float64) (*gmp.ChurnConfig, error) {
	if process == "" {
		if admitShare != 0 {
			return nil, fmt.Errorf("-admit requires -churn")
		}
		return nil, nil
	}
	p, err := gmp.ParseChurnProcess(process)
	if err != nil {
		return nil, err
	}
	cfg := &gmp.ChurnConfig{
		Process:     p,
		Rate:        0.5,
		Matrix:      gmp.ChurnRandom,
		MinSizePkts: 4000,
		MaxSizePkts: 40000,
	}
	if admitShare > 0 {
		cfg.Admission = &gmp.AdmissionParams{MinShare: admitShare}
	}
	return cfg, nil
}

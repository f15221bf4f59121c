// Command benchtables regenerates every table of the paper's evaluation
// (§7) and prints the reproduction side by side with the published
// values. Absolute packet rates differ (our PHY constants are not the
// authors'); the point of comparison is the shape: who wins, by what
// factor, and how the fairness indices order the protocols.
//
// Usage:
//
//	benchtables             # all tables
//	benchtables -table 3    # only Table 3
//	benchtables -duration 100s -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"gmp"
	"gmp/internal/paperdata"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	table := fs.Int("table", 0, "table to regenerate (1-4; 0 = all)")
	duration := fs.Duration("duration", 400*time.Second, "simulated session length")
	seeds := fs.Int("seeds", 1, "number of seeds to average over")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = all CPUs, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("need at least one seed, got %d", *seeds)
	}
	if *parallel < 0 {
		return fmt.Errorf("negative parallelism %d", *parallel)
	}
	opts := options{duration: *duration, seeds: *seeds, workers: *parallel}

	runs := []struct {
		id int
		fn func(options) error
	}{
		{1, table1}, {2, table2}, {3, table3}, {4, table4},
	}
	for _, r := range runs {
		if *table != 0 && *table != r.id {
			continue
		}
		if err := r.fn(opts); err != nil {
			return fmt.Errorf("table %d: %w", r.id, err)
		}
	}
	return nil
}

// options carries the shared run parameters to the table generators.
type options struct {
	duration time.Duration
	seeds    int
	workers  int
}

// runSeeds executes the scenario under one protocol for seeds 1..N
// through the parallel experiment runner and aggregates the cross-seed
// statistics (Student-t 95% confidence half-widths). It also returns
// the per-seed results, in seed order.
func runSeeds(sc gmp.Scenario, p gmp.Protocol, o options) (*gmp.SweepSummary, []*gmp.Result, error) {
	cfgs := gmp.SeedSweep(gmp.Config{Scenario: sc, Protocol: p, Duration: o.duration}, o.seeds)
	results, err := gmp.RunMany(context.Background(), cfgs, gmp.RunManyOptions{Workers: o.workers})
	if err != nil {
		return nil, nil, err
	}
	sum := gmp.Summarize(results)
	return &sum, results, nil
}

func withCI(mean, ci float64) string {
	if ci == 0 {
		return fmt.Sprintf("%.3f", mean)
	}
	return fmt.Sprintf("%.3f±%.3f", mean, ci)
}

func table1(o options) error {
	fmt.Println("Table 1 — GMP on the Figure 2 topology, unit weights")
	agg, results, err := runSeeds(gmp.Fig2Scenario(), gmp.ProtocolGMP, o)
	if err != nil {
		return err
	}
	// The water-filling reference depends only on the static scenario,
	// so every seed's Result carries the same one.
	ref := results[0].Reference
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "flow\tpaper(pkt/s)\tmeasured(pkt/s)\treference(water-filling)")
	for i, name := range paperdata.Table1.Flows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\n",
			name, paperdata.Table1.Rates[i], agg.FlowRates[i].Mean, ref[i])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("shape: paper f1/f2 = %.2f, measured f1/f2 = %.2f\n\n",
		paperdata.Table1.Rates[0]/paperdata.Table1.Rates[1],
		agg.FlowRates[0].Mean/agg.FlowRates[1].Mean)
	return nil
}

func table2(o options) error {
	fmt.Println("Table 2 — weighted maxmin on Figure 2, weights (1,2,1,3)")
	agg, _, err := runSeeds(gmp.Fig2WeightedScenario(), gmp.ProtocolGMP, o)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "flow\tweight\tpaper(pkt/s)\tmeasured(pkt/s)\tmeasured normalized")
	for i, name := range paperdata.Table2.Flows {
		fmt.Fprintf(w, "%s\t%g\t%.2f\t%.2f\t%.2f\n",
			name, paperdata.Table2.Weights[i], paperdata.Table2.Rates[i],
			agg.FlowRates[i].Mean, agg.FlowNormRates[i].Mean)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("shape: clique-1 rates should split ~2:1:3 (measured %.0f:%.0f:%.0f)\n\n",
		agg.FlowRates[1].Mean, agg.FlowRates[2].Mean, agg.FlowRates[3].Mean)
	return nil
}

func comparisonTable(title string, sc gmp.Scenario, paper struct {
	Flows     []string
	Protocols map[string]paperdata.ProtocolRow
}, o options) error {
	fmt.Println(title)
	protocols := []struct {
		name string
		p    gmp.Protocol
	}{
		{"802.11", gmp.Protocol80211},
		{"2PP", gmp.Protocol2PP},
		{"GMP", gmp.ProtocolGMP},
	}
	results := make(map[string]*gmp.SweepSummary, len(protocols))
	for _, pr := range protocols {
		agg, _, err := runSeeds(sc, pr.p, o)
		if err != nil {
			return err
		}
		results[pr.name] = agg
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(w, "flow")
	for _, pr := range protocols {
		fmt.Fprintf(w, "\t%s paper\t%s meas.", pr.name, pr.name)
	}
	fmt.Fprintln(w)
	for i, name := range paper.Flows {
		fmt.Fprint(w, name)
		for _, pr := range protocols {
			fmt.Fprintf(w, "\t%.2f\t%.2f", paper.Protocols[pr.name].Rates[i], results[pr.name].FlowRates[i].Mean)
		}
		fmt.Fprintln(w)
	}
	for _, row := range []struct {
		label string
		paper func(paperdata.ProtocolRow) float64
		meas  func(*gmp.SweepSummary) string
	}{
		{"U", func(r paperdata.ProtocolRow) float64 { return r.U },
			func(a *gmp.SweepSummary) string { return withCI(a.U.Mean, a.U.CI95) }},
		{"I_mm", func(r paperdata.ProtocolRow) float64 { return r.Imm },
			func(a *gmp.SweepSummary) string { return withCI(a.Imm.Mean, a.Imm.CI95) }},
		{"I_eq", func(r paperdata.ProtocolRow) float64 { return r.Ieq },
			func(a *gmp.SweepSummary) string { return withCI(a.Ieq.Mean, a.Ieq.CI95) }},
	} {
		fmt.Fprint(w, row.label)
		for _, pr := range protocols {
			fmt.Fprintf(w, "\t%.3f\t%s", row.paper(paper.Protocols[pr.name]), row.meas(results[pr.name]))
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func table3(o options) error {
	return comparisonTable(
		"Table 3 — Figure 3 three-link chain: 802.11 vs 2PP vs GMP",
		gmp.Fig3Scenario(), paperdata.Table3, o)
}

func table4(o options) error {
	return comparisonTable(
		"Table 4 — Figure 4 four-cell topology: 802.11 vs 2PP vs GMP",
		gmp.Fig4Scenario(), paperdata.Table4, o)
}

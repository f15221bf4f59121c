// Command gmpsim runs one simulation scenario under a chosen protocol and
// prints per-flow end-to-end rates, fairness indices, and the centralized
// maxmin reference allocation.
//
// Usage:
//
//	gmpsim -scenario fig3 -protocol gmp -duration 400s
//	gmpsim -scenario fig2w -protocol gmp
//	gmpsim -scenario mesh -rows 4 -cols 4 -flows 6 -protocol gmp
//	gmpsim -scenario random -nodes 20 -flows 8 -protocol 802.11
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"gmp"
	"gmp/internal/prof"
	"gmp/internal/span"
	"gmp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmpsim", flag.ContinueOnError)
	pf := prof.Register(fs)
	var (
		scenarioName = fs.String("scenario", "fig3", "scenario: fig1|fig2|fig2w|fig3|fig4|chain|mesh|random|city")
		scenarioFile = fs.String("scenario-file", "", "load the scenario from a JSON file instead")
		saveScenario = fs.String("save-scenario", "", "write the chosen scenario as JSON and exit")
		jsonOut      = fs.Bool("json", false, "print the result as JSON")
		events       = fs.Int("events", 0, "record and print the last N channel events")
		eventsNode   = fs.Int("events-node", -1, "only print -events rows involving this node")
		eventsKind   = fs.String("events-kind", "", "only print -events rows of this kind: tx|rx|col|drop")
		telemetry    = fs.String("telemetry", "", "record run telemetry and write it as JSONL to this file")
		spanOut      = fs.String("span", "", "record causal span traces and write them as JSONL to this file (query with traceq)")
		spanSample   = fs.Int("span-sample", 0, "span sampling stride: trace 1 in N packets per flow (0 = default 64)")
		why          = fs.Int("why", -1, "explain flow N's allocation from the telemetry condition timeline")
		inband       = fs.Bool("inband-control", false, "run link-state dissemination on the channel")
		fairAgg      = fs.Bool("fair-aggregation", false, "serve queues round-robin by packet origin")
		protocolName = fs.String("protocol", "gmp", "protocol: gmp|gmp-dist|802.11|2pp|bp|bp-shared")
		duration     = fs.Duration("duration", 400*time.Second, "simulated session length")
		warmup       = fs.Duration("warmup", 0, "measurement window start (default duration/2)")
		seed         = fs.Int64("seed", 1, "random seed")
		beta         = fs.Float64("beta", 0.10, "GMP equality tolerance / step size")
		period       = fs.Duration("period", 4*time.Second, "GMP measurement/adjustment period")
		omega        = fs.Float64("omega", 0.25, "buffer-saturation threshold")
		additive     = fs.Float64("additive", 4, "rate-limit probe step (pkt/s)")
		queueSlots   = fs.Int("queue", 10, "per-queue capacity in packets")
		lossProb     = fs.Float64("loss", 0, "injected frame loss probability")
		noRTS        = fs.Bool("no-rts", false, "disable the RTS/CTS handshake")
		traceRounds  = fs.Bool("trace", false, "print GMP adjustment-round trace")
		macStats     = fs.Bool("mac-stats", false, "print per-node MAC counters")
		nodes        = fs.Int("nodes", 20, "node count (random/city scenarios)")
		gateways     = fs.Int("gateways", 4, "gateway count (city scenario)")
		rows         = fs.Int("rows", 4, "grid rows (mesh scenario)")
		cols         = fs.Int("cols", 4, "grid cols (mesh scenario)")
		nflows       = fs.Int("flows", 6, "flow count (mesh/random scenarios)")
		length       = fs.Int("length", 5, "chain length in nodes (chain scenario)")
		spacing      = fs.Float64("spacing", 200, "node spacing in meters (chain/mesh)")
		mobModel     = fs.String("mobility", "", "move nodes during the run: random-waypoint|random-walk|group")
		mobEpoch     = fs.Duration("mob-epoch", time.Second, "mobility position-update interval")
		mobSpeedMin  = fs.Float64("mob-speed-min", 1, "minimum node speed (m/s)")
		mobSpeedMax  = fs.Float64("mob-speed-max", 10, "maximum node speed (m/s)")
		mobPause     = fs.Duration("mob-pause", 0, "random-waypoint pause at each waypoint")
		mobStart     = fs.Duration("mob-start", 0, "delay before motion begins")
		mobStop      = fs.Duration("mob-stop", 0, "time after which motion ceases (0 = never)")
		mobGroups    = fs.Int("mob-groups", 2, "group count (group model)")
		mobRadius    = fs.Float64("mob-radius", 100, "member offset radius in meters (group model)")
		mobPinned    = fs.String("mob-pinned", "", "comma-separated nodes that never move")
		churnProc    = fs.String("churn", "", "overlay a dynamic flow workload: poisson|diurnal")
		churnRate    = fs.Float64("churn-rate", 0.5, "churn mean arrival rate (flows/s)")
		churnStart   = fs.Duration("churn-start", 0, "delay before arrivals begin")
		churnStop    = fs.Duration("churn-stop", 0, "time after which arrivals cease (0 = whole run)")
		churnMinSize = fs.Int64("churn-min-size", 0, "bounded-Pareto minimum flow size in packets (0 = default)")
		churnMaxSize = fs.Int64("churn-max-size", 0, "bounded-Pareto maximum flow size in packets (0 = default)")
		churnAlpha   = fs.Float64("churn-alpha", 0, "bounded-Pareto tail exponent (0 = default 1.5)")
		churnMatrix  = fs.String("churn-matrix", "gateway", "churn traffic matrix: gateway|random")
		churnGateway = fs.Int("churn-gateway", 0, "gateway node for the gateway matrix")
		churnMax     = fs.Int("churn-max-flows", 0, "cap on scheduled arrivals (0 = default)")
		churnPeriod  = fs.Duration("churn-period", 0, "diurnal cycle period (diurnal process)")
		churnAmp     = fs.Float64("churn-amplitude", 0, "diurnal modulation depth in [0,1]")
		admitShare   = fs.Float64("admit", 0, "enable admission control: refuse arrivals that would push any clique's weighted min share below this rate (pkt/s)")
		admitRoom    = fs.Float64("admit-headroom", 0, "fraction of clique capacity admission may book (0 = default 1)")
		admitShed    = fs.Int("admit-shed-after", 0, "overload periods before the watchdog sheds the newest flow (0 = default 3)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	var sc gmp.Scenario
	if *scenarioFile != "" {
		f, ferr := os.Open(*scenarioFile)
		if ferr != nil {
			return ferr
		}
		var lerr error
		sc, lerr = gmp.LoadScenario(f)
		if cerr := f.Close(); lerr == nil {
			lerr = cerr
		}
		if lerr != nil {
			return lerr
		}
	} else {
		var berr error
		sc, berr = buildScenario(*scenarioName, *nodes, *gateways, *rows, *cols, *nflows, *length, *spacing, *seed)
		if berr != nil {
			return berr
		}
	}
	if *saveScenario != "" {
		f, ferr := os.Create(*saveScenario)
		if ferr != nil {
			return ferr
		}
		if err := gmp.SaveScenario(f, sc); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	protocol, err := gmp.ParseProtocol(*protocolName)
	if err != nil {
		return err
	}
	evKind, err := trace.ParseKind(*eventsKind)
	if err != nil {
		return err
	}
	if (*eventsNode >= 0 || evKind != 0) && *events <= 0 {
		return fmt.Errorf("-events-node/-events-kind require -events > 0")
	}
	var tcfg *gmp.TelemetryConfig
	if *telemetry != "" || *why >= 0 {
		tcfg = &gmp.TelemetryConfig{}
	}
	// -why also records spans so the explanation can cite per-hop
	// critical-path numbers, not just condition counts.
	var scfg *gmp.SpanConfig
	if *spanOut != "" || *spanSample > 0 || *why >= 0 {
		scfg = &gmp.SpanConfig{SampleEvery: *spanSample}
	}
	mob, err := buildMobility(*mobModel, *mobEpoch, *mobSpeedMin, *mobSpeedMax,
		*mobPause, *mobStart, *mobStop, *mobGroups, *mobRadius, *mobPinned)
	if err != nil {
		return err
	}
	churnCfg, err := buildChurn(*churnProc, *churnRate, *churnStart, *churnStop,
		*churnMinSize, *churnMaxSize, *churnAlpha, *churnMatrix, *churnGateway,
		*churnMax, *churnPeriod, *churnAmp, *admitShare, *admitRoom, *admitShed)
	if err != nil {
		return err
	}

	res, err := gmp.Run(gmp.Config{
		Scenario:         sc,
		Protocol:         protocol,
		Duration:         *duration,
		Warmup:           *warmup,
		Seed:             *seed,
		Beta:             *beta,
		Period:           *period,
		OmegaThreshold:   *omega,
		AdditiveIncrease: *additive,
		QueueSlots:       *queueSlots,
		LossProb:         *lossProb,
		DisableRTS:       *noRTS,
		EventTrace:       *events,
		InBandControl:    *inband,
		FairAggregation:  *fairAgg,
		Mobility:         mob,
		Churn:            churnCfg,
		Telemetry:        tcfg,
		Spans:            scfg,
	})
	if err != nil {
		return err
	}
	shownEvents := trace.Filter(res.Events, gmp.NodeID(*eventsNode), evKind)
	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, res.Telemetry); err != nil {
			return err
		}
	}
	if *spanOut != "" {
		if err := writeSpans(*spanOut, res.Spans); err != nil {
			return err
		}
	}
	if *jsonOut {
		return printJSON(stdout, res, shownEvents)
	}
	printResult(stdout, res, *traceRounds)
	if *macStats {
		printMACStats(stdout, res)
	}
	if *events > 0 {
		fmt.Fprintf(stdout, "\nlast %d channel events:\n", len(shownEvents))
		for _, e := range shownEvents {
			fmt.Fprintln(stdout, " ", e)
		}
	}
	if *why >= 0 {
		if err := printWhy(stdout, res, *why); err != nil {
			return err
		}
	}
	return nil
}

func writeTelemetry(path string, t *gmp.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if werr := t.WriteJSONL(f); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

func writeSpans(path string, t *gmp.SpanTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if werr := t.WriteJSONL(f); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// jsonResult is the machine-readable output shape (rate limits use -1
// for "none" because JSON cannot carry +Inf).
type jsonResult struct {
	Scenario string      `json:"scenario"`
	Protocol string      `json:"protocol"`
	Flows    []jsonFlow  `json:"flows"`
	Imm      float64     `json:"i_mm"`
	Ieq      float64     `json:"i_eq"`
	U        float64     `json:"u_pps"`
	Channel  jsonChannel `json:"channel"`
	MAC      []jsonMAC   `json:"mac"`
	Events   []jsonEvent `json:"events,omitempty"`
	Churn    *jsonChurn  `json:"churn,omitempty"`
}

// jsonChurn is the dynamic-workload outcome (churn runs only).
type jsonChurn struct {
	Arrivals    int            `json:"arrivals"`
	Admitted    int            `json:"admitted"`
	Rejected    int            `json:"rejected"`
	Shed        int            `json:"shed"`
	StaleLimits int            `json:"stale_limits"`
	Decisions   []jsonDecision `json:"decisions"`
}

// jsonDecision is one admission event; TTFSNS is -1 when the flow was
// refused or its time to fair share was unmeasurable.
type jsonDecision struct {
	Flow     int    `json:"flow"`
	AtNS     int64  `json:"at_ns"`
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason,omitempty"`
	TTFSNS   int64  `json:"ttfs_ns"`
}

// jsonChannel summarizes the medium-level counters.
type jsonChannel struct {
	Transmissions  int64 `json:"transmissions"`
	Delivered      int64 `json:"delivered"`
	Corrupted      int64 `json:"corrupted"`
	InjectedLosses int64 `json:"injected_losses"`
	ControlFrames  int64 `json:"control_frames"`
}

// jsonMAC is one node's DCF counters.
type jsonMAC struct {
	Node     int   `json:"node"`
	RTSSent  int64 `json:"rts_sent"`
	DataSent int64 `json:"data_sent"`
	Acked    int64 `json:"acked"`
	Received int64 `json:"received"`
	Retries  int64 `json:"retries"`
	Drops    int64 `json:"drops"`
}

// jsonEvent is one recorded channel event (Config.EventTrace > 0 only).
type jsonEvent struct {
	AtNS   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Peer   int    `json:"peer"`
	Detail string `json:"detail"`
}

type jsonFlow struct {
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Weight    float64 `json:"weight"`
	Hops      int     `json:"hops"`
	Rate      float64 `json:"rate_pps"`
	NormRate  float64 `json:"normalized_rate"`
	Reference float64 `json:"reference_pps"`
	Limit     float64 `json:"limit_pps"`
	Delivered int64   `json:"delivered"`
	Dropped   int64   `json:"dropped"`
}

func printJSON(stdout io.Writer, res *gmp.Result, events []gmp.TraceEvent) error {
	out := jsonResult{
		Scenario: res.Scenario,
		Protocol: res.Protocol.String(),
		Imm:      res.Imm,
		Ieq:      res.Ieq,
		U:        res.U,
		Channel: jsonChannel{
			Transmissions:  res.Channel.Transmissions,
			Delivered:      res.Channel.Delivered,
			Corrupted:      res.Channel.Corrupted,
			InjectedLosses: res.Channel.InjectedLosses,
			ControlFrames:  res.Channel.ControlFrames,
		},
	}
	for node, s := range res.MAC {
		out.MAC = append(out.MAC, jsonMAC{
			Node: node, RTSSent: s.RTSSent, DataSent: s.DataSent,
			Acked: s.DataAcked, Received: s.DataReceived,
			Retries: s.Retries, Drops: s.Drops,
		})
	}
	for _, e := range events {
		out.Events = append(out.Events, jsonEvent{
			AtNS: int64(e.At), Kind: e.Kind.String(),
			Node: int(e.Node), Peer: int(e.Peer), Detail: e.Detail,
		})
	}
	if c := res.Churn; c != nil {
		jc := &jsonChurn{
			Arrivals: c.Arrivals, Admitted: c.Admitted,
			Rejected: c.Rejected, Shed: c.Shed, StaleLimits: c.StaleLimits,
		}
		for i, d := range c.Decisions {
			jc.Decisions = append(jc.Decisions, jsonDecision{
				Flow: int(d.Flow), AtNS: int64(d.At), Admitted: d.Admitted,
				Reason: d.Reason, TTFSNS: int64(c.TimeToFairShare[i]),
			})
		}
		out.Churn = jc
	}
	for i, f := range res.Flows {
		limit := -1.0
		if !math.IsInf(f.Limit, 1) {
			limit = f.Limit
		}
		out.Flows = append(out.Flows, jsonFlow{
			Src: int(f.Spec.Src), Dst: int(f.Spec.Dst), Weight: f.Spec.Weight,
			Hops: f.Hops, Rate: f.Rate, NormRate: f.NormRate,
			Reference: res.Reference[i], Limit: limit,
			Delivered: f.Delivered, Dropped: f.Dropped,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// buildChurn assembles the -churn-* and -admit-* flags into a
// ChurnConfig (nil when -churn is unset; scenario-file churn then
// applies). Zero-valued optional flags fall through to the package
// defaults.
func buildChurn(process string, rate float64, start, stop time.Duration,
	minSize, maxSize int64, alpha float64, matrix string, gateway, maxFlows int,
	period time.Duration, amplitude, admitShare, admitRoom float64, admitShed int) (*gmp.ChurnConfig, error) {
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
	m, err := gmp.ParseChurnMatrix(matrix)
	if err != nil {
		return nil, err
	}
	cfg := &gmp.ChurnConfig{
		Process:          p,
		Rate:             rate,
		Start:            start,
		Stop:             stop,
		DiurnalPeriod:    period,
		DiurnalAmplitude: amplitude,
		Alpha:            alpha,
		MinSizePkts:      minSize,
		MaxSizePkts:      maxSize,
		Matrix:           m,
		GatewayNode:      gmp.NodeID(gateway),
		MaxFlows:         maxFlows,
	}
	if admitShare != 0 {
		cfg.Admission = &gmp.AdmissionParams{
			MinShare:  admitShare,
			Headroom:  admitRoom,
			ShedAfter: admitShed,
		}
	}
	return cfg, nil
}

// buildMobility assembles the -mob-* flags into a MobilityConfig (nil
// when -mobility is unset; scenario-file mobility then applies). Field
// bounds are always derived from the node placement here; use a scenario
// file for explicit bounds.
func buildMobility(model string, epoch time.Duration, speedMin, speedMax float64,
	pause, start, stop time.Duration, groups int, radius float64, pinned string) (*gmp.MobilityConfig, error) {
	if model == "" {
		return nil, nil
	}
	m, err := gmp.ParseMobilityModel(model)
	if err != nil {
		return nil, err
	}
	cfg := &gmp.MobilityConfig{
		Model:    m,
		Epoch:    epoch,
		Start:    start,
		Stop:     stop,
		MinSpeed: speedMin,
		MaxSpeed: speedMax,
		Pause:    pause,
	}
	if m == gmp.MobilityGroup {
		cfg.Groups = groups
		cfg.GroupRadius = radius
	}
	for _, part := range strings.Split(pinned, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, perr := strconv.Atoi(part)
		if perr != nil {
			return nil, fmt.Errorf("-mob-pinned: %q is not a node", part)
		}
		cfg.Pinned = append(cfg.Pinned, gmp.NodeID(n))
	}
	return cfg, nil
}

func buildScenario(name string, nodes, gateways, rows, cols, nflows, length int, spacing float64, seed int64) (gmp.Scenario, error) {
	switch name {
	case "fig1":
		return gmp.Fig1Scenario(), nil
	case "fig2":
		return gmp.Fig2Scenario(), nil
	case "fig2w":
		return gmp.Fig2WeightedScenario(), nil
	case "fig3":
		return gmp.Fig3Scenario(), nil
	case "fig4":
		return gmp.Fig4Scenario(), nil
	case "chain":
		return gmp.ChainScenario(length, spacing)
	case "mesh":
		return gmp.MeshGatewayScenario(rows, cols, nflows, spacing, seed)
	case "random":
		return gmp.RandomScenario(nodes, nflows, 1000, 1000, seed)
	case "city":
		return gmp.CityScenario(nodes, gateways, nflows, spacing, seed)
	default:
		return gmp.Scenario{}, fmt.Errorf("unknown scenario %q", name)
	}
}

func printResult(stdout io.Writer, res *gmp.Result, trace bool) {
	fmt.Fprintf(stdout, "scenario %s under %s\n\n", res.Scenario, res.Protocol)
	w := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "flow\troute\tweight\thops\trate(pkt/s)\tnormalized\treference\tlimit\tdropped")
	for i, f := range res.Flows {
		limit := "-"
		if !math.IsInf(f.Limit, 1) {
			limit = fmt.Sprintf("%.1f", f.Limit)
		}
		fmt.Fprintf(w, "f%d\t%d->%d\t%g\t%d\t%.2f\t%.2f\t%.2f\t%s\t%d\n",
			i+1, f.Spec.Src, f.Spec.Dst, f.Spec.Weight, f.Hops,
			f.Rate, f.NormRate, res.Reference[i], limit, f.Dropped)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "gmpsim: flushing table:", err)
	}
	fmt.Fprintf(stdout, "\nU = %.2f pkt/s   I_mm = %.3f   I_eq = %.3f\n", res.U, res.Imm, res.Ieq)
	fmt.Fprintf(stdout, "channel: %d transmissions, %d corrupted deliveries\n",
		res.Channel.Transmissions, res.Channel.Corrupted)
	if res.Channel.ControlFrames > 0 {
		fmt.Fprintf(stdout, "control: %d broadcasts, %.2f%% of airtime\n",
			res.Channel.ControlFrames, 100*res.ControlOverhead)
	}
	if res.MobilityEpochs > 0 {
		fmt.Fprintf(stdout, "mobility: %d motion epochs\n", res.MobilityEpochs)
	}
	if c := res.Churn; c != nil {
		fmt.Fprintf(stdout, "churn: %d arrivals, %d admitted, %d rejected, %d shed\n",
			c.Arrivals, c.Admitted, c.Rejected, c.Shed)
		for i, d := range c.Decisions {
			verdict := "admitted"
			if !d.Admitted {
				verdict = "refused (" + d.Reason + ")"
			}
			ttfs := ""
			if c.TimeToFairShare[i] >= 0 {
				ttfs = fmt.Sprintf(", fair share after %s", c.TimeToFairShare[i].Round(time.Millisecond))
			}
			fmt.Fprintf(stdout, "  t=%6s flow %d %s%s\n",
				d.At.Round(time.Millisecond), d.Flow, verdict, ttfs)
		}
	}
	if trace && len(res.Trace) > 0 {
		fmt.Fprintln(stdout, "\nadjustment rounds (time, per-flow rates, requests):")
		for _, r := range res.Trace {
			fmt.Fprintf(stdout, "  t=%6s rates=%s requests=%d saturated=%d\n",
				r.Time, formatRates(r.Rates), r.Requests, r.SaturatedVNodes)
		}
	}
}

// printWhy explains one flow's allocation from the telemetry condition
// timeline: which of the paper's four local conditions fired for it,
// which one last forced it down, and how its rate limit moved.
func printWhy(stdout io.Writer, res *gmp.Result, flow int) error {
	t := res.Telemetry
	if t == nil {
		return fmt.Errorf("-why %d: run recorded no telemetry", flow)
	}
	if flow < 0 || flow >= len(res.Flows) {
		return fmt.Errorf("-why %d: flow index out of range [0,%d)", flow, len(res.Flows))
	}
	f := res.Flows[flow]
	id := gmp.FlowID(flow)
	fmt.Fprintf(stdout, "\nwhy flow %d (%d->%d):\n", flow, f.Spec.Src, f.Spec.Dst)
	limit := "none"
	if !math.IsInf(f.Limit, 1) {
		limit = fmt.Sprintf("%.2f pkt/s", f.Limit)
	}
	fmt.Fprintf(stdout, "  rate %.2f pkt/s, reference %.2f pkt/s, final limit %s\n",
		f.Rate, res.Reference[flow], limit)
	counts := t.FlowConditionCounts(id)
	fmt.Fprintf(stdout, "  condition events: source %d, buffer %d, bandwidth %d, rate-limit %d\n",
		counts[0], counts[1], counts[2], counts[3])
	if c := t.FinalBottleneck(id); c != 0 {
		for i := len(t.Conditions) - 1; i >= 0; i-- {
			ev := t.Conditions[i]
			if ev.Flow == id && ev.Reduce {
				fmt.Fprintf(stdout, "  final bottleneck: %s (node %d at t=%s, factor %.3f)\n",
					c, ev.Node, ev.At, ev.Factor)
				break
			}
		}
	} else {
		fmt.Fprintln(stdout, "  final bottleneck: none (the flow was never asked to reduce)")
	}
	changes, lastIdx := 0, -1
	for i, l := range t.Limits {
		if l.Flow == id {
			changes++
			lastIdx = i
		}
	}
	if changes > 0 {
		l := t.Limits[lastIdx]
		fmt.Fprintf(stdout, "  limit changes: %d (last: t=%s %s %s -> %s)\n",
			changes, l.At, l.Action, fmtLimit(l.Before), fmtLimit(l.After))
	} else {
		fmt.Fprintln(stdout, "  limit changes: none")
	}
	if fl := t.Flows[flow]; fl.Delivered > 0 {
		fmt.Fprintf(stdout, "  delivered %d packets: latency mean %s, p50 %s, p99 %s; %d MAC retries on route\n",
			fl.Delivered, fl.Latency.Mean(), fl.Latency.Quantile(0.5),
			fl.Latency.Quantile(0.99), fl.Retries)
	}
	if res.Spans != nil {
		printWhyHops(stdout, res.Spans, id)
	}
	return nil
}

// printWhyHops cites the span layer's per-hop evidence: where the flow's
// sampled delivered packets spent their end-to-end latency, averaged per
// hop, and which neighbors' transmissions deferred them.
func printWhyHops(stdout io.Writer, tr *gmp.SpanTrace, id gmp.FlowID) {
	type agg struct {
		node, next                       gmp.NodeID
		queue, backoff, defr, air, other time.Duration
		deferBy                          map[gmp.NodeID]time.Duration
		n                                int
	}
	var hops []*agg
	sampled := 0
	for _, p := range span.CriticalPaths(tr, id) {
		if p.Outcome != "delivered" {
			continue
		}
		sampled++
		for i, h := range p.Hops {
			if i >= len(hops) {
				hops = append(hops, &agg{node: h.Node, next: h.Next, deferBy: make(map[gmp.NodeID]time.Duration)})
			}
			a := hops[i]
			a.queue += h.Queue
			a.backoff += h.Backoff
			a.defr += h.Defer
			a.air += h.Airtime
			a.other += h.Other
			for peer, d := range h.DeferBy {
				a.deferBy[peer] += d
			}
			a.n++
		}
	}
	if sampled == 0 {
		fmt.Fprintln(stdout, "  spans: no sampled delivered packets (lower -span-sample for more)")
		return
	}
	fmt.Fprintf(stdout, "  per-hop latency over %d sampled packets (mean):\n", sampled)
	for _, a := range hops {
		div := time.Duration(a.n)
		fmt.Fprintf(stdout, "    %d→%d queue=%s backoff=%s defer=%s air=%s other=%s",
			a.node, a.next, (a.queue / div).Round(time.Microsecond),
			(a.backoff / div).Round(time.Microsecond), (a.defr / div).Round(time.Microsecond),
			(a.air / div).Round(time.Microsecond), (a.other / div).Round(time.Microsecond))
		var peers []int
		for peer := range a.deferBy {
			if peer >= 0 {
				peers = append(peers, int(peer))
			}
		}
		sort.Ints(peers)
		if len(peers) > 0 {
			fmt.Fprintf(stdout, "  deferred-by:")
			for _, peer := range peers {
				fmt.Fprintf(stdout, " node %d=%s", peer, (a.deferBy[gmp.NodeID(peer)] / div).Round(time.Microsecond))
			}
		}
		fmt.Fprintln(stdout)
	}
}

func fmtLimit(v float64) string {
	if v < 0 {
		return "none"
	}
	return fmt.Sprintf("%.2f", v)
}

func formatRates(rates []float64) string {
	s := "["
	for i, r := range rates {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f", r)
	}
	return s + "]"
}

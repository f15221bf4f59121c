package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gmp"
)

// digest hashes every behaviour-relevant field of a Result: the fields the
// root package's determinism gate renders, in the same rendering (floats
// in shortest round-trip form, so equal digests mean bit-identical
// values). Two runs of one config must produce equal digests.
func digest(res *gmp.Result) string {
	h := sha256.New()
	writeResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

func writeResult(w io.Writer, res *gmp.Result) {
	g := func(x float64) string {
		if math.IsInf(x, 1) {
			return "+Inf"
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	fmt.Fprintf(w, "scenario %s protocol %s\n", res.Scenario, res.Protocol)
	fmt.Fprintf(w, "Imm %s Ieq %s U %s\n", g(res.Imm), g(res.Ieq), g(res.U))
	for i, f := range res.Flows {
		fmt.Fprintf(w, "flow %d src %d dst %d w %s hops %d rate %s norm %s del %d drop %d limit %s ref %s\n",
			i, f.Spec.Src, f.Spec.Dst, g(f.Spec.Weight), f.Hops,
			g(f.Rate), g(f.NormRate), f.Delivered, f.Dropped, g(f.Limit), g(res.Reference[i]))
		reasons := make([]string, 0, len(f.DropsByReason))
		for r, n := range f.DropsByReason {
			reasons = append(reasons, fmt.Sprintf("%v=%d", r, n))
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "  drops %s\n", strings.Join(reasons, " "))
	}
	for _, tgt := range res.TwoPPTarget {
		fmt.Fprintf(w, "2pp-target %s\n", g(tgt))
	}
	c := res.Channel
	fmt.Fprintf(w, "channel tx %d corrupt %d deliver %d loss %d downskip %d ctrl %d ctrlair %d\n",
		c.Transmissions, c.Corrupted, c.Delivered, c.InjectedLosses, c.DownSkipped,
		c.ControlFrames, int64(c.ControlAirtime))
	for i, m := range res.MAC {
		fmt.Fprintf(w, "mac %d sent %d acked %d recv %d dup %d rts %d retry %d drop %d bcast %d\n",
			i, m.DataSent, m.DataAcked, m.DataReceived, m.Duplicates,
			m.RTSSent, m.Retries, m.Drops, m.Broadcasts)
	}
	for _, r := range res.Trace {
		fmt.Fprintf(w, "round %d req %d sat %d", int64(r.Time), r.Requests, r.SaturatedVNodes)
		for _, x := range r.Rates {
			fmt.Fprintf(w, " r=%s", g(x))
		}
		for _, x := range r.Limits {
			fmt.Fprintf(w, " l=%s", g(x))
		}
		for _, n := range r.DownNodes {
			fmt.Fprintf(w, " down=%d", n)
		}
		fmt.Fprintln(w)
	}
	for _, ev := range res.FaultEvents {
		fmt.Fprintf(w, "fault %v\n", ev)
	}
	fmt.Fprintf(w, "mobility epochs %d\n", res.MobilityEpochs)
	if ch := res.Churn; ch != nil {
		fmt.Fprintf(w, "churn arrivals %d admitted %d rejected %d shed %d stale %d\n",
			ch.Arrivals, ch.Admitted, ch.Rejected, ch.Shed, ch.StaleLimits)
		for i, d := range ch.Decisions {
			fmt.Fprintf(w, "admit flow %d at %d ok %v reason %q ttfs %d\n",
				d.Flow, int64(d.At), d.Admitted, d.Reason, int64(ch.TimeToFairShare[i]))
		}
	}
	fmt.Fprintf(w, "recovered %v recovery %d\n", res.Recovered, int64(res.RecoveryTime))
}

// invariantError reports the first broken invariant of a Result, or nil:
// every rate and reference finite and non-negative, I_mm in [0,1], and,
// for a full session (not a set-up sample), at least one frame sent.
func invariantError(res *gmp.Result, fullSession bool) error {
	if len(res.Reference) != len(res.Flows) || len(res.Rates) != len(res.Flows) {
		return fmt.Errorf("%d flows but %d rates and %d references", len(res.Flows), len(res.Rates), len(res.Reference))
	}
	for i := range res.Flows {
		if r := res.Rates[i]; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("flow %d rate %v", i, r)
		}
		if r := res.Reference[i]; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("flow %d reference %v", i, r)
		}
	}
	if !(res.Imm >= 0 && res.Imm <= 1) {
		return fmt.Errorf("I_mm %v outside [0,1]", res.Imm)
	}
	if fullSession && res.Channel.Transmissions == 0 {
		return fmt.Errorf("no frames sent")
	}
	return nil
}

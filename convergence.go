package gmp

import (
	"math"
	"time"

	"gmp/internal/stats"
)

// ConvergenceReport is the result of convergence analysis over a trace:
// when the run settled and what it settled to.
type ConvergenceReport struct {
	// Time is the virtual time of the earliest round from which the
	// trace stays settled (zero when Settled is false).
	Time time.Duration
	// Settled reports whether the trace converged at all.
	Settled bool
	// TailMeans are the per-flow mean rates over the second half of the
	// trace — the regime the run settled into (valid even when Settled
	// is false, as long as the trace was long enough to analyze).
	TailMeans []float64
}

// DefaultRecoveryTol is the rate-band tolerance used by Run when
// computing RecoveryTime. Poisson sources make per-period rates noisy,
// so tolerances below ~0.15 rarely report convergence; 0.25 matches the
// guidance on ConvergenceTime.
const DefaultRecoveryTol = 0.25

// ConvergenceTime estimates when a GMP run settled: the earliest trace
// round from which at least 90% of the remaining rounds keep every
// flow's per-period rate within tol (fractionally) of its settled mean
// (the mean over the trace's second half). It returns false when the
// trace never settles or is too short to judge.
//
// Poisson sources make per-period rates noisy, so tolerances below ~0.15
// rarely report convergence; 0.25-0.3 is a reasonable range for the
// paper's scenarios. For the settled per-flow means alongside the time,
// use Convergence.
func ConvergenceTime(trace []Round, tol float64) (time.Duration, bool) {
	rep := Convergence(trace, tol)
	return rep.Time, rep.Settled
}

// Convergence runs the analysis behind ConvergenceTime and additionally
// returns the settled per-flow tail means, so recovery-time analysis
// does not recompute them.
func Convergence(trace []Round, tol float64) ConvergenceReport {
	if len(trace) < 4 || tol <= 0 || len(trace[0].Rates) == 0 {
		return ConvergenceReport{}
	}
	flows := make([]int, len(trace[0].Rates))
	for f := range flows {
		flows[f] = f
	}
	means, at := settle(trace, flows, tol)
	rep := ConvergenceReport{TailMeans: means}
	if at >= 0 {
		rep.Time, rep.Settled = trace[at].Time, true
	}
	return rep
}

// FlowTimeToFairShare measures how long a single flow took to reach its
// fair share after arriving mid-run: the earliest trace round in
// (from, until] from which the flow's per-period rate stays within tol
// (fractionally) of its settled mean — the mean over the last half of
// its active rounds — for at least 90% of the remaining active rounds.
// The returned duration is relative to from (the arrival time);
// until <= 0 means the end of the trace. It reports false when fewer
// than 4 active rounds exist or the flow never settled.
func FlowTimeToFairShare(trace []Round, flow int, from, until time.Duration, tol float64) (time.Duration, bool) {
	if tol <= 0 || flow < 0 {
		return 0, false
	}
	var act []Round
	for _, r := range trace {
		if r.Time <= from || flow >= len(r.Rates) {
			continue
		}
		if until > 0 && r.Time > until {
			break
		}
		act = append(act, r)
	}
	if len(act) < 4 {
		return 0, false
	}
	if _, at := settle(act, []int{flow}, tol); at >= 0 {
		return act[at].Time - from, true
	}
	return 0, false
}

// settle is the scan behind Convergence and FlowTimeToFairShare. It
// takes each listed flow's settled mean over the second half of rounds,
// calls a round in band when every listed flow's rate lies within tol
// (fractionally) of its mean (a flow settled at zero may reach tol*10),
// and returns the means with the index of the earliest round from which
// at most 10% of the remaining rounds are out of band, or -1.
func settle(rounds []Round, flows []int, tol float64) (means []float64, at int) {
	half := rounds[len(rounds)/2:]
	vals := make([]float64, len(half))
	means = make([]float64, len(flows))
	for j, f := range flows {
		for i, r := range half {
			vals[i] = r.Rates[f]
		}
		means[j] = stats.Mean(vals)
	}
	inBand := func(r Round) bool {
		for j, f := range flows {
			if m := means[j]; m <= 0 {
				if r.Rates[f] > tol*10 {
					return false
				}
			} else if math.Abs(r.Rates[f]-m) > tol*m {
				return false
			}
		}
		return true
	}
	bad := make([]int, len(rounds)+1)
	for i := len(rounds) - 1; i >= 0; i-- {
		bad[i] = bad[i+1]
		if !inBand(rounds[i]) {
			bad[i]++
		}
	}
	for i := 0; i < len(rounds)-2; i++ {
		if float64(bad[i]) <= 0.1*float64(len(rounds)-i) {
			return means, i
		}
	}
	return means, -1
}

// RecoveryReport measures re-convergence after a perturbation: it runs
// Convergence over only the rounds recorded strictly after the given
// time (the last fault of a schedule) and reports the settle time
// relative to that instant. The report's Time is therefore the recovery
// duration, not an absolute trace time. It returns an unsettled report
// when too few post-fault rounds exist to judge.
func RecoveryReport(trace []Round, after time.Duration, tol float64) ConvergenceReport {
	var post []Round
	for _, r := range trace {
		if r.Time > after {
			post = append(post, r)
		}
	}
	rep := Convergence(post, tol)
	if rep.Settled {
		rep.Time -= after
	}
	return rep
}

package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"gmp"
	"gmp/internal/forwarding"
)

// options control one workload run.
type options struct {
	seed int64
	// budget is the wall time the timed sessions may use. With trace on,
	// half of it goes to timed sessions and the rest is left for the build
	// layers and the profiled round.
	budget time.Duration
	trace  bool
	// session, when positive, overrides the simulated session length.
	session time.Duration
	// setupSamples and buildSamples are minimum sample counts.
	setupSamples int
	buildSamples int
	// outDir receives the raw CPU profile.
	outDir string
	log    io.Writer
}

// report is one workload run's outcome: attempted and failed gmp.Run
// calls, and the metrics of the selected kind.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

// harness runs one workload's panel and checks every Result.
type harness struct {
	w        workload
	opts     options
	sessions []gmp.Config
	setupCfg gmp.Config
	// refs holds the first digest of each config, keyed by call kind.
	refs              map[string]string
	attempted, failed int
	// first holds each panel member's first Result.
	first []*gmp.Result
	// calib is the latest calibration point.
	calib time.Duration
}

// timing is one timed session: its host time, the host speed around it,
// and its allocation counters, read outside the timed interval.
type timing struct {
	member         int
	wall           time.Duration
	speed          float64
	frames         int64
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

// norm is the session's host time scaled to the reference host.
func (s timing) norm() float64 { return s.wall.Seconds() * s.speed }

func runWorkload(w workload, opts options) (report, error) {
	sessions, err := w.sessions(opts.seed, opts.session)
	if err != nil {
		return report{}, err
	}
	h := &harness{w: w, opts: opts, sessions: sessions, refs: map[string]string{}, first: make([]*gmp.Result, len(sessions))}
	// A set-up sample runs the first session for 1 ms: everything gmp.Run
	// builds, with a negligible event loop.
	h.setupCfg = sessions[0]
	h.setupCfg.Duration, h.setupCfg.Warmup = time.Millisecond, 500*time.Microsecond

	if !h.warmUp() {
		return report{h.attempted, h.failed, nil}, fmt.Errorf("%s: warm-up session failed", w.name)
	}
	if !opts.trace {
		samples, setup := h.timedSessions(opts.budget, opts.setupSamples)
		m, err := h.endToEnd(samples, setup)
		return report{h.attempted, h.failed, m}, err
	}
	samples, _ := h.timedSessions(opts.budget/2, 0)
	m, err := h.perLayer(samples)
	return report{h.attempted, h.failed, m}, err
}

// call runs gmp.Run once and times it. The run fails when it returns an
// error, panics, breaks an invariant, or its Result digest differs from
// the first run of the same call kind.
func (h *harness) call(kind string, cfg gmp.Config, fullSession bool) (*gmp.Result, time.Duration, bool) {
	h.attempted++
	start := time.Now()
	res, err := runRecover(cfg)
	wall := time.Since(start)
	if err == nil {
		err = invariantError(res, fullSession)
	}
	if err == nil {
		d := digest(res)
		if ref, seen := h.refs[kind]; !seen {
			h.refs[kind] = d
		} else if d != ref {
			err = fmt.Errorf("result digest %.12s differs from the first run's %.12s", d, ref)
		}
	}
	if err != nil {
		h.failed++
		fmt.Fprintf(h.opts.log, "FAIL %s %s (seed %d): %v\n", h.w.name, kind, cfg.Seed, err)
		return nil, wall, false
	}
	return res, wall, true
}

func runRecover(cfg gmp.Config) (res *gmp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return gmp.Run(cfg)
}

// warmUp runs a tenth of the first session, untimed, so that the first
// timed session does not pay for cold caches and heap growth, then takes
// the first calibration point.
func (h *harness) warmUp() bool {
	cfg := h.sessions[0]
	cfg.Duration, cfg.Warmup = cfg.Duration/10, cfg.Warmup/10
	_, _, ok := h.call("warmup", cfg, true)
	h.recalibrate()
	return ok
}

// recalibrate takes a new calibration point and returns the previous one.
// It first collects the garbage and returns it to the OS, so that the
// background scavenger does not share the one P with the kernel.
func (h *harness) recalibrate() time.Duration {
	debug.FreeOSMemory()
	prev := h.calib
	h.calib = calibrate()
	return prev
}

// setupSample times one set-up run after a forced GC and scales it by the
// latest calibration point.
func (h *harness) setupSample() (float64, bool) {
	runtime.GC()
	_, wall, ok := h.call("setup", h.setupCfg, false)
	return wall.Seconds() * hostSpeed(h.calib, h.calib), ok
}

// timedSession runs panel member m once after a forced GC, reading the
// allocation counters around it, and takes a calibration point after it.
// The session's host speed is the mean of the points before and after.
func (h *harness) timedSession(m int) (timing, bool) {
	var before, done runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, wall, ok := h.call(fmt.Sprintf("session%d", m), h.sessions[m], true)
	runtime.ReadMemStats(&done)
	prev := h.recalibrate()
	if !ok {
		return timing{}, false
	}
	if h.first[m] == nil {
		h.first[m] = res
	}
	return timing{
		member:  m,
		wall:    wall,
		speed:   hostSpeed(prev, h.calib),
		frames:  res.Channel.Transmissions,
		mallocs: done.Mallocs - before.Mallocs,
		bytes:   done.TotalAlloc - before.TotalAlloc,
		gcs:     done.NumGC - before.NumGC,
		pauseNs: done.PauseTotalNs - before.PauseTotalNs,
	}, true
}

// timedSessions runs the panel members in turn, always completing one
// round, then while at least half of the next member's last session still
// fits in the budget, so a run overshoots the budget by at most half a
// session. It interleaves set-up samples so that setupTarget of them are
// spread over the planned sessions, then tops them up to setupTarget. It
// stops at the first failed call.
func (h *harness) timedSessions(budget time.Duration, setupTarget int) ([]timing, []float64) {
	deadline := time.Now().Add(budget)
	n := len(h.sessions)
	last := make([]time.Duration, n)
	var samples []timing
	var setup []float64
	planned := 1
	takeSetup := func(target int) bool {
		for len(setup) < target {
			s, ok := h.setupSample()
			if !ok {
				return false
			}
			setup = append(setup, s)
		}
		return true
	}
	for i := 0; i < n || time.Now().Add(last[i%n]/2).Before(deadline); i++ {
		s, ok := h.timedSession(i % n)
		if !ok {
			return samples, setup
		}
		samples = append(samples, s)
		last[s.member] = s.wall
		if i == 0 {
			planned = max(n, int(budget/s.wall))
		}
		if !takeSetup((setupTarget*(i+1) + planned - 1) / planned) {
			return samples, setup
		}
	}
	fmt.Fprintf(h.opts.log, "%s: %d sessions of a %d-member panel, host speed %.3f\n",
		h.w.name, len(samples), n, median(speeds(samples)))
	takeSetup(setupTarget)
	return samples, setup
}

func speeds(samples []timing) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.speed
	}
	return xs
}

// memberMedians returns, per panel member, the median of f over its
// samples. It fails unless every member has one.
func (h *harness) memberMedians(samples []timing, f func(timing) float64) ([]float64, error) {
	per := make([][]float64, len(h.sessions))
	for _, s := range samples {
		per[s.member] = append(per[s.member], f(s))
	}
	out := make([]float64, len(per))
	for m, xs := range per {
		if len(xs) == 0 {
			return nil, fmt.Errorf("%s: panel member %d has no timed session", h.w.name, m)
		}
		out[m] = median(xs)
	}
	return out, nil
}

// panelFrames is the frame count of one round over the panel.
func (h *harness) panelFrames() int64 {
	var n int64
	for _, res := range h.first {
		n += res.Channel.Transmissions
	}
	return n
}

func (h *harness) endToEnd(samples []timing, setup []float64) (map[string]float64, error) {
	norm, err := h.memberMedians(samples, timing.norm)
	if err != nil {
		return nil, err
	}
	total := sum(norm)
	rss, err := peakRSSMB()
	return map[string]float64{
		"setup_s":      median(setup),
		"run_s":        total / float64(len(norm)),
		"frames_per_s": float64(h.panelFrames()) / total,
		"ref_gap":      refGap(h.first),
		"peak_rss_mb":  rss,
	}, err
}

func (h *harness) perLayer(samples []timing) (map[string]float64, error) {
	norm, err := h.memberMedians(samples, timing.norm)
	if err != nil {
		return nil, err
	}
	raw, _ := h.memberMedians(samples, func(s timing) float64 { return s.wall.Seconds() })
	m := map[string]float64{}
	addCounts(m, h.first)

	var allocs, bytes, gcs, pause []float64
	for _, s := range samples {
		allocs = append(allocs, float64(s.mallocs)/float64(s.frames))
		bytes = append(bytes, float64(s.bytes)/float64(s.frames))
		gcs = append(gcs, float64(s.gcs))
		pause = append(pause, float64(s.pauseNs)/1e9)
	}
	m["runtime.allocs_per_frame"] = median(allocs)
	m["runtime.bytes_per_frame"] = median(bytes)
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_pause_s"] = median(pause)
	m["host.speed"] = median(speeds(samples))
	m["host.run_s"] = sum(raw) / float64(len(raw))

	build, err := buildLayers(h.sessions[0], h.opts.buildSamples)
	if err != nil {
		return m, err
	}
	for k, v := range build {
		m[k] = v
	}

	path := filepath.Join(h.opts.outDir, fmt.Sprintf("%s-seed%d.pprof", h.w.name, h.opts.seed))
	traced, prof, err := h.profiledRound(path)
	if err != nil {
		return m, err
	}
	fmt.Fprintf(h.opts.log, "%s: CPU profile of the traced round: %s\n", h.w.name, path)
	addProfile(m, prof, h.panelFrames())
	m["trace.overhead_frac"] = traced/sum(norm) - 1
	return m, nil
}

// profiledRound runs every panel member once more under the CPU profiler,
// keeps the raw profile at path, and attributes its samples. It forces no
// GC and reads no MemStats, so the profile holds no collection or counter
// read of the harness's own. It returns the round's host time scaled to
// the reference host.
func (h *harness) profiledRound(path string) (float64, attribution, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, attribution{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, attribution{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return 0, attribution{}, err
	}
	ok := true
	var wall time.Duration
	for m, cfg := range h.sessions {
		_, w, good := h.call(fmt.Sprintf("session%d", m), cfg, true)
		wall += w
		ok = ok && good
	}
	pprof.StopCPUProfile()
	prev := h.recalibrate()
	if err := f.Close(); err != nil {
		return 0, attribution{}, err
	}
	if !ok {
		return 0, attribution{}, fmt.Errorf("%s: traced round failed", h.w.name)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, attribution{}, err
	}
	a, err := attribute(data)
	if err != nil {
		return 0, a, fmt.Errorf("reading %s: %w", path, err)
	}
	return wall.Seconds() * hostSpeed(prev, h.calib), a, nil
}

// addCounts records the exact work counts and fidelity of one round.
func addCounts(m map[string]float64, results []*gmp.Result) {
	var frames, corrupt, delivered, control int64
	var sent, acked, rts, retries, macDrops int64
	var fwdDrops, overflow, flowDelivered int64
	var rounds, requests, epochs, arrivals, admitted, shed int64
	var imm, ieq float64
	for _, res := range results {
		c := res.Channel
		frames += c.Transmissions
		corrupt += c.Corrupted
		delivered += c.Delivered
		control += c.ControlFrames
		for _, s := range res.MAC {
			sent += s.DataSent
			acked += s.DataAcked
			rts += s.RTSSent
			retries += s.Retries
			macDrops += s.Drops
		}
		for _, f := range res.Flows {
			fwdDrops += f.Dropped
			overflow += f.DropsByReason[forwarding.DropOverflow] + f.DropsByReason[forwarding.DropTail]
			flowDelivered += f.Delivered
		}
		rounds += int64(len(res.Trace))
		for _, r := range res.Trace {
			requests += int64(r.Requests)
		}
		epochs += int64(res.MobilityEpochs)
		if ch := res.Churn; ch != nil {
			arrivals += int64(ch.Arrivals)
			admitted += int64(ch.Admitted)
			shed += int64(ch.Shed)
		}
		imm += res.Imm
		ieq += res.Ieq
	}
	n := float64(len(results))
	m["radio.frames"] = float64(frames)
	m["radio.corrupt_frac"] = ratio(corrupt, delivered+corrupt)
	m["radio.control_frames"] = float64(control)
	m["mac.data_sent"] = float64(sent)
	m["mac.rts_sent"] = float64(rts)
	m["mac.retries"] = float64(retries)
	m["mac.drops"] = float64(macDrops)
	m["mac.ack_ratio"] = ratio(acked, sent)
	m["forwarding.drops"] = float64(fwdDrops)
	m["forwarding.overflow_drops"] = float64(overflow)
	m["flow.delivered"] = float64(flowDelivered)
	m["flow.delivery_ratio"] = ratio(flowDelivered, flowDelivered+fwdDrops)
	m["core.rounds"] = float64(rounds)
	m["core.requests"] = float64(requests)
	m["mobility.epochs"] = float64(epochs)
	m["churn.arrivals"] = float64(arrivals)
	m["churn.admitted"] = float64(admitted)
	m["churn.shed"] = float64(shed)
	m["metrics.imm"] = imm / n
	m["metrics.ieq"] = ieq / n
}

// refGap is the total rate error against the water-filling reference as
// a share of the total reference rate: Σ|rate - reference| / Σ reference
// over every flow of the round whose reference is positive (static flows,
// and churn flows still active at the end). A ratio of sums rather than a
// mean of per-flow ratios, so that flows with a tiny reference do not
// dominate it.
func refGap(results []*gmp.Result) float64 {
	var diff, ref float64
	for _, res := range results {
		for i, r := range res.Reference {
			if r > 0 {
				diff += math.Abs(res.Rates[i] - r)
				ref += r
			}
		}
	}
	if ref == 0 {
		return 0
	}
	return diff / ref
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs, or 0 when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

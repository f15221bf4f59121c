package churn

import (
	"math"
	"testing"
	"time"

	"gmp/internal/admission"
	"gmp/internal/packet"
	"gmp/internal/sim"
)

func validPoisson() Config {
	return Config{Process: Poisson, Rate: 2}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	cfg := validPoisson()
	if err := cfg.Validate(9); err != nil {
		t.Fatalf("minimal poisson config rejected: %v", err)
	}
	d := Config{
		Process: Diurnal, Rate: 1, DiurnalPeriod: 100 * time.Second, DiurnalAmplitude: 0.8,
		Admission: &admission.Params{MinShare: 50},
	}
	if err := d.Validate(9); err != nil {
		t.Fatalf("diurnal config rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() Config { return validPoisson() }
	cases := map[string]func(*Config){
		"zero rate":            func(c *Config) { c.Rate = 0 },
		"huge rate":            func(c *Config) { c.Rate = 1e7 },
		"nan rate":             func(c *Config) { c.Rate = math.NaN() },
		"inf amplitude":        func(c *Config) { c.Process = Diurnal; c.DiurnalPeriod = time.Second; c.DiurnalAmplitude = math.Inf(1) },
		"negative start":       func(c *Config) { c.Start = -time.Second },
		"stop before start":    func(c *Config) { c.Start = 10 * time.Second; c.Stop = 5 * time.Second },
		"diurnal no period":    func(c *Config) { c.Process = Diurnal },
		"amplitude above 1":    func(c *Config) { c.Process = Diurnal; c.DiurnalPeriod = time.Second; c.DiurnalAmplitude = 1.5 },
		"diurnal on poisson":   func(c *Config) { c.DiurnalAmplitude = 0.5 },
		"bad process":          func(c *Config) { c.Process = 99 },
		"bad matrix":           func(c *Config) { c.Matrix = 99 },
		"negative alpha":       func(c *Config) { c.Alpha = -1 },
		"zero min size":        func(c *Config) { c.MinSizePkts = -1 },
		"max below min":        func(c *Config) { c.MinSizePkts = 100; c.MaxSizePkts = 10 },
		"negative weight":      func(c *Config) { c.Weight = -1 },
		"gateway out of range": func(c *Config) { c.GatewayNode = 9 },
		"negative gateway":     func(c *Config) { c.GatewayNode = -1 },
		"bad admission":        func(c *Config) { c.Admission = &admission.Params{MinShare: -1} },
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if err := cfg.Validate(9); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	one := validPoisson()
	if err := one.Validate(1); err == nil {
		t.Error("Validate accepted a 1-node network")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Process: Diurnal, Rate: 3, DiurnalPeriod: 40 * time.Second, DiurnalAmplitude: 0.6}
	a := Generate(cfg, 9, 120*time.Second, sim.NewRand(7))
	b := Generate(cfg, 9, 120*time.Second, sim.NewRand(7))
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Generate(cfg, 9, 120*time.Second, sim.NewRand(8))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

func TestGeneratePoissonCount(t *testing.T) {
	// λ=2/s over 200s → 400 expected arrivals; across seeds the count
	// must land well inside ±5σ (σ=20).
	cfg := Config{Process: Poisson, Rate: 2, MaxFlows: 4096}
	for seed := int64(1); seed <= 5; seed++ {
		got := len(Generate(cfg, 9, 200*time.Second, sim.NewRand(seed)))
		if got < 300 || got > 500 {
			t.Fatalf("seed %d: %d arrivals, want ≈400", seed, got)
		}
	}
}

func TestGenerateBoundsAndMatrix(t *testing.T) {
	cfg := Config{
		Process: Poisson, Rate: 5, MaxFlows: 4096,
		MinSizePkts: 100, MaxSizePkts: 5000, GatewayNode: 2,
	}
	flows := Generate(cfg, 6, 100*time.Second, sim.NewRand(3))
	if len(flows) == 0 {
		t.Fatal("no arrivals")
	}
	var prev time.Duration
	srcs := map[int]bool{}
	for _, f := range flows {
		if f.At < prev {
			t.Fatalf("arrivals out of order: %v after %v", f.At, prev)
		}
		prev = f.At
		if f.SizePkts < 100 || f.SizePkts > 5000 {
			t.Fatalf("size %d outside [100,5000]", f.SizePkts)
		}
		if f.Dst != 2 {
			t.Fatalf("gateway matrix produced dst %d", f.Dst)
		}
		if f.Src == 2 || f.Src < 0 || f.Src > 5 {
			t.Fatalf("bad source %d", f.Src)
		}
		srcs[int(f.Src)] = true
		wantLife := time.Duration(float64(f.SizePkts) / DefaultDesiredRate * float64(time.Second))
		if f.Lifetime != wantLife {
			t.Fatalf("lifetime %v, want %v for %d pkts", f.Lifetime, wantLife, f.SizePkts)
		}
	}
	if len(srcs) < 3 {
		t.Fatalf("sources not spread: %v", srcs)
	}

	cfg.Matrix = Random
	for _, f := range Generate(cfg, 6, 100*time.Second, sim.NewRand(3)) {
		if f.Src == f.Dst {
			t.Fatalf("random matrix produced self-flow %d→%d", f.Src, f.Dst)
		}
	}
}

func TestGenerateWindowAndCap(t *testing.T) {
	cfg := Config{Process: Poisson, Rate: 10, Start: 20 * time.Second, Stop: 40 * time.Second, MaxFlows: 4096}
	flows := Generate(cfg, 4, 400*time.Second, sim.NewRand(1))
	for _, f := range flows {
		if f.At < 20*time.Second || f.At >= 40*time.Second {
			t.Fatalf("arrival at %v outside [20s,40s)", f.At)
		}
	}
	cfg.MaxFlows = 7
	if got := len(Generate(cfg, 4, 400*time.Second, sim.NewRand(1))); got != 7 {
		t.Fatalf("cap ignored: %d arrivals, want 7", got)
	}
}

func TestGenerateDiurnalModulation(t *testing.T) {
	// Amplitude 1: intensity is 2λ at the peak quarter-period and ~0 at
	// the trough. Compare arrival mass in the first vs second half of
	// one full period starting at phase 0: sin>0 in the first half.
	cfg := Config{
		Process: Diurnal, Rate: 4, DiurnalPeriod: 100 * time.Second,
		DiurnalAmplitude: 1, MaxFlows: 4096,
	}
	var firstHalf, secondHalf int
	for seed := int64(1); seed <= 5; seed++ {
		for _, f := range Generate(cfg, 9, 100*time.Second, sim.NewRand(seed)) {
			if f.At < 50*time.Second {
				firstHalf++
			} else {
				secondHalf++
			}
		}
	}
	if firstHalf <= 2*secondHalf {
		t.Fatalf("diurnal modulation absent: %d arrivals in peak half vs %d in trough half", firstHalf, secondHalf)
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	rng := sim.NewRand(5)
	const lo, hi = 100, 1000000
	small, n := 0, 20000
	for i := 0; i < n; i++ {
		x := boundedPareto(rng, 1.5, lo, hi)
		if x < lo || x > hi {
			t.Fatalf("draw %d outside bounds", x)
		}
		if x < 10*lo {
			small++
		}
	}
	// α=1.5: P(X < 10·L) = 1 − (L/10L)^1.5 ≈ 0.968 — mice dominate.
	if frac := float64(small) / float64(n); frac < 0.9 || frac > 0.99 {
		t.Fatalf("mice fraction %v, want ≈0.97", frac)
	}
}

func TestEngineLifecycle(t *testing.T) {
	sched := sim.NewScheduler()
	flows := []Flow{
		{At: 1 * time.Second, Lifetime: 5 * time.Second, Src: 1, Dst: 0},
		{At: 2 * time.Second, Lifetime: 100 * time.Second, Src: 2, Dst: 0},
		{At: 3 * time.Second, Lifetime: 2 * time.Second, Src: 3, Dst: 0},
	}
	var admits, departs, sheds, rejects []packet.FlowID
	eng := Start(sched, flows, 10, Hooks{
		Admit: func(id packet.FlowID, f Flow) admission.Reason {
			if f.Src == 3 {
				return admission.CliqueOverload
			}
			return 0
		},
		OnAdmit:  func(id packet.FlowID, f Flow) { admits = append(admits, id) },
		OnReject: func(id packet.FlowID, f Flow, r admission.Reason) { rejects = append(rejects, id) },
		OnDepart: func(id packet.FlowID, f Flow) { departs = append(departs, id) },
		OnShed:   func(id packet.FlowID, f Flow) { sheds = append(sheds, id) },
	})
	// Shed flow 11 at t=4s, before its natural departure at 102s.
	sched.At(4*time.Second, func() { eng.Shed(11) })
	sched.Run(200 * time.Second)

	arr, adm, rej, shed := eng.Counts()
	if arr != 3 || adm != 2 || rej != 1 || shed != 1 {
		t.Fatalf("counts = %d,%d,%d,%d want 3,2,1,1", arr, adm, rej, shed)
	}
	if len(admits) != 2 || admits[0] != 10 || admits[1] != 11 {
		t.Fatalf("admits = %v", admits)
	}
	if len(rejects) != 1 || rejects[0] != 12 {
		t.Fatalf("rejects = %v", rejects)
	}
	if len(departs) != 1 || departs[0] != 10 {
		t.Fatalf("departs = %v (shed flow must not also depart)", departs)
	}
	if len(sheds) != 1 || sheds[0] != 11 {
		t.Fatalf("sheds = %v", sheds)
	}
	if eng.Active(10) || eng.Active(11) || eng.Active(12) {
		t.Fatal("flows still active after run")
	}
	decs := eng.Decisions()
	if len(decs) != 4 {
		t.Fatalf("decisions = %+v, want 4 entries", decs)
	}
	last := decs[3]
	if last.Flow != 11 || last.Admitted || last.Reason != admission.Shed {
		t.Fatalf("shed decision = %+v", last)
	}
}

package gmp

import (
	"runtime"
	"testing"
	"time"
)

// TestSessionAllocsPerFrame pins the simulator's allocation rate end to
// end: a 100 s Figure 4 GMP session allocates at most 0.5 objects per
// frame put on the air, set-up included. The frame exchange itself
// allocates nothing (the AllocsPerRun pins in internal/radio and
// internal/mac); what remains is the packet each source generates and
// the per-period measurement and rate-control work.
func TestSessionAllocsPerFrame(t *testing.T) {
	cfg := Config{Scenario: Fig4Scenario(), Protocol: ProtocolGMP, Duration: 100 * time.Second, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	frames := res.Channel.Transmissions
	if frames == 0 {
		t.Fatal("session put no frames on the air")
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
	t.Logf("%d mallocs over %d frames: %.3f per frame", after.Mallocs-before.Mallocs, frames, perFrame)
	const maxPerFrame = 0.5
	if perFrame > maxPerFrame {
		t.Errorf("session allocates %.3f objects per frame, want <= %v", perFrame, maxPerFrame)
	}
}

// TestMetersRecordedWhereRead checks which sessions record per-hop
// meters: under 802.11 nobody reads them and no node fills either map,
// central GMP's collector reads the send side only, and gmp-dist's
// agents read both. Each session stops mid-period, between two takes.
func TestMetersRecordedWhereRead(t *testing.T) {
	for _, tc := range []struct {
		proto          Protocol
		sent, received bool
	}{
		{Protocol80211, false, false},
		{ProtocolGMP, true, false},
		{ProtocolGMPDistributed, true, true},
	} {
		cfg := Config{Scenario: Fig3Scenario(), Protocol: tc.proto, Duration: 10 * time.Second, Seed: 1}.WithDefaults()
		s, err := newSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.start(); err != nil {
			t.Fatal(err)
		}
		s.sched.Run(cfg.Period + cfg.Period/2)
		sent, received := 0, 0
		for _, n := range s.nodes {
			sent += len(n.TakeMeters())
			received += len(n.TakeReceived())
		}
		if (sent > 0) != tc.sent || (received > 0) != tc.received {
			t.Errorf("%v: %d send and %d receive meters, want recorded %v and %v", tc.proto, sent, received, tc.sent, tc.received)
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gmp"
	"gmp/internal/baseline"
	"gmp/internal/clique"
	"gmp/internal/geom"
	"gmp/internal/maxminref"
	"gmp/internal/mobility"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/scenario"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// buildLayers times the build stages of gmp.Run by calling the same
// public functions on the session's inputs, each samples times after a
// forced GC, and reports medians. Static sessions route lazily, as
// RunContext does; a mobility session routes eagerly and also replays its
// motion epochs.
func buildLayers(cfg gmp.Config, samples int) (map[string]float64, error) {
	sc := cfg.Scenario
	mobile := cfg.Mobility != nil
	m := map[string]float64{}
	var err error
	timeIt := func(name string, f func() error) {
		var xs []float64
		for i := 0; i < samples && err == nil; i++ {
			runtime.GC()
			start := time.Now()
			err = f()
			xs = append(xs, time.Since(start).Seconds())
		}
		m[name] = median(xs)
	}

	var topo *topology.Topology
	timeIt("topology.new_s", func() (e error) {
		topo, e = topology.New(sc.Positions, sc.Radio)
		return e
	})
	var cliques *clique.Set
	timeIt("clique.build_s", func() error {
		cliques = clique.Build(topo)
		return nil
	})
	if err != nil {
		return m, fmt.Errorf("timing build layers: %w", err)
	}
	m["clique.count"] = float64(len(cliques.All()))

	var routes *routing.Table
	timeIt("routing.build_s", func() error {
		if mobile {
			routes = routing.Build(topo)
		} else {
			routes = routing.BuildLazy(topo)
		}
		for _, f := range sc.Flows {
			if routes.HopCount(f.Src, f.Dst) <= 0 {
				return fmt.Errorf("flow %d has no route", f.ID)
			}
		}
		return nil
	})

	refFlows := make([]maxminref.FlowSpec, len(sc.Flows))
	size := scenario.DefaultPacketBytes
	for i, f := range sc.Flows {
		refFlows[i] = maxminref.FlowSpec{Src: f.Src, Dst: f.Dst, Weight: f.Weight, Demand: f.DesiredRate}
		size = max(size, f.SizeBytes)
	}
	capacity := baseline.UniformCliqueCapacity(radio.DefaultParams().SaturationRate(size, !cfg.DisableRTS))
	timeIt("maxminref.solve_s", func() error {
		p, e := maxminref.BuildProblem(refFlows, routes, cliques, capacity)
		if e != nil {
			return e
		}
		_, e = p.Solve()
		return e
	})

	var move, update, rebuild []float64
	if mobile && err == nil {
		move, update, rebuild, err = replayMobility(cfg)
	}
	m["topology.move_s"] = median(move)
	m["clique.update_s"] = median(update)
	m["routing.rebuild_s"] = median(rebuild)
	if err != nil {
		return m, fmt.Errorf("timing build layers: %w", err)
	}
	return m, nil
}

// replayMobility drives the session's mobility model through
// mobility.Start on a bare scheduler and times, per epoch, what
// RunContext does to the network: MoveNodes, and when the adjacency
// changed, clique.Update and an eager routing.BuildExcluding. The
// trajectories come from the session seed, not from gmp.Run's internal
// draw order, so they match the run's statistically, not step by step.
func replayMobility(cfg gmp.Config) (move, update, rebuild []float64, err error) {
	sc := cfg.Scenario
	topo, err := topology.New(sc.Positions, sc.Radio)
	if err != nil {
		return nil, nil, nil, err
	}
	cliques := clique.Build(topo)
	sched := sim.NewScheduler()
	onEpoch := func(moved []topology.NodeID, pos []geom.Point) {
		start := time.Now()
		diff, merr := topo.MoveNodes(moved, pos)
		move = append(move, time.Since(start).Seconds())
		if merr != nil {
			err = merr
			sched.Stop()
			return
		}
		if !diff.Changed() {
			return
		}
		start = time.Now()
		cliques = clique.Update(topo, cliques, diff.Moved)
		update = append(update, time.Since(start).Seconds())
		start = time.Now()
		routing.BuildExcluding(topo, nil)
		rebuild = append(rebuild, time.Since(start).Seconds())
	}
	if _, serr := mobility.Start(sched, sc.Positions, *cfg.Mobility, sim.NewRand(cfg.Seed), onEpoch); serr != nil {
		return nil, nil, nil, serr
	}
	sched.Run(cfg.Duration)
	return move, update, rebuild, err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

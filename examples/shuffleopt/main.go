// Shuffleopt reproduces the Figure 10 idea: a topology optimized for a
// specific traffic pattern (the gem5 shuffle permutation) outperforms
// both expert designs and uniform-optimized NetSmith topologies on that
// pattern.
package main

import (
	"fmt"
	"log"

	"netsmith"
)

func main() {
	grid := netsmith.Grid4x5
	shuffle := netsmith.ShuffleTraffic(grid.N())

	run := func(t *netsmith.Topology, expertRouting bool) {
		var net *netsmith.Network
		var err error
		if expertRouting {
			net, err = netsmith.PrepareNDBT(t)
		} else {
			net, err = netsmith.Prepare(t)
		}
		if err != nil {
			log.Fatal(err)
		}
		sweep, err := netsmith.Sweep(net, shuffle, nil, true, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12.2f %18.3f\n", t.Name, sweep.ZeroLoadLatencyNs, sweep.SaturationPerNs)
	}

	fmt.Printf("%-22s %12s %18s\n", "Topology", "Latency(ns)", "SatTput(pkt/n/ns)")
	kite, err := netsmith.Baseline("Kite-Medium", grid)
	if err != nil {
		log.Fatal(err)
	}
	run(kite, true)

	uniformOpt, err := netsmith.Generate(netsmith.Options{
		Grid: grid, Class: netsmith.Medium, Objective: netsmith.LatOp,
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	run(uniformOpt.Topology, false)

	shufOpt, err := netsmith.Generate(netsmith.Options{
		Grid: grid, Class: netsmith.Medium, Objective: netsmith.PatternOp,
		Weights: netsmith.ShuffleWeights(grid.N()),
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}
	shufOpt.Topology.Name = "NS-ShufOpt-medium"
	run(shufOpt.Topology, false)

	// Same pattern-optimized synthesis, equal evaluation budget, two
	// search strategies: 6 parallel restarts of 6000 steps each versus a
	// population of 4 evolved for 5 generations of 1500-step bursts
	// (both 36000 annealing steps). Fixed budgets are deterministic, so
	// this comparison is reproducible run to run.
	restartOpt, err := netsmith.Generate(netsmith.Options{
		Grid: grid, Class: netsmith.Medium, Objective: netsmith.PatternOp,
		Weights: netsmith.ShuffleWeights(grid.N()),
		Seed:    42, Iterations: 6000, Restarts: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	restartOpt.Topology.Name = "NS-ShufOpt-restarts"
	run(restartOpt.Topology, false)

	popOpt, err := netsmith.Generate(netsmith.Options{
		Grid: grid, Class: netsmith.Medium, Objective: netsmith.PatternOp,
		Weights: netsmith.ShuffleWeights(grid.N()),
		Seed:    42, Iterations: 1500, Restarts: 1,
		Population: 4, Generations: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	popOpt.Topology.Name = "NS-ShufOpt-population"
	run(popOpt.Topology, false)
	fmt.Printf("weighted-hop objective: restarts %.0f vs population %.0f (equal 36000-step budget)\n",
		restartOpt.Objective, popOpt.Objective)
}

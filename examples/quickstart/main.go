// Quickstart: discover a latency-optimized 20-router interposer
// topology, compare it against the Kite expert design, and simulate
// uniform-random traffic on both.
//
// For the full workload registry (transpose, tornado, hotspot, bursty,
// trace replay, ...) over many topologies at once, see
// examples/scenarios and `netbench -matrix`.
package main

import (
	"fmt"
	"log"

	"netsmith"
)

func main() {
	// 1. Generate a latency-optimized topology for the paper's 4x5
	//    interposer layout with medium (2,0) links.
	res, err := netsmith.Generate(netsmith.Options{
		Grid:      netsmith.Grid4x5,
		Class:     netsmith.Medium,
		Objective: netsmith.LatOp,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ns := res.Topology
	fmt.Printf("discovered %s: %d links, diameter %d, avg hops %.3f (bounds gap %.1f%%)\n",
		ns.Name, ns.NumLinks(), ns.Diameter(), ns.AverageHops(), 100*res.Gap)

	// 2. Load the expert-designed competitor.
	kite, err := netsmith.Baseline("Kite-Medium", netsmith.Grid4x5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expert    %s: %d links, diameter %d, avg hops %.3f\n",
		kite.Name, kite.NumLinks(), kite.Diameter(), kite.AverageHops())

	// 3. Prepare (routing + deadlock-free VCs) and simulate both.
	for _, t := range []*netsmith.Topology{ns, kite} {
		var net *netsmith.Network
		if t == ns {
			net, err = netsmith.Prepare(t) // MCLB routing
		} else {
			net, err = netsmith.PrepareNDBT(t) // expert heuristic routing
		}
		if err != nil {
			log.Fatal(err)
		}
		sweep, err := netsmith.SweepUniform(net, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s zero-load %.2f ns, saturation %.3f packets/node/ns\n",
			t.Name, sweep.ZeroLoadLatencyNs, sweep.SaturationPerNs)
	}
}

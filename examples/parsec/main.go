// Parsec runs the paper's full-system experiment (Figure 8) on a small
// scale: a 64-core, 4-chiplet system over mesh and NetSmith NoIs, driven
// by trace-parameterized PARSEC workloads, reporting execution-time
// speedup and packet-latency reduction relative to mesh.
package main

import (
	"fmt"
	"log"

	"netsmith"
)

func main() {
	// Baseline: mesh NoI with expert routing.
	meshSys, err := netsmith.BuildFullSystemExpert(netsmith.Mesh(netsmith.Grid4x5), 1)
	if err != nil {
		log.Fatal(err)
	}
	// Contender: NetSmith latency-optimized medium NoI with MCLB.
	res, err := netsmith.Generate(netsmith.Options{
		Grid: netsmith.Grid4x5, Class: netsmith.Medium,
		Objective: netsmith.LatOp, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	nsSys, err := netsmith.BuildFullSystem(res.Topology, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %12s %12s %9s %12s\n", "Benchmark", "mesh lat(ns)", "NS lat(ns)", "Speedup", "LatReduction")
	workloads := netsmith.PARSECWorkloads()
	// Light-medium-heavy subset keeps the example quick.
	for _, i := range []int{0, 5, 11} {
		w := workloads[i]
		base, err := netsmith.RunWorkload(meshSys, w, 1, true)
		if err != nil {
			log.Fatal(err)
		}
		ns, err := netsmith.RunWorkload(nsSys, w, 1, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.2f %12.2f %9.3f %11.1f%%\n",
			w.Name, base.AvgPacketNs, ns.AvgPacketNs,
			base.CPI/ns.CPI, 100*(1-ns.AvgPacketNs/base.AvgPacketNs))
	}
}

// Scenarios runs the full workload registry — the paper's three
// patterns plus the classic adversarial ones (transpose, bit-complement,
// bit-reverse, tornado), a configurable hotspot and bursty MMPP
// modulation — over a machine-discovered topology and the mesh baseline,
// and reports where synthesis pays off and where it does not.
//
// The same matrix is available from the command line:
//
//	netbench -matrix -grid 4x5 -class medium -csv out/
package main

import (
	"fmt"
	"log"

	"netsmith"
)

func main() {
	// 1. Discover a latency-optimized 4x5 topology with medium links and
	//    build the expert mesh it competes against.
	res, err := netsmith.Generate(netsmith.Options{
		Grid:      netsmith.Grid4x5,
		Class:     netsmith.Medium,
		Objective: netsmith.LatOp,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ns, err := netsmith.Prepare(res.Topology) // MCLB routing + VCs
	if err != nil {
		log.Fatal(err)
	}
	mesh, err := netsmith.PrepareNDBT(netsmith.Mesh(netsmith.Grid4x5))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Assemble the scenario matrix: every registry pattern with its
	//    default parameters, plus a sharpened hotspot to show
	//    parameterization (80% of traffic to the two corner routers).
	var patterns []netsmith.PatternFactory
	for _, name := range netsmith.PatternNames() {
		patterns = append(patterns, netsmith.PatternFactoryFor(name, netsmith.Grid4x5, nil))
	}
	patterns = append(patterns, netsmith.PatternFactory{
		Name: "hotspot80",
		New: func() (netsmith.Pattern, error) {
			return netsmith.BuildPattern("hotspot", netsmith.Grid4x5,
				map[string]string{"weight": "0.8", "hot": "0+19"})
		},
	})

	// 3. Run {2 topologies x 10 patterns x 3 rates}: deterministic at
	//    any GOMAXPROCS, each cell seeded from its matrix position.
	//    CollectEnergy turns on the engine's activity counters, so every
	//    cell also reports measured power and energy per flit.
	matrix, err := netsmith.RunMatrix(netsmith.MatrixConfig{
		Setups:   []*netsmith.Network{mesh, ns},
		Patterns: patterns,
		Rates:    []float64{0.02, 0.08, 0.14},
		Base: netsmith.SimConfig{ // fast-fidelity cycle budgets
			WarmupCycles: 1500, MeasureCycles: 4000, DrainCycles: 6000,
			CollectEnergy: true,
		},
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare saturation throughput and measured energy pattern by
	//    pattern (energy at the lowest offered rate: the zero-load cost
	//    of running the fabric).
	fmt.Printf("%-12s %10s %10s %8s %12s %12s\n",
		"pattern", "mesh sat", "NS sat", "NS/mesh", "mesh pJ/flit", "NS pJ/flit")
	for _, p := range patterns {
		m := matrix.Curve(mesh.Topo.Name, p.Name)
		n := matrix.Curve(ns.Topo.Name, p.Name)
		ratio := 0.0
		if m.SaturationPerNs > 0 {
			ratio = n.SaturationPerNs / m.SaturationPerNs
		}
		fmt.Printf("%-12s %10.4f %10.4f %7.2fx %12.2f %12.2f\n",
			p.Name, m.SaturationPerNs, n.SaturationPerNs, ratio,
			m.Points[0].EnergyPerFlitPJ, n.Points[0].EnergyPerFlitPJ)
	}
	fmt.Println("\n(sat = accepted packets/node/ns before latency exceeds 5x zero-load;")
	fmt.Println(" permutation patterns concentrate flows, so they stress the discovered")
	fmt.Println(" long links far harder than uniform traffic does; pJ/flit is measured")
	fmt.Println(" dynamic energy per delivered flit — fewer hops means fewer buffer and")
	fmt.Println(" link traversals, which is where synthesized topologies save energy)")
}

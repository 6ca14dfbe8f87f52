// Customlayout demonstrates the paper's generality claim: NetSmith is
// not tied to the 4x5 interposer. Here it designs a network for a wide
// 3x8 accelerator-style layout with a tight radix-3 budget and a
// diameter constraint, then verifies every constraint of Table I on the
// result.
package main

import (
	"fmt"
	"log"

	"netsmith"
)

func main() {
	grid := netsmith.NewGrid(3, 8)
	res, err := netsmith.Generate(netsmith.Options{
		Grid:        grid,
		Class:       netsmith.Large,
		Objective:   netsmith.LatOp,
		Radix:       3, // C2: tight port budget
		MaxDiameter: 5, // C8: latency guarantee
		Symmetric:   true,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	t := res.Topology
	fmt.Printf("layout: %s, radix 3, symmetric links, diameter <= 5\n", grid)
	fmt.Printf("result: %d links, diameter %d, avg hops %.3f, bisection %d\n",
		t.NumLinks(), t.Diameter(), t.AverageHops(), t.BisectionBandwidth())

	check := func(name string, ok bool) {
		status := "ok"
		if !ok {
			status = "VIOLATED"
		}
		fmt.Printf("  %-28s %s\n", name, status)
	}
	check("C2 radix", t.RespectsRadix(3))
	check("C3 link lengths", t.RespectsLinkLengths())
	check("C8 diameter", t.Diameter() <= 5)
	check("C9 symmetry", t.IsSymmetric())
	check("strong connectivity", t.IsConnected())

	mesh := netsmith.Mesh(grid)
	fmt.Printf("mesh on the same layout: avg hops %.3f — NetSmith saves %.1f%%\n",
		mesh.AverageHops(), 100*(1-t.AverageHops()/mesh.AverageHops()))
}

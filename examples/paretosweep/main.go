// Paretosweep traces the latency / throughput / energy trade-off the
// paper motivates: a ParetoSweep synthesizes one topology per energy
// weight (fixed iteration budgets, so every run of this example prints
// identical numbers), measures each under uniform traffic, prunes
// dominated points and reports the surviving frontier with fleet-level
// energy accounting. Expert designs are printed first for context —
// the frontier's low-latency end should land near the best of them.
package main

import (
	"fmt"
	"log"

	"netsmith"
)

func main() {
	fmt.Printf("%-22s %12s %18s\n", "Expert topology", "Latency(ns)", "SatTput(pkt/n/ns)")
	for _, name := range []string{"Kite-Medium", "Butter Donut", "Double Butterfly"} {
		t, err := netsmith.Baseline(name, netsmith.Grid4x5)
		if err != nil {
			log.Fatal(err)
		}
		net, err := netsmith.PrepareNDBT(t)
		if err != nil {
			log.Fatal(err)
		}
		sweep, err := netsmith.SweepUniform(net, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12.2f %18.3f\n", t.Name, sweep.ZeroLoadLatencyNs, sweep.SaturationPerNs)
	}
	fmt.Println()

	// A deterministic sweep: a small Iterations/Restarts budget, one
	// synthesis per energy weight. Attach a store via
	// ParetoConfig.Store to make re-runs instant.
	fr, err := netsmith.ParetoSweep(netsmith.ParetoConfig{
		Base: netsmith.Options{
			Grid: netsmith.Grid4x5, Class: netsmith.Medium, Objective: netsmith.LatOp,
			Seed: 42, Iterations: 3000, Restarts: 2,
		}.SynthConfig(),
		EnergyWeights: []float64{0, 1, 2},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %6s %12s %18s %10s %10s\n",
		"Energy w", "Links", "Latency(ns)", "SatTput(pkt/n/ns)", "Power(mW)", "pJ/flit")
	for _, p := range fr.Points {
		fmt.Printf("%-10g %6d %12.2f %18.3f %10.2f %10.2f\n",
			p.EnergyWeight, p.Links, p.LatencyNs, p.SaturationPerNs, p.AvgPowerMW, p.EnergyPerFlitPJ)
	}
	fe := fr.Energy
	fmt.Printf("\nfrontier: %d of %d swept points survive (%d dominated)\n",
		len(fr.Points), fr.Swept, fr.Pruned)
	fmt.Printf("fleet: %.2f mW aggregate (%.1f%% idle, %.1f%% active), %.2f pJ/flit mean\n",
		fe.AggregatePowerMW, 100*fe.IdleShare, 100*fe.ActiveShare, fe.EnergyPerFlitPJ)
}

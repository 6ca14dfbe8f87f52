package exp

import (
	"fmt"
	"io"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// Fig10Curve is one topology's behaviour under the shuffle pattern,
// including the shuffle-optimized NetSmith topology (Figure 10).
type Fig10Curve struct {
	Topology string
	Class    string
	Sweep    *sim.SweepResult
}

// Fig10 evaluates the shuffle traffic pattern on the 20-router
// topologies plus NS-ShufOpt per class.
func (s *Suite) Fig10() ([]Fig10Curve, error) {
	g := layout.Grid4x5
	shuffle := traffic.Shuffle(g.N())
	var tops []*topo.Topology
	for _, name := range []string{expert.NameKiteSmall, expert.NameFoldedTorus,
		expert.NameKiteMedium, expert.NameButterDonut, expert.NameKiteLarge} {
		t, err := expert.Get(name, g)
		if err != nil {
			return nil, err
		}
		tops = append(tops, t)
	}
	for _, c := range layout.Classes() {
		t, err := s.NS(g, c, synth.LatOp)
		if err != nil {
			return nil, err
		}
		tops = append(tops, t)
		shuf, err := s.NSShufOpt(g, c)
		if err != nil {
			return nil, err
		}
		tops = append(tops, shuf)
	}
	var curves []Fig10Curve
	for _, t := range tops {
		sr, err := s.curve(t, shuffle)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", t.Name, err)
		}
		curves = append(curves, Fig10Curve{Topology: t.Name, Class: t.Class.String(), Sweep: sr})
	}
	return curves, nil
}

// PrintFig10 renders the shuffle study.
func PrintFig10(w io.Writer, curves []Fig10Curve) {
	fmt.Fprintln(w, "Figure 10: shuffle traffic on shuffle-optimized topologies (20 routers)")
	fmt.Fprintf(w, "%-22s %-7s %12s %18s\n", "Topology", "Class", "ZeroLoad(ns)", "SatTput(pkt/n/ns)")
	for _, c := range curves {
		fmt.Fprintf(w, "%-22s %-7s %12.2f %18.3f\n",
			c.Topology, c.Class, c.Sweep.ZeroLoadLatencyNs, c.Sweep.SaturationPerNs)
	}
}

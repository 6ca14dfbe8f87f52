package exp

import (
	"fmt"
	"io"

	"netsmith/internal/layout"
	"netsmith/internal/synth"
)

// Fig5Trace is one solver-progress curve: objective-bounds gap vs
// annealing steps for a LatOp synthesis run (the paper's Figure 5).
type Fig5Trace struct {
	Grid   string
	Class  string
	Points []synth.ProgressPoint
	// FinalGap is the bounds gap once the step budget is spent.
	FinalGap float64
}

// Fig5 runs LatOp synthesis with progress tracking for the 20-, 30- and
// 48-router layouts across all three link-length classes. The paper
// plots the gap against Gurobi wall time; here the axis is cumulative
// annealing steps, so the traces are the same on any machine. Each run
// spends a fixed number of 60000-step restarts, scaled with Fast (the
// shapes — smaller classes converge to smaller gaps — reproduce at any
// budget).
func (s *Suite) Fig5() ([]Fig5Trace, error) {
	grids := []*layout.Grid{layout.Grid4x5, layout.Grid6x5, layout.Grid8x6}
	restarts := map[*layout.Grid]int{layout.Grid4x5: 64, layout.Grid6x5: 48, layout.Grid8x6: 32}
	if s.Fast {
		restarts = map[*layout.Grid]int{layout.Grid4x5: 16, layout.Grid6x5: 12, layout.Grid8x6: 8}
	}
	var traces []Fig5Trace
	for _, g := range grids {
		for _, c := range layout.Classes() {
			res, err := synth.Generate(synth.Config{
				Grid: g, Class: c, Objective: synth.LatOp,
				Seed: s.Seed, Iterations: 60000, Restarts: restarts[g],
			})
			if err != nil {
				return nil, err
			}
			traces = append(traces, Fig5Trace{
				Grid:     fmt.Sprintf("%dx%d", g.Rows, g.Cols),
				Class:    c.String(),
				Points:   res.Trace,
				FinalGap: res.Gap,
			})
		}
	}
	return traces, nil
}

// PrintFig5 renders each trace as (steps, gap) samples.
func PrintFig5(w io.Writer, traces []Fig5Trace) {
	fmt.Fprintln(w, "Figure 5: solver objective-bounds gap vs annealing steps (LatOp)")
	for _, tr := range traces {
		fmt.Fprintf(w, "  %s %s: final gap %.1f%%; trace:", tr.Grid, tr.Class, 100*tr.FinalGap)
		step := len(tr.Points)/6 + 1
		for i := 0; i < len(tr.Points); i += step {
			p := tr.Points[i]
			fmt.Fprintf(w, " (%d, %.0f%%)", p.Steps, 100*p.Gap)
		}
		if n := len(tr.Points); n > 0 {
			p := tr.Points[n-1]
			fmt.Fprintf(w, " (%d, %.0f%%)", p.Steps, 100*p.Gap)
		}
		fmt.Fprintln(w)
	}
}

// Package expert provides the baseline network-on-interposer topologies
// NetSmith is compared against: the expert-designed networks (Mesh,
// Folded Torus, the Kite family, Butter Donut, Double Butterfly) and the
// prior-work synthesized networks (LPBT-Power, LPBT-Hops).
//
// Mesh and Folded Torus are fully constructive for any grid. The original
// papers for Kite, Butter Donut and Double Butterfly publish figures and
// metrics but not adjacency lists, so this package carries frozen link
// lists calibrated to the published Table II metrics (#links, diameter,
// average hops, bisection bandwidth); see calibrate.go and DESIGN.md for
// the methodology, and Table II's paper_* columns (netbench -exp table2)
// for achieved-vs-published numbers.
package expert

import (
	"fmt"

	"netsmith/internal/layout"
	"netsmith/internal/topo"
)

// Mesh builds the standard 2D mesh (the normalization baseline of the
// paper's Figures 8 and 9).
func Mesh(g *layout.Grid) *topo.Topology {
	t := topo.New("Mesh", g, layout.Small)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if c+1 < g.Cols {
				t.AddLink(g.Router(r, c), g.Router(r, c+1))
				t.AddLink(g.Router(r, c+1), g.Router(r, c))
			}
			if r+1 < g.Rows {
				t.AddLink(g.Router(r, c), g.Router(r+1, c))
				t.AddLink(g.Router(r+1, c), g.Router(r, c))
			}
		}
	}
	return t
}

// foldedRingOrder returns the visiting order of a folded (interleaved)
// ring over k linearly placed nodes: 0, 2, 4, ..., 5, 3, 1. Consecutive
// ring neighbors are at most two physical positions apart, so a folded
// torus fits the medium (2,0) link budget.
func foldedRingOrder(k int) []int {
	order := make([]int, 0, k)
	for i := 0; i < k; i += 2 {
		order = append(order, i)
	}
	start := k - 1 // largest odd index when k is even
	if k%2 == 1 {
		start = k - 2
	}
	for i := start; i >= 1; i -= 2 {
		order = append(order, i)
	}
	return order
}

// FoldedTorus builds a folded torus: one folded ring per row and per
// column. All links span at most two grid hops, so it is a medium-class
// topology.
func FoldedTorus(g *layout.Grid) *topo.Topology {
	t := topo.New("Folded Torus", g, layout.Medium)
	for r := 0; g.Cols >= 2 && r < g.Rows; r++ {
		order := foldedRingOrder(g.Cols)
		for i := range order {
			a := g.Router(r, order[i])
			b := g.Router(r, order[(i+1)%len(order)])
			t.AddLink(a, b)
			t.AddLink(b, a)
		}
	}
	for c := 0; g.Rows >= 2 && c < g.Cols; c++ {
		order := foldedRingOrder(g.Rows)
		for i := range order {
			a := g.Router(order[i], c)
			b := g.Router(order[(i+1)%len(order)], c)
			t.AddLink(a, b)
			t.AddLink(b, a)
		}
	}
	return t
}

// Baseline names used throughout the experiments.
const (
	NameMesh            = "Mesh"
	NameFoldedTorus     = "Folded Torus"
	NameKiteSmall       = "Kite-Small"
	NameKiteMedium      = "Kite-Medium"
	NameKiteLarge       = "Kite-Large"
	NameButterDonut     = "Butter Donut"
	NameDoubleButterfly = "Double Butterfly"
	NameLPBTPower       = "LPBT-Power"
	NameLPBTHopsSmall   = "LPBT-Hops-Small"
	NameLPBTHopsMedium  = "LPBT-Hops-Medium"
)

// Get builds the named baseline for the given grid. Mesh and Folded Torus
// are constructive for any grid; the remaining baselines are available at
// the grid sizes the paper evaluates (4x5, 6x5 and — for a subset that
// scales — 8x6).
func Get(name string, g *layout.Grid) (*topo.Topology, error) {
	switch name {
	case NameMesh:
		return Mesh(g), nil
	case NameFoldedTorus:
		return FoldedTorus(g), nil
	}
	key := frozenKey{name: name, rows: g.Rows, cols: g.Cols}
	f, ok := frozen[key]
	if !ok {
		return nil, fmt.Errorf("expert: no %q baseline for %s", name, g)
	}
	t := topo.FromPairs(name, g, f.class, f.pairs)
	return t, nil
}

// Names lists the baselines available for a grid, in presentation order.
func Names(g *layout.Grid) []string {
	all := []string{
		NameMesh, NameFoldedTorus,
		NameKiteSmall, NameKiteMedium, NameKiteLarge,
		NameButterDonut, NameDoubleButterfly,
		NameLPBTPower, NameLPBTHopsSmall, NameLPBTHopsMedium,
	}
	var out []string
	for _, n := range all {
		if n == NameMesh || n == NameFoldedTorus {
			out = append(out, n)
			continue
		}
		if _, ok := frozen[frozenKey{name: n, rows: g.Rows, cols: g.Cols}]; ok {
			out = append(out, n)
		}
	}
	return out
}

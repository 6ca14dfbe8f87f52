package exp

import (
	"bytes"
	"strings"
	"testing"

	"netsmith/internal/layout"
	"netsmith/internal/synth"
)

// suite is shared across tests: experiments cache synthesized topologies
// and prepared setups.
var suite = NewSuite(true)

func TestTable2NetSmithDominates(t *testing.T) {
	rows, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Index 20-router rows by name.
	byName := map[string]Table2Row{}
	for _, r := range rows {
		if r.Routers == 20 {
			byName[r.Topology] = r
		}
	}
	// The paper's headline: in medium and large classes NetSmith beats
	// every expert topology on average hops (LatOp) and bisection
	// bandwidth (SCOp).
	for _, c := range []struct {
		cls     string
		experts []string
	}{
		{"medium", []string{"Folded Torus", "Kite-Medium", "LPBT-Hops-Medium"}},
		{"large", []string{"Butter Donut", "Double Butterfly", "Kite-Large"}},
	} {
		lat := byName["NS-LatOp-"+c.cls]
		sc := byName["NS-SCOp-"+c.cls]
		for _, e := range c.experts {
			er, ok := byName[e]
			if !ok {
				t.Fatalf("missing expert row %s", e)
			}
			if lat.AvgHops >= er.AvgHops {
				t.Errorf("%s: NS-LatOp avg hops %.3f not below %s %.3f",
					c.cls, lat.AvgHops, e, er.AvgHops)
			}
			if sc.Bisection < er.Bisection {
				t.Errorf("%s: NS-SCOp bisection %d below %s %d",
					c.cls, sc.Bisection, e, er.Bisection)
			}
		}
	}
	// Small class: Kite-Small is (per the paper) essentially optimal;
	// NS must at least match its bisection and come within 3% on hops.
	kite := byName["Kite-Small"]
	nsLat := byName["NS-LatOp-small"]
	if nsLat.AvgHops > kite.AvgHops*1.03 {
		t.Errorf("NS-LatOp-small %.3f much worse than Kite-Small %.3f", nsLat.AvgHops, kite.AvgHops)
	}
	// Cost neutrality: NetSmith uses at most the radix-4 link budget.
	for name, r := range byName {
		if strings.HasPrefix(name, "NS-") && r.Links > 40 {
			t.Errorf("%s uses %d links, beyond the 40 full-duplex budget", name, r.Links)
		}
	}
}

func TestTable2Print(t *testing.T) {
	rows, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Kite-Small", "NS-LatOp-medium", "Folded Torus", "30"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestFig5TracesConverge(t *testing.T) {
	traces, err := suite.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 9 {
		t.Fatalf("9 traces expected (3 grids x 3 classes), got %d", len(traces))
	}
	gaps := map[string]map[string]float64{}
	for _, tr := range traces {
		if len(tr.Points) == 0 {
			t.Errorf("%s %s: empty trace", tr.Grid, tr.Class)
			continue
		}
		// Gap must be non-increasing over the trace (incumbent only
		// improves; bound fixed), and the step axis never runs
		// backwards.
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i].Gap > tr.Points[i-1].Gap+1e-9 {
				t.Errorf("%s %s: gap increased", tr.Grid, tr.Class)
				break
			}
			if tr.Points[i].Steps < tr.Points[i-1].Steps {
				t.Errorf("%s %s: steps decreased %d -> %d", tr.Grid, tr.Class,
					tr.Points[i-1].Steps, tr.Points[i].Steps)
				break
			}
		}
		if tr.FinalGap < 0 || tr.FinalGap > 0.5 {
			t.Errorf("%s %s: final gap %.2f implausible", tr.Grid, tr.Class, tr.FinalGap)
		}
		if gaps[tr.Grid] == nil {
			gaps[tr.Grid] = map[string]float64{}
		}
		gaps[tr.Grid][tr.Class] = tr.FinalGap
	}
	// The paper's observation: smaller link-length budgets converge to
	// smaller gaps, on every grid.
	for grid, g := range gaps {
		if !(g["small"] < g["medium"] && g["medium"] < g["large"]) {
			t.Errorf("%s: final gaps small %.4f, medium %.4f, large %.4f are not ascending",
				grid, g["small"], g["medium"], g["large"])
		}
	}
}

func TestFig7BoundsHold(t *testing.T) {
	rows, err := suite.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	var nsMCLB, bestExpertMCLB float64
	for _, r := range rows {
		// Measured throughput must respect the analytic upper bounds
		// (within simulator slack: Bernoulli injection can momentarily
		// exceed; allow 10%).
		bound := r.CutBound
		if r.OccupancyBound < bound {
			bound = r.OccupancyBound
		}
		if r.MCLB > bound*1.10 {
			t.Errorf("%s: measured MCLB %.3f exceeds bound %.3f", r.Topology, r.MCLB, bound)
		}
		// MCLB routing should not lose to the NDBT heuristic.
		if r.MCLB < r.NDBT*0.92 {
			t.Errorf("%s: MCLB %.3f clearly below NDBT %.3f", r.Topology, r.MCLB, r.NDBT)
		}
		if strings.HasPrefix(r.Topology, "NS-") {
			if r.MCLB > nsMCLB {
				nsMCLB = r.MCLB
			}
		} else if r.MCLB > bestExpertMCLB {
			bestExpertMCLB = r.MCLB
		}
	}
	// NetSmith large topologies outperform experts even when experts get
	// MCLB routing (the paper's isolation claim).
	if nsMCLB <= bestExpertMCLB {
		t.Errorf("NS large MCLB %.3f not above best expert MCLB %.3f", nsMCLB, bestExpertMCLB)
	}
}

func TestFig9RelativePower(t *testing.T) {
	rows, err := suite.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Topology] = r
	}
	for name, r := range byName {
		// Leakage near mesh (same router count, similar links).
		if r.Leakage < 0.7 || r.Leakage > 2.2 {
			t.Errorf("%s leakage %.2fx mesh implausible", name, r.Leakage)
		}
		// Wire area should exceed mesh for richer topologies.
		if r.TotalAreaR < 0.5 || r.TotalAreaR > 4 {
			t.Errorf("%s area %.2fx mesh implausible", name, r.TotalAreaR)
		}
	}
	// Large NetSmith vs small NetSmith: slower clock lowers dynamic
	// power (paper: ~17% lower).
	large, small := byName["NS-LatOp-large"], byName["NS-LatOp-small"]
	if large.Dynamic >= small.Dynamic*1.15 {
		t.Errorf("NS large dynamic %.2f should not far exceed NS small %.2f", large.Dynamic, small.Dynamic)
	}
}

func TestNSShufOptBeatsUniformOnShuffle(t *testing.T) {
	g := layout.Grid4x5
	shuf, err := suite.NSShufOpt(g, layout.Medium)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := suite.NS(g, layout.Medium, synth.LatOp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(shuf.Name, "NS-ShufOpt") {
		t.Errorf("name %q", shuf.Name)
	}
	// Weighted hops on the shuffle matrix must be no worse than the
	// uniform-optimized topology's.
	w := make([][]float64, g.N())
	for i := range w {
		w[i] = make([]float64, g.N())
	}
	for src := 0; src < g.N(); src++ {
		dst := 2 * src
		if src >= g.N()/2 {
			dst = (2*src + 1) % g.N()
		}
		if dst != src {
			w[src][dst] = 1
		}
	}
	if shuf.WeightedAverageHops(w) > lat.WeightedAverageHops(w)+1e-9 {
		t.Errorf("ShufOpt weighted hops %.3f worse than LatOp %.3f",
			shuf.WeightedAverageHops(w), lat.WeightedAverageHops(w))
	}
}

func TestSuiteCaching(t *testing.T) {
	a, err := suite.NS(layout.Grid4x5, layout.Medium, synth.LatOp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := suite.NS(layout.Grid4x5, layout.Medium, synth.LatOp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("NS topologies must be cached per (grid, class, objective)")
	}
}

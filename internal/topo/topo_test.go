package topo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netsmith/internal/layout"
)

// ring builds a unidirectional ring topology over an n-router 1xN grid.
func ring(n int) *Topology {
	g := layout.NewGrid(1, n)
	t := New("ring", g, layout.Large)
	for i := 0; i < n; i++ {
		t.AddLink(i, (i+1)%n)
	}
	return t
}

// mesh4x5 builds a bidirectional 4x5 mesh.
func mesh4x5() *Topology {
	g := layout.Grid4x5
	t := New("mesh", g, layout.Small)
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

func TestAddRemoveLinks(t *testing.T) {
	g := layout.NewGrid(2, 2)
	tp := New("t", g, layout.Small)
	if tp.Has(0, 1) {
		t.Fatal("empty topology has a link")
	}
	tp.AddLink(0, 1)
	tp.AddLink(0, 1) // idempotent
	if !tp.Has(0, 1) || tp.Has(1, 0) {
		t.Fatal("directed link semantics broken")
	}
	if tp.NumDirectedLinks() != 1 || tp.NumLinks() != 1 {
		t.Fatalf("link counts: directed=%d links=%d", tp.NumDirectedLinks(), tp.NumLinks())
	}
	tp.AddLink(1, 0)
	if tp.NumDirectedLinks() != 2 || tp.NumLinks() != 1 {
		t.Fatalf("bidirectional pair should count as one link: directed=%d links=%d",
			tp.NumDirectedLinks(), tp.NumLinks())
	}
	tp.RemoveLink(0, 1)
	if tp.Has(0, 1) || !tp.Has(1, 0) {
		t.Fatal("remove broke wrong direction")
	}
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink(i,i) must panic")
		}
	}()
	New("t", layout.NewGrid(2, 2), layout.Small).AddLink(1, 1)
}

// The 70-router ring takes the multi-word bitset path.
func TestRingMetrics(t *testing.T) {
	for _, n := range []int{8, 70} {
		tp := ring(n)
		if !tp.IsConnected() {
			t.Fatalf("n=%d: ring must be strongly connected", n)
		}
		if d := tp.Diameter(); d != n-1 {
			t.Errorf("n=%d: unidirectional ring diameter = %d, want %d", n, d, n-1)
		}
		// Average hops of a unidirectional ring: mean of 1..n-1 = n/2.
		want := float64(n) / 2
		if got := tp.AverageHops(); math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: ring avg hops = %v, want %v", n, got, want)
		}
		if tp.IsSymmetric() {
			t.Errorf("n=%d: unidirectional ring must not be symmetric", n)
		}
	}
}

func TestMeshMetrics(t *testing.T) {
	tp := mesh4x5()
	if !tp.IsConnected() {
		t.Fatal("mesh must be connected")
	}
	if !tp.IsSymmetric() {
		t.Error("mesh must be symmetric")
	}
	if d := tp.Diameter(); d != 3+4 {
		t.Errorf("4x5 mesh diameter = %d, want 7", d)
	}
	if got := tp.NumLinks(); got != 31 {
		t.Errorf("4x5 mesh links = %d, want 31", got)
	}
	// Mesh average hops = E[|dx|] + E[|dy|] over uniform pairs.
	got := tp.AverageHops()
	var sum, pairs float64
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if a == b {
				continue
			}
			ra, ca := tp.Grid.Pos(a)
			rb, cb := tp.Grid.Pos(b)
			sum += math.Abs(float64(ra-rb)) + math.Abs(float64(ca-cb))
			pairs++
		}
	}
	if want := sum / pairs; math.Abs(got-want) > 1e-12 {
		t.Errorf("mesh avg hops = %v, want %v", got, want)
	}
	if !tp.RespectsRadix(4) {
		t.Error("mesh should respect radix 4")
	}
	if !tp.RespectsLinkLengths() {
		t.Error("mesh links are all (1,0)/(0,1), within small budget")
	}
}

// Two bidirectional rings with no link between them, on one word and
// on several.
func TestDisconnected(t *testing.T) {
	for _, n := range []int{4, 70} {
		tp := New("disc", layout.NewGrid(1, n), layout.Large)
		for i := 0; i < n/2; i++ {
			for _, off := range []int{0, n / 2} {
				a, b := off+i, off+(i+1)%(n/2)
				tp.AddLink(a, b)
				tp.AddLink(b, a)
			}
		}
		if tp.IsConnected() {
			t.Fatalf("n=%d: should be disconnected", n)
		}
		if _, ok := tp.TotalHops(); ok {
			t.Errorf("n=%d: TotalHops must report disconnection", n)
		}
		if !math.IsInf(tp.AverageHops(), 1) {
			t.Errorf("n=%d: AverageHops must be +Inf when disconnected", n)
		}
		if tp.Diameter() != Unreachable {
			t.Errorf("n=%d: Diameter must be Unreachable when disconnected", n)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tp := mesh4x5()
	c := tp.Clone()
	c.RemoveLink(0, 1)
	if !tp.Has(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.CanonicalLinkList() == tp.CanonicalLinkList() {
		t.Fatal("canonical lists should differ after mutation")
	}
}

func TestWeightedAverageHops(t *testing.T) {
	tp := mesh4x5()
	n := tp.N()
	uniform := make([][]float64, n)
	for i := range uniform {
		uniform[i] = make([]float64, n)
		for j := range uniform[i] {
			if i != j {
				uniform[i][j] = 1
			}
		}
	}
	if got, want := tp.WeightedAverageHops(uniform), tp.AverageHops(); math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform weighted avg %v != avg %v", got, want)
	}
	// Weight only one adjacent pair: expect exactly 1 hop.
	single := make([][]float64, n)
	for i := range single {
		single[i] = make([]float64, n)
	}
	single[0][1] = 5
	if got := tp.WeightedAverageHops(single); got != 1 {
		t.Errorf("single-pair weighted avg = %v, want 1", got)
	}
}

func TestEvaluateCutMesh(t *testing.T) {
	tp := mesh4x5()
	// Vertical bisection: columns 0-1 (plus half of col 2? no: cols 0,1)
	// vs 2,3,4 is unbalanced; use left 10 routers = cols 0,1 of each row
	// ... build col<2.5 split: cols {0,1} has 8 routers. For bisection use
	// columns {0,1} + two of col 2.
	var mask uint64
	for r := 0; r < 4; r++ {
		for c := 0; c < 2; c++ {
			mask |= 1 << uint(tp.Grid.Router(r, c))
		}
	}
	cut := tp.EvaluateCutMask(mask)
	// Links crossing col1-col2 boundary: 4 horizontal pairs each way.
	if cut.CrossUV != 4 || cut.CrossVU != 4 {
		t.Errorf("mesh column cut crossings = (%d,%d), want (4,4)", cut.CrossUV, cut.CrossVU)
	}
	if want := 4.0 / float64(8*12); math.Abs(cut.Bandwidth-want) > 1e-12 {
		t.Errorf("cut bandwidth = %v, want %v", cut.Bandwidth, want)
	}
}

func TestBisectionBandwidthMesh(t *testing.T) {
	tp := mesh4x5()
	// 4x5 mesh balanced (10/10) min cut: a horizontal cut between rows 1
	// and 2 crosses the 5 vertical links of each column; a staggered
	// vertical cut also needs 5. Exhaustive enumeration confirms 5.
	got := tp.BisectionBandwidth()
	if got != 5 {
		t.Errorf("4x5 mesh bisection = %d, want 5", got)
	}
}

func TestSparsestCutRing(t *testing.T) {
	// Bidirectional ring of 8: sparsest cut splits into two arcs of 4,
	// crossing 2 links each way; B = 2/(4*4) = 0.125.
	g := layout.NewGrid(1, 8)
	tp := New("biring", g, layout.Large)
	for i := 0; i < 8; i++ {
		tp.AddLink(i, (i+1)%8)
		tp.AddLink((i+1)%8, i)
	}
	cut := tp.SparsestCut()
	if want := 2.0 / 16.0; math.Abs(cut.Bandwidth-want) > 1e-12 {
		t.Errorf("ring sparsest cut = %v, want %v", cut.Bandwidth, want)
	}
}

func TestSparsestCutAsymmetric(t *testing.T) {
	// A graph with many U->V links but only one V->U link: the sparsest
	// cut must use the min direction.
	g := layout.NewGrid(1, 4)
	tp := New("asym", g, layout.Large)
	// Strongly connected: 0->1->2->3->0 plus extra forward links.
	for i := 0; i < 4; i++ {
		tp.AddLink(i, (i+1)%4)
	}
	tp.AddLink(0, 2)
	cut := tp.SparsestCut()
	if cut.Bandwidth > 1.0/3.0+1e-12 {
		t.Errorf("asymmetric sparsest cut = %v, want <= 1/3", cut.Bandwidth)
	}
}

func TestHeuristicCutNeverBelowExact(t *testing.T) {
	// On small graphs the heuristic must never report a cut sparser than
	// the exhaustive optimum (it samples a subset of partitions).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		g := layout.NewGrid(3, 4)
		tp := New("rand", g, layout.Large)
		for a := 0; a < 12; a++ {
			for b := 0; b < 12; b++ {
				if a != b && rng.Float64() < 0.3 {
					tp.AddLink(a, b)
				}
			}
		}
		if !tp.IsConnected() {
			continue
		}
		exact := tp.exactSparsestCut()
		heur := tp.HeuristicSparsestCut(16, rng)
		if heur.Bandwidth < exact.Bandwidth-1e-12 {
			t.Fatalf("heuristic %v beat exact %v", heur.Bandwidth, exact.Bandwidth)
		}
	}
}

func TestTotalWireLength(t *testing.T) {
	tp := mesh4x5()
	// 62 directed links each pitch long.
	want := 62 * tp.Grid.PitchMM
	if got := tp.TotalWireLengthMM(); math.Abs(got-want) > 1e-9 {
		t.Errorf("wire length = %v, want %v", got, want)
	}
}

// Property: for random connected topologies, avg hops >= 1, diameter >=
// avg hops, and the sparsest cut is no larger than any sampled cut.
func TestCutAndHopProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := layout.NewGrid(2, 5)
		tp := New("prop", g, layout.Large)
		for a := 0; a < 10; a++ {
			for b := 0; b < 10; b++ {
				if a != b && rng.Float64() < 0.35 {
					tp.AddLink(a, b)
				}
			}
		}
		if !tp.IsConnected() {
			return true // vacuous
		}
		avg := tp.AverageHops()
		if avg < 1 {
			return false
		}
		if float64(tp.Diameter()) < avg {
			return false
		}
		sc := tp.SparsestCut()
		for i := 0; i < 20; i++ {
			mask := uint64(rng.Intn(1022) + 1) // non-trivial partitions of 10 nodes
			if tp.EvaluateCutMask(mask).Bandwidth < sc.Bandwidth-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDenseLinkIDs verifies the dense directed-link numbering: IDs are
// contiguous, enumerate links in Links() order, survive round-trips
// through LinkByID, and stay consistent across mutations.
func TestDenseLinkIDs(t *testing.T) {
	tp := mesh4x5()
	links := tp.Links()
	if len(links) != tp.NumDirectedLinks() {
		t.Fatalf("Links() len %d != NumDirectedLinks %d", len(links), tp.NumDirectedLinks())
	}
	for id, l := range links {
		if got := tp.LinkID(l.From, l.To); got != id {
			t.Fatalf("LinkID(%d,%d) = %d, want %d", l.From, l.To, got, id)
		}
		if got := tp.LinkByID(id); got != l {
			t.Fatalf("LinkByID(%d) = %v, want %v", id, got, l)
		}
	}
	if tp.LinkID(0, 19) != -1 {
		t.Error("absent link must have ID -1")
	}
	// Mutation invalidates and renumbers.
	before := tp.NumDirectedLinks()
	tp.RemoveLink(links[0].From, links[0].To)
	if tp.NumDirectedLinks() != before-1 {
		t.Fatalf("link count after removal: %d", tp.NumDirectedLinks())
	}
	if tp.LinkID(links[0].From, links[0].To) != -1 {
		t.Error("removed link still has an ID")
	}
	for id, l := range tp.Links() {
		if tp.LinkID(l.From, l.To) != id {
			t.Fatalf("IDs not contiguous after mutation")
		}
	}
	tp.AddLink(links[0].From, links[0].To)
	if tp.LinkID(links[0].From, links[0].To) == -1 {
		t.Error("re-added link has no ID")
	}
}

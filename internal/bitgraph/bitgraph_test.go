package bitgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Words returns the number of Set words per row.
func (g *Graph) Words() int { return g.w }

func TestAddRemoveInvariants(t *testing.T) {
	g := New(8)
	g.Add(0, 1)
	g.Add(1, 2)
	g.Add(0, 1) // idempotent
	if g.NumLinks() != 2 {
		t.Fatalf("links = %d, want 2", g.NumLinks())
	}
	if !g.Has(0, 1) || g.Has(1, 0) {
		t.Fatal("directedness broken")
	}
	if g.OutDeg[0] != 1 || g.InDeg[1] != 1 || g.InDeg[2] != 1 {
		t.Fatal("degree counters wrong")
	}
	g.Remove(0, 1)
	g.Remove(0, 1) // idempotent
	if g.NumLinks() != 1 || g.Has(0, 1) {
		t.Fatal("remove broken")
	}
	if g.OutDeg[0] != 0 || g.InDeg[1] != 0 {
		t.Fatal("degree counters not restored")
	}
}

func TestNewBounds(t *testing.T) {
	for _, bad := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) must panic", bad)
				}
			}()
			New(bad)
		}()
	}
	g := New(64)
	if g.Full()[0] != ^uint64(0) || g.Words() != 1 {
		t.Error("64-node full mask wrong")
	}
	// Beyond 64 nodes the graph switches to multi-word rows.
	big := New(130)
	if big.Words() != 3 || big.Full().Count() != 130 {
		t.Errorf("130-node graph: words=%d full=%d, want 3 words, 130 bits",
			big.Words(), big.Full().Count())
	}
	big.Add(0, 129)
	big.Add(129, 64)
	if !big.Has(0, 129) || !big.Has(129, 64) || big.Has(64, 129) {
		t.Error("cross-word links broken")
	}
	if big.OutDeg[129] != 1 || big.InDeg[64] != 1 {
		t.Error("cross-word degree counters wrong")
	}
}

func TestHopStatsLine(t *testing.T) {
	// Directed line 0->1->2->3: total = (1+2+3)+(1+2)+1 = 10 reachable;
	// unreachable = all backward pairs = 6; diameter 3.
	g := New(4)
	g.Add(0, 1)
	g.Add(1, 2)
	g.Add(2, 3)
	total, unreachable, diam := g.HopStats()
	if total != 10 || unreachable != 6 || diam != 3 {
		t.Errorf("HopStats = (%d,%d,%d), want (10,6,3)", total, unreachable, diam)
	}
}

func TestCutBandwidthDirected(t *testing.T) {
	// 2 links 0->1 and 1->0 plus 2->... partition {0} vs {1}:
	g := New(2)
	g.Add(0, 1)
	if got := g.CutBandwidth(SetOf(2, 0)); got != 1.0 {
		// one direction has 1 crossing, the other 0: min = 0.
		if got != 0 {
			t.Errorf("one-way cut bandwidth = %v, want 0 (min direction)", got)
		}
	}
	g.Add(1, 0)
	if got := g.CutBandwidth(SetOf(2, 0)); got != 1.0 {
		t.Errorf("two-way cut bandwidth = %v, want 1", got)
	}
}

func TestPoolMin(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.Add(i, (i+1)%4)
		g.Add((i+1)%4, i)
	}
	// Ring of 4: cut {0,1} crosses 2 each way: B = 2/4 = 0.5.
	// Cut {0,2} crosses 4 each way: B = 1.
	pool := []Set{MaskSet(4, 0b0011), MaskSet(4, 0b0101)}
	if got := g.PoolMin(pool); got != 0.5 {
		t.Errorf("pool min = %v, want 0.5", got)
	}
	if math.IsInf(g.CutBandwidth(NewSet(4)), 1) != true {
		t.Error("empty partition must be +Inf")
	}
}

// Property: graphs with the same link set canonicalize to identical
// link lists regardless of insertion/removal history.
func TestCanonicalCloneOrderIndependent(t *testing.T) {
	a := New(5)
	for _, l := range [][2]int{{3, 1}, {0, 2}, {1, 4}, {2, 3}} {
		a.Add(l[0], l[1])
	}
	b := New(5)
	// Same final set, scrambled history: extra links added and removed.
	b.Add(1, 4)
	b.Add(4, 0)
	b.Add(2, 3)
	b.Add(0, 2)
	b.Remove(4, 0)
	b.Add(3, 1)
	ca, cb := a.CanonicalClone(), b.CanonicalClone()
	if len(ca.Links()) != len(cb.Links()) {
		t.Fatalf("link counts differ: %d vs %d", len(ca.Links()), len(cb.Links()))
	}
	for i := range ca.Links() {
		if ca.LinkAt(i) != cb.LinkAt(i) {
			t.Fatalf("link %d differs: %v vs %v", i, ca.LinkAt(i), cb.LinkAt(i))
		}
		if i > 0 {
			p, q := ca.LinkAt(i-1), ca.LinkAt(i)
			if p.A > q.A || (p.A == q.A && p.B >= q.B) {
				t.Fatalf("canonical list not sorted at %d: %v then %v", i, p, q)
			}
		}
	}
	// The clone is independent of the original.
	ca.Remove(0, 2)
	if !a.Has(0, 2) {
		t.Fatal("canonical clone shares state with the original")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(4)
	g.Add(0, 1)
	c := g.Clone()
	c.Add(1, 2)
	c.Remove(0, 1)
	if !g.Has(0, 1) || g.Has(1, 2) {
		t.Fatal("clone shares state")
	}
	// CopyFrom into a graph with other links must leave exactly g's
	// links, in g's order, and share nothing with g.
	g.Add(3, 0)
	g.Add(2, 0)
	d := New(4)
	d.Add(2, 3)
	d.Add(3, 0)
	d.CopyFrom(g)
	if got, want := d.Links(), g.Links(); !slices.Equal(got, want) {
		t.Fatalf("CopyFrom links %v, want %v", got, want)
	}
	if d.Has(2, 3) || d.OutDeg[2] != 1 || d.InDeg[3] != 0 || d.InDeg[0] != 2 {
		t.Fatal("CopyFrom kept the old links' state")
	}
	d.Remove(3, 0)
	if !g.Has(3, 0) {
		t.Fatal("CopyFrom shares state")
	}
	if d.Add(1, 3); !slices.Equal(d.Links(), []Link{{0, 1}, {2, 0}, {1, 3}}) {
		t.Fatalf("CopyFrom left a stale link index: links %v", d.Links())
	}
}

// Property: multi-word HopStats agrees with Floyd-Warshall across the
// 64-node word boundary.
func TestHopStatsMatchesFloydWarshallMultiWord(t *testing.T) {
	if err := quick.Check(hopStatsMatchesFW(60, 20, 0.06), &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: HopStats total/unreachable match a reference Floyd-Warshall
// on random graphs.
func TestHopStatsMatchesFloydWarshall(t *testing.T) {
	if err := quick.Check(hopStatsMatchesFW(5, 8, 0.3), &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func hopStatsMatchesFW(nBase, nSpread int, p float64) func(seed int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := nBase + rng.Intn(nSpread)
		g := New(n)
		const inf = 1 << 20
		d := make([][]int, n)
		for i := range d {
			d[i] = make([]int, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = inf
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < p {
					g.Add(i, j)
					d[i][j] = 1
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		var wantTotal int64
		wantUnreach, wantDiam := 0, 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if d[i][j] >= inf {
					wantUnreach++
				} else {
					wantTotal += int64(d[i][j])
					if d[i][j] > wantDiam {
						wantDiam = d[i][j]
					}
				}
			}
		}
		total, unreach, diam := g.HopStats()
		return total == wantTotal && unreach == wantUnreach && diam == wantDiam
	}
}

// Property: MinCross symmetry — MinCross(U) == MinCross(complement).
func TestMinCrossComplement(t *testing.T) {
	f := func(seed int64, maskRaw uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.4 {
					g.Add(i, j)
				}
			}
		}
		mask := MaskSet(n, maskRaw)
		return g.MinCross(mask) == g.MinCross(mask.ComplementWithin(g.Full()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

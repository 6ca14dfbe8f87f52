package topo

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
)

// EvaluateCutMask is EvaluateCut for a single-word partition mask
// (networks of at most 64 routers).
func (t *Topology) EvaluateCutMask(uMask uint64) Cut {
	return t.EvaluateCut(bitgraph.MaskSet(t.n, uMask))
}

// scanSparsestCut is the reference exhaustive search: every partition
// with router 0 in U, in ascending mask order, recounting the crossings
// of each from scratch and keeping the first float minimum. The Gray-code
// walk in exactSparsestCut must reproduce it exactly.
func (t *Topology) scanSparsestCut() Cut {
	n := t.n
	out := t.outMasks()
	in := t.inMasks()
	full := uint64(1)<<uint(n) - 1
	bestBW := math.Inf(1)
	var bestMask uint64
	bestUV, bestVU := 0, 0
	limit := uint64(1) << uint(n-1)
	for s := uint64(0); s < limit; s++ {
		uMask := (s << 1) | 1
		vMask := full &^ uMask
		if vMask == 0 {
			continue
		}
		sizeU := bits.OnesCount64(uMask)
		sizeV := n - sizeU
		crossUV, crossVU := 0, 0
		for rem := uMask; rem != 0; rem &= rem - 1 {
			a := bits.TrailingZeros64(rem)
			crossUV += bits.OnesCount64(out[a] & vMask)
			crossVU += bits.OnesCount64(in[a] & vMask)
		}
		minCross := min(crossUV, crossVU)
		if bw := float64(minCross) / float64(sizeU*sizeV); bw < bestBW {
			bestBW = bw
			bestMask = uMask
			bestUV, bestVU = crossUV, crossVU
		}
	}
	return Cut{U: bitgraph.MaskSet(n, bestMask), CrossUV: bestUV, CrossVU: bestVU, Bandwidth: bestBW}
}

// cutTestGraphs returns random n-router topologies of several shapes:
// sparse, dense and complete random digraphs (the complete one makes
// every balanced partition tie), bidirectional rings (many equal
// arcs), two disconnected halves and an empty graph (every partition
// ties at zero).
func cutTestGraphs(n int, rng *rand.Rand) []*Topology {
	g := layout.NewGrid(1, n)
	var ts []*Topology
	for _, p := range []float64{0.1, 0.3, 0.6, 1} {
		t := New("rand", g, layout.Large)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && rng.Float64() < p {
					t.AddLink(a, b)
				}
			}
		}
		ts = append(ts, t)
	}
	biring := New("biring", g, layout.Large)
	for i := 0; i < n; i++ {
		biring.AddLink(i, (i+1)%n)
		biring.AddLink((i+1)%n, i)
	}
	split := New("split", g, layout.Large)
	half := n / 2
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && (a < half) == (b < half) && rng.Float64() < 0.5 {
				split.AddLink(a, b)
			}
		}
	}
	return append(ts, biring, split, New("empty", g, layout.Large))
}

// TestExactSparsestCutMatchesScan pins the Gray-code enumeration to the
// ascending reference scan: the same partition (ties included), the
// same crossing counts and the bit-identical bandwidth, for every size
// from 2 to 20 routers.
func TestExactSparsestCutMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 2; n <= 20; n++ {
		for _, tp := range cutTestGraphs(n, rng) {
			got, want := tp.exactSparsestCut(), tp.scanSparsestCut()
			if !got.U.Equal(want.U) || got.CrossUV != want.CrossUV || got.CrossVU != want.CrossVU ||
				math.Float64bits(got.Bandwidth) != math.Float64bits(want.Bandwidth) {
				t.Fatalf("n=%d %s: Gray-code cut {U:%v UV:%d VU:%d B:%v} != scan {U:%v UV:%d VU:%d B:%v}",
					n, tp.Name, got.U, got.CrossUV, got.CrossVU, got.Bandwidth,
					want.U, want.CrossUV, want.CrossVU, want.Bandwidth)
			}
		}
	}
}

// recountBisection is the reference heuristic bisection: the same
// restarts and greedy swaps as heuristicBisection, but each candidate
// swap is applied and its crossings recounted in full with
// MinCross.
func (t *Topology) recountBisection(restarts int, rng *rand.Rand) (bitgraph.Set, int) {
	n := t.n
	half := n / 2
	bg := t.bitGraph()
	best := math.MaxInt32
	var bestSet bitgraph.Set
	evalBalanced := func(u bitgraph.Set) {
		if cr := bg.MinCross(u); cr < best {
			best = cr
			bestSet = u.Clone()
		}
	}
	order := t.fiedlerOrder()
	m := bitgraph.NewSet(n)
	for i := 0; i < half; i++ {
		m.Add(order[i])
	}
	evalBalanced(m)
	for r := 0; r < restarts; r++ {
		perm := rng.Perm(n)
		cur := bitgraph.NewSet(n)
		for i := 0; i < half; i++ {
			cur.Add(perm[i])
		}
		// Greedy swap improvement preserving balance.
		improved := true
		for improved {
			improved = false
			curVal := bg.MinCross(cur)
			bestVal := curVal
			bestA, bestB := -1, -1
			for a := 0; a < n; a++ {
				if !cur.Has(a) {
					continue
				}
				for b := 0; b < n; b++ {
					if cur.Has(b) {
						continue
					}
					cur.Flip(a)
					cur.Flip(b)
					if v := bg.MinCross(cur); v < bestVal {
						bestVal, bestA, bestB = v, a, b
					}
					cur.Flip(a)
					cur.Flip(b)
				}
			}
			if bestA >= 0 {
				cur.Flip(bestA)
				cur.Flip(bestB)
				improved = true
			}
		}
		evalBalanced(cur)
	}
	return bestSet, best
}

// TestHeuristicBisectionMatchesRecount pins the swap-delta bisection
// search to the full-recount reference on random graphs of 25 to 100
// routers (beyond ExactCutLimit, multi-word bitsets included): the same
// partition and the same crossing count. The 25-router graphs go
// through BisectionCut itself; the larger ones run fewer restarts so
// the reference's recounts stay cheap.
func TestHeuristicBisectionMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(tp *Topology, gotSet bitgraph.Set, got, restarts int, seed int64) {
		t.Helper()
		wantSet, want := tp.recountBisection(restarts, rand.New(rand.NewSource(seed)))
		if !gotSet.Equal(wantSet) || got != want {
			t.Fatalf("n=%d %s: swap-delta bisection {%v %d} != recount {%v %d}",
				tp.N(), tp.Name, gotSet, got, wantSet, want)
		}
	}
	for _, tp := range cutTestGraphs(25, rng) {
		gotSet, got := tp.BisectionCut() // 200 restarts from seed 7
		check(tp, gotSet, got, 200, 7)
	}
	for _, c := range []struct{ n, restarts int }{{37, 24}, {66, 6}, {100, 2}} {
		for i, tp := range cutTestGraphs(c.n, rng) {
			gotSet, got := tp.heuristicBisection(c.restarts, rand.New(rand.NewSource(int64(i))))
			check(tp, gotSet, got, c.restarts, int64(i))
		}
	}
}

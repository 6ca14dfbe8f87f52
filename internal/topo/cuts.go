package topo

import (
	"math"
	"math/bits"
	"math/rand"

	"netsmith/internal/bitgraph"
)

// ExactCutLimit is the largest router count for which cut metrics are
// computed by exhaustive partition enumeration (2^(n-1) subsets). Beyond
// this, Kernighan–Lin style local search seeded by a Fiedler-vector sweep
// is used; the heuristic value is an upper bound on the true minimum.
const ExactCutLimit = 24

// Cut describes a two-way partition of the routers and its bandwidth.
type Cut struct {
	// U holds the routers in partition U; V is the complement. Networks
	// beyond 64 routers are supported (U is a multi-word bitset).
	U bitgraph.Set
	// CrossUV and CrossVU count directed links from U to V and V to U.
	CrossUV, CrossVU int
	// Bandwidth is the paper's B(U,V): min-direction crossings divided by
	// |U|*|V| (the minimum of the two directions is the true bottleneck
	// for asymmetric links).
	Bandwidth float64
}

// Size returns |U|.
func (c Cut) Size() int { return c.U.Count() }

// bitGraph returns the cached bitset view of the topology.
func (t *Topology) bitGraph() *bitgraph.Graph {
	t.refresh()
	return t.bg
}

// outMasks returns, for each router, the single-word bitmask of its
// out-neighbors; callers must guarantee n <= 64 (the exhaustive paths,
// gated on ExactCutLimit, do).
func (t *Topology) outMasks() []uint64 {
	bg := t.bitGraph()
	masks := make([]uint64, t.n)
	for a := 0; a < t.n; a++ {
		masks[a] = bg.OutRow(a)[0]
	}
	return masks
}

// inMasks returns, for each router, the single-word bitmask of its
// in-neighbors (n <= 64 only, as for outMasks).
func (t *Topology) inMasks() []uint64 {
	bg := t.bitGraph()
	masks := make([]uint64, t.n)
	for a := 0; a < t.n; a++ {
		masks[a] = bg.InRow(a)[0]
	}
	return masks
}

// EvaluateCut computes the cut defined by u (partition U) against its
// complement. The set must have been created for this topology's router
// count.
func (t *Topology) EvaluateCut(u bitgraph.Set) Cut {
	bg := t.bitGraph()
	uc := u.Clone()
	full := bg.Full()
	for i := range uc {
		uc[i] &= full[i]
	}
	crossUV, crossVU := bg.Cross(uc)
	sizeU := uc.Count()
	sizeV := t.n - sizeU
	bw := math.Inf(1)
	if sizeU > 0 && sizeV > 0 {
		minCross := crossUV
		if crossVU < minCross {
			minCross = crossVU
		}
		bw = float64(minCross) / float64(sizeU*sizeV)
	}
	return Cut{U: uc, CrossUV: crossUV, CrossVU: crossVU, Bandwidth: bw}
}

// SparsestCut returns the cut minimizing B(U,V) = minCross/(|U||V|) over
// all two-way partitions (constraint C6 of Table I). For n <= ExactCutLimit
// the search is exhaustive (router 0 pinned to U, halving the space); for
// larger networks a heuristic (see HeuristicSparsestCut) is used and the
// result is an upper bound on the true minimum.
func (t *Topology) SparsestCut() Cut {
	if t.n <= ExactCutLimit {
		return t.exactSparsestCut()
	}
	return t.HeuristicSparsestCut(64, rand.New(rand.NewSource(1)))
}

// exactSparsestCut enumerates every partition with router 0 pinned to U
// in Gray-code order over routers 1..n-1, so consecutive partitions
// differ by one router and the crossing counts update with four
// popcounts per step instead of a rescan of U. Bandwidths compare
// exactly by integer cross-multiplication, and ties go to the smallest
// U mask: the result is the first minimum of an ascending mask scan.
func (t *Topology) exactSparsestCut() Cut {
	n := t.n
	out := t.outMasks()
	in := t.inMasks()
	full := uint64(1)<<uint(n) - 1
	uMask := uint64(1)
	sizeU := 1
	crossUV := bits.OnesCount64(out[0] & (full &^ 1))
	crossVU := bits.OnesCount64(in[0] & (full &^ 1))
	// bestMin/bestPairs is the best bandwidth as a fraction; 1/0 stands
	// for +Inf until a proper partition is seen.
	bestMin, bestPairs := 1, 0
	var bestMask uint64
	bestUV, bestVU := 0, 0
	limit := uint64(1) << uint(n-1)
	for i := uint64(1); ; i++ {
		if uMask != full {
			minCross := min(crossUV, crossVU)
			pairs := sizeU * (n - sizeU)
			lhs, rhs := minCross*bestPairs, bestMin*pairs
			if lhs < rhs || (lhs == rhs && uMask < bestMask) {
				bestMin, bestPairs = minCross, pairs
				bestMask = uMask
				bestUV, bestVU = crossUV, crossVU
			}
		}
		if i == limit {
			break
		}
		// Gray step i flips router x = 1 + trailing zeros of i; sign is
		// +1 when x joins U and -1 when it leaves.
		x := 1 + bits.TrailingZeros64(i)
		xb := uint64(1) << uint(x)
		uMask ^= xb
		sign := int(uMask>>uint(x)&1)*2 - 1
		oU := uMask &^ xb
		oV := full &^ uMask &^ xb
		crossUV += sign * (bits.OnesCount64(out[x]&oV) - bits.OnesCount64(in[x]&oU))
		crossVU += sign * (bits.OnesCount64(in[x]&oV) - bits.OnesCount64(out[x]&oU))
		sizeU += sign
	}
	if bestPairs == 0 {
		return Cut{U: bitgraph.MaskSet(n, 0), Bandwidth: math.Inf(1)}
	}
	bw := float64(bestMin) / float64(bestPairs)
	return Cut{U: bitgraph.MaskSet(n, bestMask), CrossUV: bestUV, CrossVU: bestVU, Bandwidth: bw}
}

// HeuristicSparsestCut searches for a low-bandwidth cut using restarts of
// greedy single-node moves (Kernighan–Lin style) plus one Fiedler-vector
// sweep seed. It returns the best cut found; its bandwidth is an upper
// bound on the true sparsest cut.
func (t *Topology) HeuristicSparsestCut(restarts int, rng *rand.Rand) Cut {
	n := t.n
	best := Cut{Bandwidth: math.Inf(1)}
	consider := func(mask bitgraph.Set) {
		c := t.EvaluateCut(mask)
		if s := c.Size(); s == 0 || s == n {
			return
		}
		c = t.localImproveCut(c.U)
		if c.Bandwidth < best.Bandwidth {
			best = c
		}
	}
	// Fiedler sweep seed: order routers by approximate second Laplacian
	// eigenvector, try every prefix cut.
	order := t.fiedlerOrder()
	mask := bitgraph.NewSet(n)
	for i := 0; i < n-1; i++ {
		mask.Add(order[i])
		consider(mask)
	}
	// Random restarts.
	for r := 0; r < restarts; r++ {
		m := bitgraph.NewSet(n)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				m.Add(v)
			}
		}
		consider(m)
	}
	return best
}

// localImproveCut greedily moves single routers across the cut while the
// bandwidth decreases.
func (t *Topology) localImproveCut(u bitgraph.Set) Cut {
	n := t.n
	cur := t.EvaluateCut(u)
	work := cur.U.Clone()
	improved := true
	for improved {
		improved = false
		for v := 0; v < n; v++ {
			work.Flip(v)
			next := t.EvaluateCut(work)
			if s := next.Size(); s == 0 || s == n || next.Bandwidth >= cur.Bandwidth {
				work.Flip(v) // revert
				continue
			}
			cur = next
			improved = true
		}
	}
	return cur
}

// fiedlerOrder approximates the Fiedler (second Laplacian eigen-) vector
// of the symmetrized graph by power iteration with deflation of the
// all-ones vector, returning routers sorted by component value.
func (t *Topology) fiedlerOrder() []int {
	n := t.n
	// Symmetrized adjacency weights.
	w := make([][]float64, n)
	deg := make([]float64, n)
	for a := 0; a < n; a++ {
		w[a] = make([]float64, n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if t.adj[a][b] || t.adj[b][a] {
				w[a][b] = 1
			}
		}
	}
	maxDeg := 0.0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			deg[a] += w[a][b]
		}
		if deg[a] > maxDeg {
			maxDeg = deg[a]
		}
	}
	// Power-iterate on M = (maxDeg+1)I - L, whose dominant eigenvector
	// after deflating the constant vector is the Fiedler vector.
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*1.7 + 0.3) // deterministic non-constant seed
	}
	y := make([]float64, n)
	for iter := 0; iter < 200; iter++ {
		// Deflate constant component.
		mean := 0.0
		for _, v := range x {
			mean += v
		}
		mean /= float64(n)
		for i := range x {
			x[i] -= mean
		}
		// y = Mx = (maxDeg+1)x - Lx = (maxDeg+1)x - deg*x + Wx
		for i := 0; i < n; i++ {
			sum := (maxDeg + 1 - deg[i]) * x[i]
			for j := 0; j < n; j++ {
				if w[i][j] != 0 {
					sum += w[i][j] * x[j]
				}
			}
			y[i] = sum
		}
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort by x value
		for j := i; j > 0 && x[order[j]] < x[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// BisectionBandwidth returns the minimum min-direction crossing count over
// balanced partitions (|U| = n/2, or (n±1)/2 for odd n), matching Table
// II's "Bi. BW" column. Exhaustive for n <= ExactCutLimit, heuristic
// beyond.
func (t *Topology) BisectionBandwidth() int {
	_, bw := t.BisectionCut()
	return bw
}

// BisectionCut returns a minimizing balanced partition along with its
// min-direction crossing count (the bisection bandwidth).
func (t *Topology) BisectionCut() (bitgraph.Set, int) {
	n := t.n
	half := n / 2
	if n <= ExactCutLimit {
		out := t.outMasks()
		in := t.inMasks()
		full := uint64(1)<<uint(n) - 1
		best := math.MaxInt32
		var bestMask uint64
		// Enumerate subsets of {1..n-1} of size half-1 (router 0 in U) and,
		// for odd n, also size half (|U| = half+1 handled by symmetry of
		// the complement).
		var rec func(start, remaining int, mask uint64)
		rec = func(start, remaining int, mask uint64) {
			if remaining == 0 {
				uMask := mask | 1
				vMask := full &^ uMask
				crossUV, crossVU := 0, 0
				rem := uMask
				for rem != 0 {
					a := bits.TrailingZeros64(rem)
					rem &= rem - 1
					crossUV += bits.OnesCount64(out[a] & vMask)
					crossVU += bits.OnesCount64(in[a] & vMask)
				}
				c := crossUV
				if crossVU < c {
					c = crossVU
				}
				if c < best {
					best = c
					bestMask = uMask
				}
				return
			}
			for v := start; v < n; v++ {
				rec(v+1, remaining-1, mask|1<<uint(v))
			}
		}
		rec(1, half-1, 0)
		if n%2 == 1 {
			rec(1, half, 0)
		}
		return bitgraph.MaskSet(n, bestMask), best
	}
	return t.heuristicBisection(200, rand.New(rand.NewSource(7)))
}

// heuristicBisection runs balanced Kernighan–Lin style restarts: a
// Fiedler-order seed, then random balanced partitions, each improved by
// the best crossing-reducing swap until no swap helps. Ties keep the
// first swap in (a, b) order.
func (t *Topology) heuristicBisection(restarts int, rng *rand.Rand) (bitgraph.Set, int) {
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
	// Per-router neighbour counts on each side of the current partition:
	// out-neighbours in U and V (oU, oV) and in-neighbours (iU, iV).
	oU, oV := make([]int, n), make([]int, n)
	iU, iV := make([]int, n), make([]int, n)
	for r := 0; r < restarts; r++ {
		perm := rng.Perm(n)
		cur := bitgraph.NewSet(n)
		for i := 0; i < half; i++ {
			cur.Add(perm[i])
		}
		// Greedy swap improvement preserving balance. Swapping a in U
		// with b in V moves only the links at a and b, so with
		// ab = [a->b] + [b->a] the crossing counts become
		//   uv' = uv - oV[a] + iU[a] + oV[b] - iU[b] + ab
		//   vu' = vu - iV[a] + oU[a] + iV[b] - oU[b] + ab.
		improved := true
		for improved {
			improved = false
			uv, vu := 0, 0
			for x := 0; x < n; x++ {
				out, in := bg.OutRow(x), bg.InRow(x)
				oU[x], iU[x] = bitgraph.AndCount(out, cur), bitgraph.AndCount(in, cur)
				oV[x], iV[x] = out.Count()-oU[x], in.Count()-iU[x]
				if cur.Has(x) {
					uv += oV[x]
					vu += iV[x]
				}
			}
			bestVal := min(uv, vu)
			bestA, bestB := -1, -1
			for a := 0; a < n; a++ {
				if !cur.Has(a) {
					continue
				}
				uvA, vuA := uv-oV[a]+iU[a], vu-iV[a]+oU[a]
				for b := 0; b < n; b++ {
					if cur.Has(b) {
						continue
					}
					ab := 0
					if bg.Has(a, b) {
						ab++
					}
					if bg.Has(b, a) {
						ab++
					}
					if v := min(uvA+oV[b]-iU[b]+ab, vuA+iV[b]-oU[b]+ab); v < bestVal {
						bestVal, bestA, bestB = v, a, b
					}
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

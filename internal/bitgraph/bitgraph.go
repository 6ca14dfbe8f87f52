// Package bitgraph provides a compact directed-graph representation with
// bitset-based breadth-first search and cut evaluation. It is the shared
// computational core of the topology synthesizer and the baseline
// calibration tooling: one BFS level is computed as the union of out-row
// bitsets of the current frontier, making all-pairs hop statistics cost
// O(n^2/64) word operations per source. Graphs over at most 64 routers
// use a specialized single-word path; larger graphs use multi-word Set
// rows, so node count is bounded only by memory.
//
// For metaheuristic search, Eval layers a stateful incremental evaluator
// on top of Graph: per-source distance vectors, cut-pool crossing
// counters and objective aggregates maintained under Add/Remove with
// dirty-source invalidation, plus journaled rollback for rejected moves.
package bitgraph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxFastNodes is the largest node count served by the single-word
// (one uint64 mask per row) fast paths. Larger graphs are fully
// supported via multi-word rows.
const MaxFastNodes = 64

// Link is a directed edge.
type Link struct{ A, B int }

// Graph is an incrementally maintained directed graph with degree
// counters, neighbor bitsets and an O(1)-sampleable link list.
type Graph struct {
	n, w          int
	out, in       []uint64 // n rows of w words each, flat
	OutDeg, InDeg []int
	linkList      []Link
	linkIndex     []int32 // n*n flat position of link a->b in linkList, -1 absent
	full          Set
}

// New returns an empty graph over n nodes (any n >= 1).
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("bitgraph: unsupported node count %d", n))
	}
	w := wordsFor(n)
	g := &Graph{
		n:         n,
		w:         w,
		out:       make([]uint64, n*w),
		in:        make([]uint64, n*w),
		OutDeg:    make([]int, n),
		InDeg:     make([]int, n),
		linkIndex: make([]int32, n*n),
		full:      FullSet(n),
	}
	for i := range g.linkIndex {
		g.linkIndex[i] = -1
	}
	return g
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Full returns the all-nodes set; the caller must not mutate it.
func (g *Graph) Full() Set { return g.full }

// OutRow returns node a's out-neighbor bitset; the caller must not
// mutate it.
func (g *Graph) OutRow(a int) Set { return Set(g.out[a*g.w : (a+1)*g.w]) }

// InRow returns node a's in-neighbor bitset; the caller must not
// mutate it.
func (g *Graph) InRow(a int) Set { return Set(g.in[a*g.w : (a+1)*g.w]) }

// Has reports whether the directed link a->b exists.
func (g *Graph) Has(a, b int) bool {
	return g.out[a*g.w+b/wordBits]&(1<<uint(b%wordBits)) != 0
}

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.linkList) }

// Links returns the current directed link list; the slice is owned by the
// graph and must not be mutated.
func (g *Graph) Links() []Link { return g.linkList }

// LinkAt returns the i-th link (for random sampling).
func (g *Graph) LinkAt(i int) Link { return g.linkList[i] }

// Add inserts a->b (idempotent).
func (g *Graph) Add(a, b int) {
	if g.Has(a, b) {
		return
	}
	g.out[a*g.w+b/wordBits] |= 1 << uint(b%wordBits)
	g.in[b*g.w+a/wordBits] |= 1 << uint(a%wordBits)
	g.OutDeg[a]++
	g.InDeg[b]++
	g.linkIndex[a*g.n+b] = int32(len(g.linkList))
	g.linkList = append(g.linkList, Link{a, b})
}

// Remove deletes a->b (idempotent).
func (g *Graph) Remove(a, b int) {
	if !g.Has(a, b) {
		return
	}
	g.out[a*g.w+b/wordBits] &^= 1 << uint(b%wordBits)
	g.in[b*g.w+a/wordBits] &^= 1 << uint(a%wordBits)
	g.OutDeg[a]--
	g.InDeg[b]--
	idx := g.linkIndex[a*g.n+b]
	last := g.linkList[len(g.linkList)-1]
	g.linkList[idx] = last
	g.linkIndex[last.A*g.n+last.B] = idx
	g.linkList = g.linkList[:len(g.linkList)-1]
	g.linkIndex[a*g.n+b] = -1
}

// requeue moves a->b to the end of the link list, leaving the list
// exactly as Remove followed by Add would: the last link takes a->b's
// old index. No-op when the link is absent.
func (g *Graph) requeue(a, b int) {
	if !g.Has(a, b) {
		return
	}
	idx := g.linkIndex[a*g.n+b]
	last := len(g.linkList) - 1
	moved := g.linkList[last]
	g.linkList[idx] = moved
	g.linkIndex[moved.A*g.n+moved.B] = idx
	g.linkList[last] = Link{a, b}
	g.linkIndex[a*g.n+b] = int32(last)
}

// CanonicalClone rebuilds the graph with its link list in sorted (A, B)
// order. Two graphs with the same link set always produce identical
// canonical clones, regardless of the insertion/removal history that
// shaped their link lists. Search code that samples links by index
// (LinkAt) depends on this: a graph reloaded from a stored link list and
// the same graph rebuilt by a fresh search agree on every sampled index
// only after canonicalization.
func (g *Graph) CanonicalClone() *Graph {
	links := append([]Link(nil), g.linkList...)
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	c := New(g.n)
	for _, l := range links {
		c.Add(l.A, l.B)
	}
	return c
}

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	w := g.w
	c := &Graph{
		n:         g.n,
		w:         w,
		out:       append([]uint64(nil), g.out...),
		in:        append([]uint64(nil), g.in...),
		OutDeg:    append([]int(nil), g.OutDeg...),
		InDeg:     append([]int(nil), g.InDeg...),
		linkList:  append([]Link(nil), g.linkList...),
		linkIndex: append([]int32(nil), g.linkIndex...),
		full:      g.full,
	}
	return c
}

// CopyFrom makes g an exact copy of src, link order included, reusing
// g's buffers. Both graphs must have the same node count.
func (g *Graph) CopyFrom(src *Graph) {
	if g.n != src.n {
		panic(fmt.Sprintf("bitgraph: CopyFrom of a %d-node graph into a %d-node one", src.n, g.n))
	}
	copy(g.out, src.out)
	copy(g.in, src.in)
	copy(g.OutDeg, src.OutDeg)
	copy(g.InDeg, src.InDeg)
	copy(g.linkIndex, src.linkIndex)
	g.linkList = append(g.linkList[:0], src.linkList...)
}

// HopStats runs one bitmask BFS per source and returns the total hop
// count over reachable ordered pairs, the number of unreachable ordered
// pairs and the diameter over reachable pairs.
func (g *Graph) HopStats() (total int64, unreachable int, diameter int) {
	n := g.n
	if g.w == 1 {
		for src := 0; src < n; src++ {
			visited := uint64(1) << uint(src)
			frontier := visited
			d := 0
			for frontier != 0 {
				var next uint64
				f := frontier
				for f != 0 {
					u := bits.TrailingZeros64(f)
					f &= f - 1
					next |= g.out[u]
				}
				next &^= visited
				if next == 0 {
					break
				}
				d++
				total += int64(d) * int64(bits.OnesCount64(next))
				visited |= next
				frontier = next
			}
			if d > diameter {
				diameter = d
			}
			unreachable += n - bits.OnesCount64(visited)
		}
		return total, unreachable, diameter
	}
	visited, frontier, next := NewSet(n), NewSet(n), NewSet(n)
	for src := 0; src < n; src++ {
		visited.Clear()
		visited.Add(src)
		frontier.Clear()
		frontier.Add(src)
		d := 0
		for {
			next.Clear()
			g.frontierUnion(frontier, next)
			level := 0
			for i := range next {
				next[i] &^= visited[i]
				level += bits.OnesCount64(next[i])
			}
			if level == 0 {
				break
			}
			d++
			total += int64(d) * int64(level)
			for i := range visited {
				visited[i] |= next[i]
			}
			frontier, next = next, frontier
		}
		if d > diameter {
			diameter = d
		}
		unreachable += n - visited.Count()
	}
	return total, unreachable, diameter
}

// frontierUnion ORs the out-rows of every frontier member into dst.
func (g *Graph) frontierUnion(frontier, dst Set) {
	w := g.w
	for wi, word := range frontier {
		base := wi * wordBits
		for word != 0 {
			u := base + bits.TrailingZeros64(word)
			word &= word - 1
			row := g.out[u*w : u*w+w]
			for i, rw := range row {
				dst[i] |= rw
			}
		}
	}
}

// BFSRow fills dist (length n) with hop distances from src; unreachable
// nodes get -1. It allocates scratch internally; hot paths should use
// Eval, which reuses scratch buffers.
func (g *Graph) BFSRow(src int, dist []int16) {
	scratch := newBFSScratch(g.n)
	g.bfsRow(src, dist, scratch)
}

type bfsScratch struct {
	visited, frontier, next Set
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{visited: NewSet(n), frontier: NewSet(n), next: NewSet(n)}
}

// bfsRow computes the distance row for src into dist using the provided
// scratch buffers.
func (g *Graph) bfsRow(src int, dist []int16, s *bfsScratch) {
	g.bfsRowStats(src, dist, s)
}

// bfsRowStats is bfsRow plus aggregates the BFS produces for free: the
// sum of finite distances from src, the number of reached nodes
// (including src itself) and src's eccentricity, its largest finite
// distance.
func (g *Graph) bfsRowStats(src int, dist []int16, s *bfsScratch) (total int64, reached int, ecc int16) {
	n := g.n
	for i := 0; i < n; i++ {
		dist[i] = -1
	}
	dist[src] = 0
	if g.w == 1 {
		visited := uint64(1) << uint(src)
		frontier := visited
		d := int16(0)
		for frontier != 0 {
			var next uint64
			f := frontier
			for f != 0 {
				u := bits.TrailingZeros64(f)
				f &= f - 1
				next |= g.out[u]
			}
			next &^= visited
			if next == 0 {
				break
			}
			d++
			total += int64(d) * int64(bits.OnesCount64(next))
			nf := next
			for nf != 0 {
				v := bits.TrailingZeros64(nf)
				nf &= nf - 1
				dist[v] = d
			}
			visited |= next
			frontier = next
		}
		return total, bits.OnesCount64(visited), d
	}
	visited, frontier, next := s.visited, s.frontier, s.next
	visited.Clear()
	visited.Add(src)
	frontier.Clear()
	frontier.Add(src)
	reached = 1
	d := int16(0)
	for {
		next.Clear()
		g.frontierUnion(frontier, next)
		level := 0
		for i := range next {
			next[i] &^= visited[i]
			level += bits.OnesCount64(next[i])
		}
		if level == 0 {
			break
		}
		d++
		total += int64(d) * int64(level)
		reached += level
		next.ForEach(func(v int) { dist[v] = d })
		for i := range visited {
			visited[i] |= next[i]
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return total, reached, d
}

// WeightedHops returns sum(w[s][d] * dist(s,d)) over reachable pairs plus
// the count of unreachable ordered pairs with positive weight.
func (g *Graph) WeightedHops(w [][]float64) (total float64, unreachable int) {
	n := g.n
	dist := make([]int16, n)
	scratch := newBFSScratch(n)
	for src := 0; src < n; src++ {
		g.bfsRow(src, dist, scratch)
		for v := 0; v < n; v++ {
			if v == src {
				continue
			}
			if dist[v] < 0 {
				if w[src][v] > 0 {
					unreachable++
				}
				continue
			}
			total += w[src][v] * float64(dist[v])
		}
	}
	return total, unreachable
}

// Cross returns the two directed crossing counts (U->V, V->U) for the
// partition given by u; V is the complement of u within the node set.
func (g *Graph) Cross(u Set) (crossUV, crossVU int) {
	w := g.w
	for wi, word := range u {
		word &= g.full[wi]
		base := wi * wordBits
		for word != 0 {
			a := base + bits.TrailingZeros64(word)
			word &= word - 1
			outRow := g.out[a*w : a*w+w]
			inRow := g.in[a*w : a*w+w]
			for i := range outRow {
				vWord := g.full[i] &^ u[i]
				crossUV += bits.OnesCount64(outRow[i] & vWord)
				crossVU += bits.OnesCount64(inRow[i] & vWord)
			}
		}
	}
	return crossUV, crossVU
}

// MinCross returns the smaller of the two directed crossing counts for
// the partition given by u.
func (g *Graph) MinCross(u Set) int {
	crossUV, crossVU := g.Cross(u)
	if crossVU < crossUV {
		return crossVU
	}
	return crossUV
}

// CutBandwidth evaluates B(U,V): the min-direction crossing count divided
// by |U||V|, for the partition given by u.
func (g *Graph) CutBandwidth(u Set) float64 {
	sizeU := AndCount(u, g.full)
	sizeV := g.n - sizeU
	if sizeU == 0 || sizeV == 0 {
		return math.Inf(1)
	}
	return float64(g.MinCross(u)) / float64(sizeU*sizeV)
}

// PoolMin returns the minimum CutBandwidth over a pool of partition
// sets.
func (g *Graph) PoolMin(pool []Set) float64 {
	min := math.Inf(1)
	for _, m := range pool {
		if bw := g.CutBandwidth(m); bw < min {
			min = bw
		}
	}
	return min
}

// PoolMinCross returns the minimum raw min-direction crossing count
// over a pool of partition sets (math.MaxInt when the pool is empty).
// Unlike PoolMin it is not normalized by partition sizes: it measures
// how many single-link failures a cut can absorb before disconnecting,
// which is what fragility-priced synthesis scores.
func (g *Graph) PoolMinCross(pool []Set) int {
	min := math.MaxInt
	for _, m := range pool {
		if c := g.MinCross(m); c < min {
			min = c
		}
	}
	return min
}

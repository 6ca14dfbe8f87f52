package bitgraph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Eval is a stateful incremental evaluator over a Graph. It maintains,
// under Add/Remove link mutations:
//
//   - per-source shortest-path distance vectors (one BFS row per source)
//     and eccentricities (each row's largest finite distance),
//   - the total hop count and unreachable-pair count aggregates,
//   - optional traffic-weighted hop aggregates, and
//   - per-cut crossing counters for a pool of partition sets.
//
// Mutations dirty only the sources whose rows actually change: removing
// link a->b invalidates exactly the sources s with dist(s,b) ==
// dist(s,a)+1 and no alternative predecessor of b at dist(s,a) (a
// shortest path must route through the link — subpaths of shortest
// paths are shortest); adding a->b invalidates exactly the sources with
// dist(s,a)+1 < dist(s,b) (the link creates a shortcut). Dirty sources
// are queued and recomputed lazily at the next aggregate read, so a
// multi-op move (swap, symmetric pair) — or a run of mutations whose
// score is never read — pays one BFS per distinct dirty source against
// the final graph. Pending() exposes the queue depth, letting callers
// recognize provably score-neutral mutations without any BFS. Cut
// counters update eagerly in O(pool) per mutation.
//
// Begin/Commit/Rollback bracket speculative moves: Rollback restores the
// journaled distance rows by copy (no BFS) so rejected annealing moves
// cost only the forward evaluation.
type Eval struct {
	g *Graph
	n int

	dist       []int16 // n x n row-major: dist[s*n+d], -1 unreachable
	ecc        []int16 // ecc[s]: the largest finite distance in s's row
	srcTotal   []int64
	srcUnreach []int32

	total       int64
	unreachable int

	w           [][]float64 // optional demand matrix
	srcWTotal   []float64
	srcWUnreach []int32
	wTotal      float64
	wUnreach    int
	// Fast mode with weights: wSupport[s] is the mask of vertices v != s
	// with w[s][v] != 0, and wDelta the sources whose srcWTotal was last
	// moved by repairAddFast's deltas rather than re-summed by
	// reweighRow (see reweighChanged).
	wSupport []uint64
	wDelta   uint64

	cuts []evalCut

	// Optional per-link cost aggregate (energy-aware synthesis): costOf
	// prices a directed link and costTotal tracks the sum over present
	// links. Costs are integers (callers pre-scale, e.g. milli-pJ) so the
	// incremental sum is exact and independent of mutation order — the
	// bit-identical incremental-vs-recompute contract extends to it.
	costOf    func(a, b int) int64
	costTotal int64
	snapCost  int64

	scratch *bfsScratch
	preds   []int32
	dirty   []int32 // removeDirty's result: capacity n, in savedIdx's allocation

	// Level masks, maintained for graphs of at most 64 nodes (vertex
	// sets then fit one word): T[v*(n+1)+d] is the bitmask of sources
	// whose distance to vertex v is exactly d, reach[v] the sources that
	// reach v at all, and L[s*(n+1)+d], T's transpose, the vertices at
	// distance exactly d from source s. T turns the per-op dirty-source
	// detection from an O(n) scalar scan into a handful of word
	// operations over distance levels; L does the same for the
	// decremental repair's affected-set walk and re-leveling. Every site
	// that moves a T bit moves the matching L bit.
	fastT bool
	T     []uint64
	L     []uint64
	reach []uint64

	// Deferred invalidation queue (see type comment). In fast mode the
	// queue only ever holds the dirty sources of a single removal
	// (additions repair eagerly and flush any pending removal first), so
	// flush can repair decrementally; singleRem/remB record that
	// removal's head vertex.
	pending   []int32
	pendGen   []uint32
	pendCur   uint32
	pendMask  uint64 // fast-mode mirror of the pending set
	singleRem bool
	remB      int

	// Kept walks (PeekRemovePairs): walks[s] is the affected set of
	// dirty source s (s in walkDirty) for the peeked removal
	// walkA->walkB, and walkOver the sources whose walk overflowed
	// maxAffectedRepair. They describe the rows the peek saw, so every
	// Add, Rollback, PeekRemove and PeekRemoveWeighted drops them
	// (walkDirty = 0), and so does any Remove but the one of exactly
	// that link with nothing else pending, whose flush re-levels from
	// them instead of walking again.
	walks        [MaxFastNodes]uint64
	walkA, walkB int
	walkDirty    uint64
	walkOver     uint64

	// journal
	inTxn    bool
	ops      []linkOp
	rows     []rowSave
	rowPool  [][]int16
	savedGen []uint32
	savedIdx []int32 // index into rows, valid when savedGen matches
	curGen   uint32

	snapTotal    int64
	snapUnreach  int
	snapWTotal   float64
	snapWUnreach int
}

type evalCut struct {
	mask             Set
	pairs            float64 // |U| * |V|
	crossUV, crossVU int
}

type linkOp struct {
	a, b  int
	added bool
}

type rowSave struct {
	src      int
	row      []int16
	changed  uint64 // fast mode: vertices whose distance changed since the save
	total    int64
	unreach  int32
	ecc      int16
	wTotal   float64
	wUnreach int32
	wDelta   bool
}

// NewEval builds an evaluator over g with an optional demand matrix
// (weights may be nil). The full evaluation runs once here; subsequent
// mutations are incremental. The Graph must only be mutated through the
// returned Eval from this point on.
func NewEval(g *Graph, weights [][]float64) *Eval {
	n := g.n
	rows := make([]int16, n*n+n)
	idx := make([]int32, 2*n)
	e := &Eval{
		g:          g,
		n:          n,
		dist:       rows[: n*n : n*n],
		ecc:        rows[n*n:],
		srcTotal:   make([]int64, n),
		srcUnreach: make([]int32, n),
		w:          weights,
		scratch:    newBFSScratch(n),
		savedGen:   make([]uint32, n),
		savedIdx:   idx[:n:n],
		dirty:      idx[n:n],
		pendGen:    make([]uint32, n),
		pendCur:    1,
	}
	if weights != nil {
		e.srcWTotal = make([]float64, n)
		e.srcWUnreach = make([]int32, n)
	}
	for s := 0; s < n; s++ {
		row := e.dist[s*n : (s+1)*n]
		total, reached, ecc := g.bfsRowStats(s, row, e.scratch)
		unreach := int32(n - reached)
		e.ecc[s] = ecc
		e.srcTotal[s] = total
		e.srcUnreach[s] = unreach
		e.total += total
		e.unreachable += int(unreach)
		e.reweighRow(s)
	}
	if n <= MaxFastNodes {
		e.fastT = true
		levels := make([]uint64, 2*n*(n+1))
		e.T, e.L = levels[:n*(n+1):n*(n+1)], levels[n*(n+1):]
		e.reach = make([]uint64, n)
		if weights != nil {
			e.wSupport = make([]uint64, n)
			for s := 0; s < n; s++ {
				for v, w := range weights[s] {
					if v != s && w != 0 {
						e.wSupport[s] |= 1 << uint(v)
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			bit := uint64(1) << uint(s)
			for v := 0; v < n; v++ {
				if d := e.dist[s*n+v]; d >= 0 {
					e.T[v*(n+1)+int(d)] |= bit
					e.L[s*(n+1)+int(d)] |= 1 << uint(v)
					e.reach[v] |= bit
				}
			}
		}
	}
	return e
}

// Graph returns the underlying graph. Callers may read it but must
// mutate only through the Eval.
func (e *Eval) Graph() *Graph { return e.g }

// markDirty queues source s for lazy recomputation (slow mode; fast
// mode ORs whole dirty masks into pendMask instead).
func (e *Eval) markDirty(s int) {
	e.pendGen[s] = e.pendCur
	e.pending = append(e.pending, int32(s))
}

// flush materializes all pending recomputes.
func (e *Eval) flush() {
	if e.fastT {
		m := e.pendMask
		if m == 0 {
			return
		}
		e.pendMask = 0
		// Remove keeps the walks only for the peeked link settled
		// alone, so walks that match the pending sources are its.
		walked := e.walkDirty == m
		if e.singleRem {
			// All pending sources come from one removal: patch each by
			// re-leveling just the affected region behind the removed
			// link's head, falling back to a BFS when it grows large.
			for ; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				var aff uint64
				var ok bool
				if walked {
					aff, ok = e.walks[s], e.walkOver&(1<<uint(s)) == 0
				} else {
					aff, ok = e.affectedFast(s, e.remB, maxAffectedRepair, math.MaxInt16)
				}
				var changed uint64
				if ok {
					changed = e.repairRemoveFast(s, e.remB, aff)
				} else {
					changed = e.recomputeFast(s)
				}
				e.reweighChanged(s, changed)
			}
			return
		}
		for ; m != 0; m &= m - 1 {
			e.recompute(bits.TrailingZeros64(m))
		}
		return
	}
	if len(e.pending) == 0 {
		return
	}
	for _, s := range e.pending {
		e.recompute(int(s))
	}
	e.pending = e.pending[:0]
	e.pendCur++
}

// Pending returns the number of sources queued for recomputation. A
// mutation sequence that leaves Pending() at zero did not change any
// distance; combined with unchanged cut counters this certifies a
// score-neutral move without running any BFS.
func (e *Eval) Pending() int {
	if e.fastT {
		return bits.OnesCount64(e.pendMask)
	}
	return len(e.pending)
}

// Total returns the sum of shortest-path distances over reachable
// ordered pairs.
func (e *Eval) Total() int64 {
	e.flush()
	return e.total
}

// Unreachable returns the number of unreachable ordered pairs.
func (e *Eval) Unreachable() int {
	e.flush()
	return e.unreachable
}

// Diameter returns the maximum shortest-path distance over reachable
// pairs: the largest source eccentricity, in O(n).
func (e *Eval) Diameter() int {
	e.flush()
	return int(slices.Max(e.ecc))
}

// WeightedTotal returns the demand-weighted hop total and the number of
// positively weighted unreachable pairs. Requires weights at NewEval.
func (e *Eval) WeightedTotal() (float64, int) {
	e.flush()
	return e.wTotal, e.wUnreach
}

// Dist returns the maintained shortest-path distance from s to d
// (-1 when unreachable).
func (e *Eval) Dist(s, d int) int {
	e.flush()
	return int(e.dist[s*e.n+d])
}

// SetLinkCost attaches a per-link integer cost function and initializes
// the maintained sum over the current link set. Subsequent Add/Remove
// calls keep the sum exact in O(1); Rollback restores it from the Begin
// snapshot. Must be called outside transactions. cost must be pure (the
// same (a,b) always prices identically).
func (e *Eval) SetLinkCost(cost func(a, b int) int64) {
	if e.inTxn {
		panic("bitgraph: SetLinkCost inside transaction")
	}
	e.costOf = cost
	e.costTotal = 0
	if cost == nil {
		return
	}
	for _, l := range e.g.Links() {
		e.costTotal += cost(l.A, l.B)
	}
}

// LinkCost returns the maintained cost sum over present links (0 when no
// cost function is set). Never triggers a BFS.
func (e *Eval) LinkCost() int64 { return e.costTotal }

// NumCuts returns the cut-pool size.
func (e *Eval) NumCuts() int { return len(e.cuts) }

// AddCut registers a partition in the crossing-counter pool unless an
// equal cut — or its complement within the n-node universe, which
// defines the same partition — is already present. Returns true when
// the pool grew. Must not be called inside a transaction.
func (e *Eval) AddCut(mask Set) bool {
	if e.inTxn {
		panic("bitgraph: AddCut inside transaction")
	}
	for _, c := range e.cuts {
		if SamePartition(c.mask, mask, e.g.full) {
			return false
		}
	}
	sizeU := AndCount(mask, e.g.full)
	sizeV := e.n - sizeU
	if sizeU == 0 || sizeV == 0 {
		return false
	}
	uv, vu := e.g.Cross(mask)
	e.cuts = append(e.cuts, evalCut{
		mask:    mask.Clone(),
		pairs:   float64(sizeU * sizeV),
		crossUV: uv,
		crossVU: vu,
	})
	return true
}

// PoolMin returns the minimum cut bandwidth min(crossUV, crossVU) /
// (|U||V|) over the registered pool (+Inf when the pool is empty). The
// division mirrors Graph.CutBandwidth exactly so incremental scores stay
// bit-identical to from-scratch recomputation. Counters are maintained
// eagerly, so PoolMin never triggers a BFS.
func (e *Eval) PoolMin() float64 {
	min := math.Inf(1)
	for i := range e.cuts {
		c := &e.cuts[i]
		if bw := cutBW(c.crossUV, c.crossVU, c.pairs); bw < min {
			min = bw
		}
	}
	return min
}

// cutBW is one cut's bandwidth, min(uv, vu) / pairs: the single division
// PoolMin and PeekRemovePoolMin share, so their values agree bit for bit.
func cutBW(uv, vu int, pairs float64) float64 {
	if vu < uv {
		uv = vu
	}
	return float64(uv) / pairs
}

// PeekRemovePoolMin returns PoolMin as it is now and as it would be
// after removing link a->b, in one pass and without mutating any state:
// each cut the link crosses is priced with that direction's counter one
// lower. Both values go through PoolMin's own division (cutBW), so after
// is bit-identical to PoolMin following a real Remove (and equals now
// when the link is absent).
func (e *Eval) PeekRemovePoolMin(a, b int) (now, after float64) {
	now, after = math.Inf(1), math.Inf(1)
	present := a != b && e.g.Has(a, b)
	for i := range e.cuts {
		c := &e.cuts[i]
		bw := cutBW(c.crossUV, c.crossVU, c.pairs)
		if bw < now {
			now = bw
		}
		if present {
			switch aIn, bIn := c.mask.Has(a), c.mask.Has(b); {
			case aIn && !bIn:
				bw = cutBW(c.crossUV-1, c.crossVU, c.pairs)
			case bIn && !aIn:
				bw = cutBW(c.crossUV, c.crossVU-1, c.pairs)
			}
		}
		if bw < after {
			after = bw
		}
	}
	return now, after
}

// Requeue moves link a->b to the end of the graph's link list, which is
// where a rolled-back Remove leaves it (Remove swaps the last link into
// the removed slot and Rollback re-appends the link). A caller that
// rejects a removal from peeks alone, without the transaction, calls it
// to keep LinkAt indices exactly as the transactional rejection would.
// Nothing else changes. Must not be called inside a transaction.
func (e *Eval) Requeue(a, b int) {
	if e.inTxn {
		panic("bitgraph: Requeue inside transaction")
	}
	e.g.requeue(a, b)
}

// PoolMinCross returns the minimum raw min-direction crossing count
// over the registered pool (math.MaxInt when empty), mirroring
// Graph.PoolMinCross exactly so incremental scores stay bit-identical
// to from-scratch recomputation. Counters are eager; never triggers a
// BFS.
func (e *Eval) PoolMinCross() int {
	min := math.MaxInt
	for i := range e.cuts {
		c := &e.cuts[i]
		cross := c.crossUV
		if c.crossVU < cross {
			cross = c.crossVU
		}
		if cross < min {
			min = cross
		}
	}
	return min
}

// Begin opens a transaction: all Add/Remove calls until Commit or
// Rollback are journaled and can be undone as a unit. Transactions do
// not nest.
func (e *Eval) Begin() {
	if e.inTxn {
		panic("bitgraph: nested Eval transaction")
	}
	e.flush() // pre-transaction mutations must not roll back
	e.inTxn = true
	e.curGen++
	e.snapTotal = e.total
	e.snapUnreach = e.unreachable
	e.snapWTotal = e.wTotal
	e.snapWUnreach = e.wUnreach
	e.snapCost = e.costTotal
}

// Commit accepts the transaction's mutations (materializing any pending
// recomputes so post-transaction state is fully settled).
func (e *Eval) Commit() {
	if !e.inTxn {
		panic("bitgraph: Commit outside transaction")
	}
	e.flush()
	e.inTxn = false
	e.ops = e.ops[:0]
	for i := range e.rows {
		e.rowPool = append(e.rowPool, e.rows[i].row)
		e.rows[i].row = nil
	}
	e.rows = e.rows[:0]
}

// Rollback undoes every mutation since Begin: graph links and cut
// counters are reverted op by op, journaled distance rows are restored
// by copy, and the scalar aggregates return to their Begin snapshot.
func (e *Eval) Rollback() {
	if !e.inTxn {
		panic("bitgraph: Rollback outside transaction")
	}
	e.inTxn = false
	// Pending sources were never recomputed; their rows still describe
	// the pre-transaction graph exactly, so just drop the marks.
	e.pending = e.pending[:0]
	e.pendCur++
	e.pendMask = 0
	e.walkDirty = 0
	for i := len(e.ops) - 1; i >= 0; i-- {
		op := e.ops[i]
		if op.added {
			e.g.Remove(op.a, op.b)
			e.cutCounters(op.a, op.b, -1)
		} else {
			e.g.Add(op.a, op.b)
			e.cutCounters(op.a, op.b, +1)
		}
	}
	e.ops = e.ops[:0]
	// Restore rows newest-to-oldest so a source saved once but
	// recomputed twice ends at its pre-transaction state.
	for i := len(e.rows) - 1; i >= 0; i-- {
		r := &e.rows[i]
		if e.fastT {
			// Only the journaled changed vertices can differ; restore
			// their level-mask bits without a full row diff.
			cur := e.dist[r.src*e.n : (r.src+1)*e.n]
			bit := uint64(1) << uint(r.src)
			stride := e.n + 1
			lv := e.L[r.src*stride : r.src*stride+stride]
			for m := r.changed; m != 0; m &= m - 1 {
				v := bits.TrailingZeros64(m)
				od, nd := cur[v], r.row[v]
				if od == nd {
					continue
				}
				if od >= 0 {
					e.T[v*stride+int(od)] &^= bit
					lv[od] &^= 1 << uint(v)
				}
				if nd >= 0 {
					e.T[v*stride+int(nd)] |= bit
					lv[nd] |= 1 << uint(v)
					if od < 0 {
						e.reach[v] |= bit
					}
				} else {
					e.reach[v] &^= bit
				}
			}
		}
		copy(e.dist[r.src*e.n:(r.src+1)*e.n], r.row)
		e.ecc[r.src] = r.ecc
		e.srcTotal[r.src] = r.total
		e.srcUnreach[r.src] = r.unreach
		if e.w != nil {
			e.srcWTotal[r.src] = r.wTotal
			e.srcWUnreach[r.src] = r.wUnreach
			if bit := uint64(1) << uint(r.src); r.wDelta {
				e.wDelta |= bit
			} else {
				e.wDelta &^= bit
			}
		}
		e.rowPool = append(e.rowPool, r.row)
		r.row = nil
	}
	e.rows = e.rows[:0]
	e.total = e.snapTotal
	e.unreachable = e.snapUnreach
	e.wTotal = e.snapWTotal
	e.wUnreach = e.snapWUnreach
	e.costTotal = e.snapCost
}

// Add inserts link a->b, updates cut counters eagerly and queues the
// affected sources for lazy distance recomputation (no-op when the link
// exists).
func (e *Eval) Add(a, b int) {
	if a == b || e.g.Has(a, b) {
		return
	}
	// A new link a->b creates a shortcut exactly for sources that reach
	// a and would get closer to b through it (old distances). Sources
	// already pending are skipped: their rows are stale but will be
	// recomputed against the final graph anyway.
	n := e.n
	if e.fastT {
		// Additions are repaired eagerly (the improvement wave from b
		// touches only vertices whose distance actually drops, typically
		// a handful), which keeps every row exact at all times in fast
		// mode except under pending removals — flushed here so the
		// detection and the repair both see exact rows.
		if e.pendMask != 0 {
			e.flush()
		}
		e.walkDirty = 0
		// Level-mask form of the dirty rule: a source at distance d from
		// a is dirtied iff its distance to b exceeds d+1 (or b is
		// unreachable), i.e. it is outside the cumulative <=d+1 mask.
		stride := n + 1
		ta := e.T[a*stride : a*stride+stride]
		tb := e.T[b*stride : b*stride+stride]
		var dirty, seen uint64
		reachA := e.reach[a]
		cum := tb[0]
		for d := 0; seen != reachA; d++ {
			cum |= tb[d+1]
			la := ta[d]
			dirty |= la &^ cum
			seen |= la
		}
		e.g.Add(a, b)
		e.cutCounters(a, b, +1)
		if e.costOf != nil {
			e.costTotal += e.costOf(a, b)
		}
		if e.inTxn {
			e.ops = append(e.ops, linkOp{a, b, true})
		}
		for dirty != 0 {
			s := bits.TrailingZeros64(dirty)
			dirty &= dirty - 1
			e.repairAddFast(s, a, b)
		}
		return
	}
	{
		dist, pendGen, pendCur := e.dist, e.pendGen, e.pendCur
		for s, base := 0, 0; s < n; s, base = s+1, base+n {
			if pendGen[s] == pendCur {
				continue
			}
			da := dist[base+a]
			if da < 0 {
				continue
			}
			db := dist[base+b]
			if db < 0 || da+1 < db {
				e.markDirty(s)
			}
		}
	}
	e.g.Add(a, b)
	e.cutCounters(a, b, +1)
	if e.costOf != nil {
		e.costTotal += e.costOf(a, b)
	}
	if e.inTxn {
		e.ops = append(e.ops, linkOp{a, b, true})
	}
}

// Remove deletes link a->b, updates cut counters eagerly and queues the
// affected sources for lazy distance recomputation (no-op when the link
// is absent).
//
// The link can lie on a shortest path from s only when dist(s,b) ==
// dist(s,a)+1; every other source keeps its exact distance vector
// (subpaths of shortest paths are shortest). Even then, if b has
// another predecessor p (p->b present, p != a) with dist(s,p) ==
// dist(s,a), every shortest path through a->b reroutes through p->b at
// equal length, so nothing changes for s.
func (e *Eval) Remove(a, b int) {
	if a == b || !e.g.Has(a, b) {
		return
	}
	if e.fastT {
		// The removal PeekRemovePairs peeked last, with nothing else
		// pending, reuses its dirty sources and keeps its walks for the
		// flush; any other removal detects afresh and drops them.
		dirty := e.walkDirty
		if dirty == 0 || a != e.walkA || b != e.walkB || e.pendMask != 0 {
			dirty = e.removeDirtyFast(a, b)
			e.walkDirty = 0
		}
		e.singleRem = e.pendMask == 0
		e.remB = b
		e.pendMask |= dirty
	} else {
		for _, s := range e.removeDirty(a, b) {
			e.markDirty(int(s))
		}
	}
	e.g.Remove(a, b)
	e.cutCounters(a, b, -1)
	if e.costOf != nil {
		e.costTotal -= e.costOf(a, b)
	}
	if e.inTxn {
		e.ops = append(e.ops, linkOp{a, b, false})
	}
}

// removeDirty is Remove's dirty rule for graphs of more than
// MaxFastNodes nodes: it returns the sources, queued ones skipped, whose
// rows the removal of a->b changes, in a buffer the next call reuses.
// Remove and PeekRemove detect through it.
func (e *Eval) removeDirty(a, b int) []int32 {
	preds := e.preds[:0]
	w := e.g.w
	for wi, word := range e.g.in[b*w : (b+1)*w] {
		for ; word != 0; word &= word - 1 {
			if p := wi*wordBits + bits.TrailingZeros64(word); p != a {
				preds = append(preds, int32(p))
			}
		}
	}
	e.preds = preds
	dirty := e.dirty[:0]
	n, dist, pendGen, pendCur := e.n, e.dist, e.pendGen, e.pendCur
	for s, base := 0, 0; s < n; s, base = s+1, base+n {
		if pendGen[s] == pendCur {
			continue
		}
		da := dist[base+a]
		if da < 0 || dist[base+b] != da+1 {
			continue
		}
		alt := false
		for _, p := range preds {
			if dist[base+int(p)] == da {
				alt = true
				break
			}
		}
		if !alt {
			dirty = append(dirty, int32(s))
		}
	}
	e.dirty = dirty
	return dirty
}

// removeDirtyFast is Remove's dirty rule in level-mask form, for
// single-word graphs: candidates at level d are the sources with
// dist(.,a)==d and dist(.,b)==d+1, and each alternative predecessor of
// b clears the candidates it covers at level d. Remove and every
// removal peek detect through it.
func (e *Eval) removeDirtyFast(a, b int) uint64 {
	stride := e.n + 1
	ta := e.T[a*stride : a*stride+stride]
	tb := e.T[b*stride : b*stride+stride]
	pm := e.g.in[b] &^ (1 << uint(a)) // w==1 in fast mode
	var dirty, seen uint64
	reachA := e.reach[a]
	for d := 0; seen != reachA; d++ {
		la := ta[d]
		seen |= la
		cand := la & tb[d+1]
		if cand != 0 {
			pp := pm
			for pp != 0 && cand != 0 {
				p := bits.TrailingZeros64(pp)
				pp &= pp - 1
				cand &^= e.T[p*stride+d]
			}
			dirty |= cand
		}
	}
	return dirty
}

// repairAddFast patches source s's row after inserting a->b, where
// dist(s,a)+1 improves on dist(s,b): a breadth-first improvement wave
// from b touches only the vertices whose distance actually drops,
// updating the aggregates and transposed level masks in place.
// Fast mode only (w == 1).
func (e *Eval) repairAddFast(s, a, b int) {
	n := e.n
	e.journalRow(s)
	row := e.dist[s*n : (s+1)*n]
	bit := uint64(1) << uint(s)
	stride := n + 1
	lv := e.L[s*stride : s*stride+stride]
	out := e.g.out
	var dTot int64
	var dUnreach int32
	var wTot float64
	var wUnreach int32
	var changed uint64
	apply := func(v int, d int16) {
		changed |= 1 << uint(v)
		od := row[v]
		if od >= 0 {
			e.T[v*stride+int(od)] &^= bit
			lv[od] &^= 1 << uint(v)
			dTot += int64(d - od)
		} else {
			e.reach[v] |= bit
			dUnreach--
			dTot += int64(d)
		}
		e.T[v*stride+int(d)] |= bit
		lv[d] |= 1 << uint(v)
		if e.w != nil {
			if od >= 0 {
				wTot += e.w[s][v] * float64(d-od)
			} else {
				wTot += e.w[s][v] * float64(d)
				if e.w[s][v] > 0 {
					wUnreach--
				}
			}
		}
		row[v] = d
	}
	apply(b, row[a]+1)
	wave := append(e.preds[:0], int32(b))
	for head := 0; head < len(wave); head++ {
		v := int(wave[head])
		dv1 := row[v] + 1
		m := out[v]
		for m != 0 {
			u := bits.TrailingZeros64(m)
			m &= m - 1
			if ou := row[u]; ou >= 0 && ou <= dv1 {
				continue
			}
			apply(u, dv1)
			wave = append(wave, int32(u))
		}
	}
	e.preds = wave[:0]
	e.noteChanged(s, changed)
	e.settleEcc(s, lv)
	e.srcTotal[s] += dTot
	e.srcUnreach[s] += dUnreach
	e.total += dTot
	e.unreachable += int(dUnreach)
	if e.w != nil {
		e.srcWTotal[s] += wTot
		e.srcWUnreach[s] += wUnreach
		e.wTotal += wTot
		e.wUnreach += int(wUnreach)
		if changed&e.wSupport[s] != 0 {
			e.wDelta |= bit
		}
	}
}

// settleEcc moves source s's eccentricity to the last non-empty level of
// lv, s's level masks, after a repair. Levels are contiguous from 0 (and
// lv[n] is always empty), so the walk is as long as the change.
func (e *Eval) settleEcc(s int, lv []uint64) {
	d := e.ecc[s]
	for lv[d+1] != 0 {
		d++
	}
	for lv[d] == 0 {
		d--
	}
	e.ecc[s] = d
}

// maxAffectedRepair caps the affected-set size for decremental repair;
// larger regions fall back to a plain source BFS, which touches every
// vertex anyway.
const maxAffectedRepair = 10

// affectedFast is phase 1 of repairRemoveFast: for a source s whose
// only shortest support of b was a removed link into b, it walks s's
// shortest-path DAG forward from b and returns the affected vertices
// at distance at most depth from s, those left with no unaffected
// equal-level predecessor; exactly their distances from s grow. The
// walk is level-synchronous over s's level masks: a level's candidates
// are the successors of the previous level's affected vertices, and a
// candidate u is affected iff in[u] misses every unaffected vertex one
// level up, so every affected predecessor is marked before the test.
// It gives up, returning ok false, once a level leaves more than limit
// vertices affected; the vertices marked by then, that whole level
// included, are affected all the same. The removed link itself is
// never examined, so the walk gives the same set before the removal as
// after it. Fast mode only; s's row must be exact for the pre-removal
// graph.
func (e *Eval) affectedFast(s, b, limit int, depth int16) (aff uint64, ok bool) {
	stride := e.n + 1
	lv := e.L[s*stride : s*stride+stride]
	out, in := e.g.out, e.g.in
	aff = uint64(1) << uint(b)
	count := 1
	for d, front := e.dist[s*e.n+b], aff; front != 0 && d < depth; d++ {
		var cand uint64
		for f := front; f != 0; f &= f - 1 {
			cand |= out[bits.TrailingZeros64(f)]
		}
		// Level d is complete, so its unaffected vertices are final.
		keep := lv[d] &^ aff
		front = 0
		for cand &= lv[d+1]; cand != 0; cand &= cand - 1 {
			if u := bits.TrailingZeros64(cand); in[u]&keep == 0 {
				front |= 1 << uint(u)
			}
		}
		aff |= front
		if count += bits.OnesCount64(front); count > limit {
			return aff, false
		}
	}
	return aff, true
}

// repairRemoveFast patches source s's row after a removal whose head is
// b, for a source whose only shortest support of b was the removed
// link: it re-levels exactly aff, the complete affected set that phase
// 1 (affectedFast) collected, at the flush or at the peek, and returns
// the changed-vertex mask. Fast mode only (callers re-sum weighted rows
// through reweighChanged); rows must be exact for the pre-removal graph.
func (e *Eval) repairRemoveFast(s, b int, aff uint64) (changed uint64) {
	n := e.n
	row := e.dist[s*n : (s+1)*n]
	in := e.g.in
	db := row[b]
	e.journalRow(s)
	// Phase 2: distances of affected vertices strictly grow, so
	// re-level upward from b's old distance; a vertex settles at d once
	// a settled or never-affected predecessor sits at d-1, which is one
	// AND against s's level mask for d-1 less the unsettled vertices.
	bit := uint64(1) << uint(s)
	stride := n + 1
	lv := e.L[s*stride : s*stride+stride]
	var dTot int64
	var dUnreach int32
	rem := aff
	for d := db + 1; rem != 0 && int(d) <= n; d++ {
		keep := lv[d-1] &^ rem
		var newly uint64
		for rm := rem; rm != 0; rm &= rm - 1 {
			if u := bits.TrailingZeros64(rm); in[u]&keep != 0 {
				newly |= 1 << uint(u)
			}
		}
		if newly == 0 {
			// Stagnation: when no remaining vertex has any reachable
			// outside predecessor, the rest are unreachable.
			var ext uint64
			for rm := rem; rm != 0; rm &= rm - 1 {
				ext |= in[bits.TrailingZeros64(rm)]
			}
			ext &^= rem
			for ext != 0 && row[bits.TrailingZeros64(ext)] < 0 {
				ext &= ext - 1
			}
			if ext == 0 {
				break
			}
			continue
		}
		for nm := newly; nm != 0; nm &= nm - 1 {
			u := bits.TrailingZeros64(nm)
			od := row[u]
			e.T[u*stride+int(od)] &^= bit
			e.T[u*stride+int(d)] |= bit
			lv[od] &^= 1 << uint(u)
			dTot += int64(d - od)
			row[u] = d
		}
		lv[d] |= newly
		changed |= newly
		rem &^= newly
	}
	for ; rem != 0; rem &= rem - 1 {
		u := bits.TrailingZeros64(rem)
		od := row[u]
		changed |= 1 << uint(u)
		e.T[u*stride+int(od)] &^= bit
		lv[od] &^= 1 << uint(u)
		e.reach[u] &^= bit
		dTot -= int64(od)
		dUnreach++
		row[u] = -1
	}
	e.noteChanged(s, changed)
	e.settleEcc(s, lv)
	e.srcTotal[s] += dTot
	e.srcUnreach[s] += dUnreach
	e.total += dTot
	e.unreachable += int(dUnreach)
	return changed
}

// PeekRemove returns the number of sources whose distance rows would
// change if link a->b were removed, without mutating any state. Callers
// can veto a removal (e.g. an annealer rejecting on a delta lower
// bound) without ever paying for the mutation and its rollback.
func (e *Eval) PeekRemove(a, b int) int {
	e.walkDirty = 0
	if a == b || !e.g.Has(a, b) {
		return 0
	}
	e.flush()
	if e.fastT {
		return bits.OnesCount64(e.removeDirtyFast(a, b))
	}
	return len(e.removeDirty(a, b))
}

// PeekRemoveWeighted returns PeekRemove's count for link a->b together
// with a lower bound on the rise of wTotal + lostPair*wUnreach (the two
// values of WeightedTotal, with each weighted pair the removal
// disconnects priced at lostPair), without mutating any state. The
// bound sums w[s][v] over every dirty source s and every target v with
// w[s][v] > 0 whose distance from s grows (affectedFast's set, walked
// only as deep as s's deepest target). Such a pair adds at least one
// hop, w, to the weighted total, or, if it is lost, lostPair minus the
// w*dist(s,v) it leaves; that is at least w unless w*(dist(s,v)+1) >
// lostPair. ok is false, and there is no bound, when some such target
// passes that limit. Single-word graphs (at most MaxFastNodes nodes)
// with weights only; weights must be non-negative.
func (e *Eval) PeekRemoveWeighted(a, b int, lostPair float64) (dirty int, bound float64, ok bool) {
	e.walkDirty = 0
	if a == b || !e.g.Has(a, b) {
		return 0, 0, true
	}
	e.flush()
	m := e.removeDirtyFast(a, b)
	dirty = bits.OnesCount64(m)
	n := e.n
	for ; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		row, ws := e.dist[s*n:(s+1)*n], e.w[s]
		// Affected vertices sit at b's level or deeper.
		depth := int16(-1)
		for t := e.wSupport[s]; t != 0; t &= t - 1 {
			if d := row[bits.TrailingZeros64(t)]; d > depth {
				depth = d
			}
		}
		if depth < row[b] {
			continue
		}
		aff, _ := e.affectedFast(s, b, n, depth)
		for t := aff & e.wSupport[s]; t != 0; t &= t - 1 {
			v := bits.TrailingZeros64(t)
			if ws[v]*float64(row[v]+1) > lostPair {
				return dirty, 0, false
			}
			bound += ws[v]
		}
	}
	return dirty, bound, true
}

// PeekRemovePairs returns PeekRemove's count for link a->b together
// with the number of ordered pairs (s, v) whose distance the removal
// lengthens or loses, without mutating any distance state. It walks
// each dirty source's affected set (affectedFast) up to
// maxAffectedRepair vertices. A walk that overflows has marked only
// vertices whose distance grows, so pairs is then a lower bound. The
// walks are kept for the flush that settles the Remove of exactly this
// link, which re-levels from them instead of walking again (see walks).
// Single-word graphs (at most MaxFastNodes nodes) only.
func (e *Eval) PeekRemovePairs(a, b int) (dirty, pairs int) {
	if a == b || !e.g.Has(a, b) {
		e.walkDirty = 0
		return 0, 0
	}
	e.flush()
	m := e.removeDirtyFast(a, b)
	e.walkA, e.walkB, e.walkDirty, e.walkOver = a, b, m, 0
	for ; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		aff, ok := e.affectedFast(s, b, maxAffectedRepair, math.MaxInt16)
		if !ok {
			e.walkOver |= 1 << uint(s)
		}
		e.walks[s] = aff
		pairs += bits.OnesCount64(aff)
	}
	return bits.OnesCount64(e.walkDirty), pairs
}

// cutCounters applies a link delta to every cut's crossing counters.
func (e *Eval) cutCounters(a, b, delta int) {
	for i := range e.cuts {
		c := &e.cuts[i]
		aIn, bIn := c.mask.Has(a), c.mask.Has(b)
		if aIn == bIn {
			continue
		}
		if aIn {
			c.crossUV += delta
		} else {
			c.crossVU += delta
		}
	}
}

// journalRow saves source s's pre-transaction row and aggregates once
// per transaction.
func (e *Eval) journalRow(s int) {
	if !e.inTxn || e.savedGen[s] == e.curGen {
		return
	}
	e.savedGen[s] = e.curGen
	n := e.n
	var buf []int16
	if len(e.rowPool) > 0 {
		buf = e.rowPool[len(e.rowPool)-1]
		e.rowPool = e.rowPool[:len(e.rowPool)-1]
	} else {
		buf = make([]int16, n)
	}
	copy(buf, e.dist[s*n:(s+1)*n])
	save := rowSave{src: s, row: buf, total: e.srcTotal[s], unreach: e.srcUnreach[s], ecc: e.ecc[s]}
	if e.w != nil {
		save.wTotal = e.srcWTotal[s]
		save.wUnreach = e.srcWUnreach[s]
		save.wDelta = e.wDelta&(1<<uint(s)) != 0
	}
	e.savedIdx[s] = int32(len(e.rows))
	e.rows = append(e.rows, save)
}

// noteChanged accumulates the changed-vertex mask on source s's journal
// entry so Rollback can restore the transposed masks without a full
// row diff.
func (e *Eval) noteChanged(s int, mask uint64) {
	if e.inTxn && e.savedGen[s] == e.curGen {
		e.rows[e.savedIdx[s]].changed |= mask
	}
}

// recompute re-runs the BFS for one dirty source and folds the row
// delta into the aggregates, journaling the old row inside transactions.
func (e *Eval) recompute(s int) {
	if e.fastT {
		e.reweighChanged(s, e.recomputeFast(s))
		return
	}
	n := e.n
	e.journalRow(s)
	total, reached, ecc := e.g.bfsRowStats(s, e.dist[s*n:(s+1)*n], e.scratch)
	unreach := int32(n - reached)
	e.total += total - e.srcTotal[s]
	e.unreachable += int(unreach - e.srcUnreach[s])
	e.srcTotal[s] = total
	e.srcUnreach[s] = unreach
	e.ecc[s] = ecc
	e.reweighRow(s)
}

// reweighRow re-sums source s's demand-weighted row from its settled
// distances, over v = 0..n-1 in order, and folds the change into the
// weighted aggregates (no-op without weights). Every recompute path
// ends here (single-word ones through reweighChanged), so the sums are
// bit-identical whichever path settled the row; only repairAddFast
// applies weighted deltas instead.
func (e *Eval) reweighRow(s int) {
	if e.w == nil {
		return
	}
	row := e.dist[s*e.n : (s+1)*e.n]
	ws := e.w[s]
	var wTotal float64
	var wUnreach int32
	for v, d := range row {
		if v == s {
			continue
		}
		if d < 0 {
			if ws[v] > 0 {
				wUnreach++
			}
			continue
		}
		wTotal += ws[v] * float64(d)
	}
	e.wTotal += wTotal - e.srcWTotal[s]
	e.wUnreach += int(wUnreach - e.srcWUnreach[s])
	e.srcWTotal[s] = wTotal
	e.srcWUnreach[s] = wUnreach
	e.wDelta &^= 1 << uint(s)
}

// reweighChanged is reweighRow for a single-word row whose settle
// changed the vertices in changed. A change that misses every vertex s
// has demand for leaves the row's nonzero terms, in their order, as
// they were, so the re-sum would reproduce srcWTotal[s] bit for bit and
// is skipped, unless repairAddFast's deltas (which a re-sum may round
// differently) moved srcWTotal[s] last.
func (e *Eval) reweighChanged(s int, changed uint64) {
	if e.w != nil && (changed&e.wSupport[s] != 0 || e.wDelta&(1<<uint(s)) != 0) {
		e.reweighRow(s)
	}
}

// recomputeFast is recompute for single-word graphs: one fused BFS pass
// rewrites only the distances that changed, moving their level-mask bits
// and journaling the changed-vertex set as it goes, and returns that
// set. Weighted sums are left to the caller (reweighChanged).
func (e *Eval) recomputeFast(s int) uint64 {
	n := e.n
	e.journalRow(s)
	row := e.dist[s*n : (s+1)*n]
	bit := uint64(1) << uint(s)
	stride := n + 1
	lv := e.L[s*stride : s*stride+stride]
	out := e.g.out
	var changed uint64
	var total int64
	visited := uint64(1) << uint(s)
	frontier := visited
	d := int16(0)
	for frontier != 0 {
		var next uint64
		f := frontier
		for f != 0 {
			u := bits.TrailingZeros64(f)
			f &= f - 1
			next |= out[u]
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
			if od := row[v]; od != d {
				changed |= 1 << uint(v)
				if od >= 0 {
					e.T[v*stride+int(od)] &^= bit
					lv[od] &^= 1 << uint(v)
				} else {
					e.reach[v] |= bit
				}
				e.T[v*stride+int(d)] |= bit
				lv[d] |= 1 << uint(v)
				row[v] = d
			}
		}
		visited |= next
		frontier = next
	}
	reached := bits.OnesCount64(visited)
	// Vertices the BFS no longer reaches keep their old row entries;
	// retire them.
	for stale := e.g.full[0] &^ visited; stale != 0; stale &= stale - 1 {
		v := bits.TrailingZeros64(stale)
		if od := row[v]; od >= 0 {
			changed |= 1 << uint(v)
			e.T[v*stride+int(od)] &^= bit
			lv[od] &^= 1 << uint(v)
			e.reach[v] &^= bit
			row[v] = -1
		}
	}
	e.noteChanged(s, changed)
	unreach := int32(n - reached)
	e.total += total - e.srcTotal[s]
	e.unreachable += int(unreach - e.srcUnreach[s])
	e.srcTotal[s] = total
	e.srcUnreach[s] = unreach
	e.ecc[s] = d
	return changed
}

// CheckConsistency recomputes every aggregate from scratch and returns
// an error describing the first mismatch (nil when the incremental
// state is exact). Intended for tests and debugging.
func (e *Eval) CheckConsistency() error {
	e.flush()
	total, unreach, diam := e.g.HopStats()
	if total != e.total || unreach != e.unreachable || diam != e.Diameter() {
		return fmt.Errorf("bitgraph: eval aggregates (%d,%d,%d) != recomputed (%d,%d,%d)",
			e.total, e.unreachable, e.Diameter(), total, unreach, diam)
	}
	n := e.n
	row := make([]int16, n)
	scratch := newBFSScratch(n)
	for s := 0; s < n; s++ {
		_, _, ecc := e.g.bfsRowStats(s, row, scratch)
		for v := 0; v < n; v++ {
			if row[v] != e.dist[s*n+v] {
				return fmt.Errorf("bitgraph: eval dist[%d][%d] = %d, recomputed %d",
					s, v, e.dist[s*n+v], row[v])
			}
		}
		if ecc != e.ecc[s] {
			return fmt.Errorf("bitgraph: eval ecc[%d] = %d, recomputed %d", s, e.ecc[s], ecc)
		}
	}
	if e.fastT {
		// Every level-mask word, T and L alike, must equal the one the
		// rows imply.
		stride := n + 1
		trans, levels := make([]uint64, len(e.T)), make([]uint64, len(e.L))
		for s := 0; s < n; s++ {
			bit := uint64(1) << uint(s)
			for v := 0; v < n; v++ {
				d := e.dist[s*n+v]
				if (d >= 0) != (e.reach[v]&bit != 0) {
					return fmt.Errorf("bitgraph: eval reach[%d] bit %d inconsistent with dist %d", v, s, d)
				}
				if d >= 0 {
					trans[v*stride+int(d)] |= bit
					levels[s*stride+int(d)] |= 1 << uint(v)
				}
			}
		}
		for i := range trans {
			if e.T[i] != trans[i] {
				return fmt.Errorf("bitgraph: eval T[%d][%d] = %#x, recomputed %#x", i/stride, i%stride, e.T[i], trans[i])
			}
			if e.L[i] != levels[i] {
				return fmt.Errorf("bitgraph: eval L[%d][%d] = %#x, recomputed %#x", i/stride, i%stride, e.L[i], levels[i])
			}
		}
	}
	for i := range e.cuts {
		c := &e.cuts[i]
		uv, vu := e.g.Cross(c.mask)
		if uv != c.crossUV || vu != c.crossVU {
			return fmt.Errorf("bitgraph: eval cut %d counters (%d,%d) != recomputed (%d,%d)",
				i, c.crossUV, c.crossVU, uv, vu)
		}
	}
	if e.w != nil {
		wTotal, wUnreach := e.g.WeightedHops(e.w)
		if math.Abs(wTotal-e.wTotal) > 1e-6*(1+math.Abs(wTotal)) || wUnreach != e.wUnreach {
			return fmt.Errorf("bitgraph: eval weighted (%v,%d) != recomputed (%v,%d)",
				e.wTotal, e.wUnreach, wTotal, wUnreach)
		}
		// reweighChanged's skip is exact only while every row outside
		// wDelta holds reweighRow's own sum, bit for bit.
		for s := 0; e.fastT && s < n; s++ {
			if e.wDelta&(1<<uint(s)) != 0 {
				continue
			}
			var sum float64
			for v, d := range e.dist[s*n : (s+1)*n] {
				if v != s && d >= 0 {
					sum += e.w[s][v] * float64(d)
				}
			}
			if math.Float64bits(sum) != math.Float64bits(e.srcWTotal[s]) {
				return fmt.Errorf("bitgraph: eval weighted row %d = %v, re-summed %v", s, e.srcWTotal[s], sum)
			}
		}
	}
	if e.costOf != nil {
		var want int64
		for _, l := range e.g.Links() {
			want += e.costOf(l.A, l.B)
		}
		if want != e.costTotal {
			return fmt.Errorf("bitgraph: eval link cost %d != recomputed %d", e.costTotal, want)
		}
	}
	return nil
}

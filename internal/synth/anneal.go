package synth

import (
	"math"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
	"netsmith/internal/topo"
)

// annealer drives the simulated-annealing search with lazy sparsest-cut
// separation for SCOp. Restarts run in per-worker search contexts
// (searchCtx) holding an incremental bitgraph.Eval each, so the hot loop
// never pays a full-evaluation rescan and restarts share nothing but the
// read-only candidate set; the incumbent and trace are written only by
// the sequential merge.
type annealer struct {
	cfg       Config
	eval      *evaluator
	valid     []layout.Link   // candidate directed links (set L)
	byFrom    [][]layout.Link // valid indexed by source endpoint
	trace     []ProgressPoint
	best      *bitgraph.Graph
	bestScore float64
	bound     float64 // lower bound (LatOp/Weighted) or upper bound (SCOp)
	// steps counts the annealing steps merged so far, in merge order; it
	// stamps ProgressPoint.Steps.
	steps int64
}

func newAnnealer(cfg Config) *annealer {
	valid := cfg.Grid.ValidLinks(cfg.Class)
	byFrom := make([][]layout.Link, cfg.Grid.N())
	for _, l := range valid {
		byFrom[l.From] = append(byFrom[l.From], l)
	}
	return &annealer{
		cfg:    cfg,
		eval:   newEvaluator(cfg),
		valid:  valid,
		byFrom: byFrom,
	}
}

// localPoint is one local-best improvement inside a restart, kept so
// the merge can rebuild the progress trace in restart order.
type localPoint struct {
	score     float64
	incumbent float64
	feasible  bool
	step      int64 // step index within the restart
}

// restartResult is one restart's locally best state, improvement
// history and step count, consumed by the deterministic merge.
type restartResult struct {
	score float64
	snap  *bitgraph.Graph
	local []localPoint
	steps int64
}

func (a *annealer) run() (*Result, error) {
	switch a.cfg.Objective {
	case LatOp, Weighted:
		a.bound = latOpLowerBound(a.cfg)
	case SCOp:
		a.bound = scOpUpperBound(a.cfg)
	}
	a.setBest(nil, math.Inf(1))
	if a.cfg.Population > 0 {
		// Population mode: evolve a pool of topologies. Children are
		// computed in parallel but merged sequentially with (score,
		// index) tie-breaking, so the trace and incumbent are rebuilt
		// deterministically, like fixed-restart mode.
		a.runPopulation()
	} else {
		// Fixed-restart mode: restarts are mutually independent (each
		// derives its RNG from Seed and the restart index alone), so they
		// run in parallel and merge afterwards in ascending restart
		// order. Strict improvement means the lowest (score, restart
		// index) wins, and the trace is rebuilt from the per-restart
		// histories in the same order, so the topology and Result.Trace
		// are identical for a given seed regardless of GOMAXPROCS.
		results := make([]restartResult, a.cfg.Restarts)
		parallelFor(len(results), func(r int) {
			results[r] = a.annealRestart(int64(r), a.cfg.Iterations)
		})
		for _, res := range results {
			a.offerResult(res)
		}
	}
	if a.best == nil {
		// No state scored below +Inf (a non-finite weight): fall back to
		// the deterministic seed.
		s := stateFromTopology(seedTopology(a.cfg))
		a.setBest(s, a.eval.fullScore(s))
	}
	// Close the loop with the exact separation oracle for objectives that
	// score through the cut pool: find the true sparsest cut of the
	// incumbent; if the pool misses it, add it and re-anneal until the
	// pool is exact on the incumbent (cut/row generation). For SCOp this
	// tightens the reported objective; for a C7 minimum-cut constraint it
	// catches incumbents whose true sparsest cut violates the bound even
	// though every pooled cut satisfies it.
	if a.cfg.Objective == SCOp || a.cfg.MinCutBW > 0 {
		for round := 0; round < 12; round++ {
			t := a.toTopology(a.best)
			exact := t.SparsestCut()
			if a.cfg.Objective != SCOp && exact.Bandwidth >= a.cfg.MinCutBW-1e-12 {
				break // C7 satisfied exactly
			}
			poolBW := a.best.PoolMin(a.eval.cutPool)
			if exact.Bandwidth >= poolBW-1e-12 {
				break // pool is tight on the incumbent
			}
			a.eval.addCut(exact.U)
			a.setBest(a.best, a.eval.fullScore(a.best))
			res := a.annealRestart(int64(1000+round), min(a.cfg.Iterations, 60000))
			a.offerResult(res)
		}
	}
	// Fragility oracle: the pool prices only the cuts it knows about, so
	// an incumbent can still hide a critical link behind an unpooled
	// 1-crossing cut. Probe every link exactly; each critical one
	// certifies such a cut — pool it, re-score and re-anneal until no
	// probe finds a cut the pool lacks (the C7 row-generation idea turned
	// on single-failure reachability).
	if a.cfg.RobustWeight > 0 {
		for round := 0; round < 12; round++ {
			cuts, _ := criticalCuts(a.best)
			grew := false
			for _, u := range cuts {
				if a.eval.addCut(u) {
					grew = true
				}
			}
			if !grew {
				break
			}
			a.setBest(a.best, a.eval.fullScore(a.best))
			res := a.annealRestart(int64(2000+round), min(a.cfg.Iterations, 60000))
			a.offerResult(res)
		}
	}
	return a.finish()
}

// setBest replaces the incumbent unconditionally.
func (a *annealer) setBest(s *bitgraph.Graph, score float64) {
	a.best = s
	a.bestScore = score
}

// offerResult merges one restart, in merge order. It first replays the
// restart's improvement history against the current incumbent, emitting
// the progress points a sequential run of the restarts would have
// produced (each restart's history is strictly improving, so every point
// below the incumbent is a global improvement in replay order), stamped
// with the merged step count plus the point's step within the restart.
// It then adds the restart's steps to the count and installs its best if
// it strictly improves on the incumbent.
func (a *annealer) offerResult(res restartResult) {
	for _, p := range res.local {
		if p.score >= a.bestScore || !p.feasible {
			continue
		}
		a.emit(a.steps+p.step, p.incumbent)
	}
	a.steps += res.steps
	if res.score < a.bestScore {
		a.setBest(res.snap, res.score)
	}
}

// emit appends a progress point for a new incumbent objective and hands
// it to the Progress callback.
func (a *annealer) emit(steps int64, incumbent float64) {
	pt := ProgressPoint{
		Steps:     steps,
		Incumbent: incumbent,
		Bound:     a.bound,
		Gap:       a.gapOf(incumbent),
	}
	a.trace = append(a.trace, pt)
	if a.cfg.Progress != nil {
		a.cfg.Progress(pt)
	}
}

func stateFromTopology(t *topo.Topology) *bitgraph.Graph {
	s := bitgraph.New(t.N())
	for _, l := range t.Links() {
		s.Add(l.From, l.To)
	}
	return s
}

func (a *annealer) toTopology(s *bitgraph.Graph) *topo.Topology {
	t := topo.New(nameFor(a.cfg), a.cfg.Grid, a.cfg.Class)
	for _, l := range s.Links() {
		t.AddLink(l.A, l.B)
	}
	return t
}

// searchCtx is one restart's private search state: an incremental
// evaluator over the working graph plus the endpoint-indexed move
// sampler (openOut lists the routers with spare out-radix, so add moves
// sample feasible sources in O(1) instead of rejection-sampling the
// whole candidate set).
type searchCtx struct {
	a       *annealer
	ev      *bitgraph.Eval
	openOut []int32
	openPos []int32
	touched []int32
}

func (a *annealer) newSearchCtx(g *bitgraph.Graph) *searchCtx {
	var weights [][]float64
	if a.cfg.Objective == Weighted {
		weights = a.cfg.Weights
	}
	ev := bitgraph.NewEval(g, weights)
	if a.eval.linkCostMilli != nil {
		ev.SetLinkCost(a.eval.linkCostMilli)
	}
	if a.cfg.Objective == SCOp || a.cfg.MinCutBW > 0 || a.cfg.RobustWeight > 0 {
		for _, m := range a.eval.cutPool {
			ev.AddCut(m)
		}
	}
	n := g.N()
	c := &searchCtx{a: a, ev: ev, openPos: make([]int32, n)}
	for i := range c.openPos {
		c.openPos[i] = -1
	}
	for x := 0; x < n; x++ {
		c.noteDeg(x)
	}
	return c
}

// noteDeg reconciles router x's membership in the spare-out-radix index
// with its current out-degree.
func (c *searchCtx) noteDeg(x int) {
	g := c.ev.Graph()
	open := g.OutDeg[x] < c.a.cfg.Radix && len(c.a.byFrom[x]) > 0
	cur := c.openPos[x] >= 0
	if open == cur {
		return
	}
	if open {
		c.openPos[x] = int32(len(c.openOut))
		c.openOut = append(c.openOut, int32(x))
	} else {
		i := c.openPos[x]
		last := c.openOut[len(c.openOut)-1]
		c.openOut[i] = last
		c.openPos[last] = i
		c.openOut = c.openOut[:len(c.openOut)-1]
		c.openPos[x] = -1
	}
}

func (c *searchCtx) begin() {
	c.ev.Begin()
	c.touched = c.touched[:0]
}

func (c *searchCtx) commit() { c.ev.Commit() }

func (c *searchCtx) rollback() {
	c.ev.Rollback()
	for _, x := range c.touched {
		c.noteDeg(int(x))
	}
}

func (c *searchCtx) doAdd(from, to int) {
	c.ev.Add(from, to)
	c.touch(from)
	if c.a.cfg.Symmetric {
		c.ev.Add(to, from)
		c.touch(to)
	}
}

func (c *searchCtx) doRemove(from, to int) {
	c.ev.Remove(from, to)
	c.touch(from)
	if c.a.cfg.Symmetric {
		c.ev.Remove(to, from)
		c.touch(to)
	}
}

// touch records an endpoint whose out-degree changed so the spare-radix
// index stays reconciled (and can be re-reconciled after a rollback).
func (c *searchCtx) touch(x int) {
	c.touched = append(c.touched, int32(x))
	c.noteDeg(x)
}

func (c *searchCtx) canAdd(from, to int) bool {
	return feasibleAdd(c.ev.Graph(), &c.a.cfg, from, to)
}

func feasibleAdd(s *bitgraph.Graph, cfg *Config, from, to int) bool {
	if s.Has(from, to) {
		return false
	}
	if s.OutDeg[from] >= cfg.Radix || s.InDeg[to] >= cfg.Radix {
		return false
	}
	if cfg.Symmetric {
		if s.Has(to, from) {
			return false
		}
		if s.OutDeg[to] >= cfg.Radix || s.InDeg[from] >= cfg.Radix {
			return false
		}
	}
	return true
}

// canAddAfterRemove reports whether nl would be feasible once the link
// (oa, ob) — plus its reverse in symmetric mode — is removed, by
// checking degrees with the removal's adjustment applied. This lets
// swap moves validate before touching the evaluator.
func (c *searchCtx) canAddAfterRemove(nl layout.Link, oa, ob int) bool {
	g := c.ev.Graph()
	if nl.From == oa && nl.To == ob {
		return false
	}
	if g.Has(nl.From, nl.To) {
		return false
	}
	sym := c.a.cfg.Symmetric
	radix := c.a.cfg.Radix
	if adjOutDeg(g, nl.From, oa, ob, sym) >= radix || adjInDeg(g, nl.To, oa, ob, sym) >= radix {
		return false
	}
	if sym {
		if g.Has(nl.To, nl.From) && !(nl.To == oa && nl.From == ob) {
			return false
		}
		if adjOutDeg(g, nl.To, oa, ob, sym) >= radix || adjInDeg(g, nl.From, oa, ob, sym) >= radix {
			return false
		}
	}
	return true
}

// adjOutDeg returns x's out-degree as it will be once link (oa, ob) —
// plus its reverse in symmetric mode — is removed.
func adjOutDeg(g *bitgraph.Graph, x, oa, ob int, sym bool) int {
	d := g.OutDeg[x]
	if x == oa {
		d--
	}
	if sym && x == ob {
		d--
	}
	return d
}

// adjInDeg is adjOutDeg for the in-degree.
func adjInDeg(g *bitgraph.Graph, x, oa, ob int, sym bool) int {
	d := g.InDeg[x]
	if x == ob {
		d--
	}
	if sym && x == oa {
		d--
	}
	return d
}

// move is a selected (not yet applied) mutation.
type move struct {
	kind           moveKind
	rf, rt, af, at int // remove from/to, add from/to
}

type moveKind int

const (
	moveAdd moveKind = iota
	moveRemove
	moveSwap
)

// propose selects one random feasible move without touching the
// evaluator; application and acceptance are the caller's business.
func (c *searchCtx) propose(rng *fastRand) (move, bool) {
	g := c.ev.Graph()
	sym := c.a.cfg.Symmetric
	for attempt := 0; attempt < 16; attempt++ {
		switch rng.Intn(3) {
		case 0: // add a valid link from a router with spare out-radix
			if len(c.openOut) == 0 {
				continue
			}
			src := int(c.openOut[rng.Intn(len(c.openOut))])
			cands := c.a.byFrom[src]
			l := cands[rng.Intn(len(cands))]
			if c.canAdd(l.From, l.To) {
				return move{kind: moveAdd, af: l.From, at: l.To}, true
			}
		case 1: // remove a random existing link
			if g.NumLinks() == 0 {
				continue
			}
			l := g.LinkAt(rng.Intn(g.NumLinks()))
			if sym && !g.Has(l.B, l.A) {
				continue
			}
			return move{kind: moveRemove, rf: l.A, rt: l.B}, true
		default: // swap: remove one, add another
			if g.NumLinks() == 0 {
				continue
			}
			old := g.LinkAt(rng.Intn(g.NumLinks()))
			if sym && !g.Has(old.B, old.A) {
				continue
			}
			nl := c.a.valid[rng.Intn(len(c.a.valid))]
			if c.canAddAfterRemove(nl, old.A, old.B) {
				return move{kind: moveSwap, rf: old.A, rt: old.B, af: nl.From, at: nl.To}, true
			}
		}
	}
	return move{}, false
}

// poolInScore reports whether the scalarized score has components
// beyond distances — cut-pool terms, or the fragility term's degree
// slack — in which case no link removal is score-neutral even when it
// dirties no distance row.
func (c *searchCtx) poolInScore() bool {
	return c.a.cfg.Objective == SCOp || c.a.cfg.MinCutBW > 0 || c.a.cfg.RobustWeight > 0
}

// removalBound is a lower bound on the score increase of removing link
// a->b, for a removal that dirties pending distance rows from a state
// scoring curScore: each dirty row raises the hop terms by at least 1,
// and the pooled-cut terms rise by exactly the difference their peeked
// post-removal pool minimum makes. Only the rounding of score's own
// summation separates that sum from the exact delta; the relative slack
// covers it, so a Metropolis draw the exact delta accepts is never
// rejected by the bound. Call only when the score reads the pool
// minimum and the pool is non-empty.
func (c *searchCtx) removalBound(a, b, pending int, curScore float64) float64 {
	now, after := c.ev.PeekRemovePoolMin(a, b)
	return lessSlack(float64(pending)+c.cutTerms(after)-c.cutTerms(now), curScore)
}

// lessSlack lowers lb, a lower bound on a removal's score increase from
// a state scoring curScore, by a relative slack that covers the
// rounding of score's own summation, so that a Metropolis draw the
// exact delta accepts is never rejected by the bound.
func lessSlack(lb, curScore float64) float64 {
	return lb - 1e-9*(1+math.Abs(curScore)+lb)
}

// weightedRemovalBound is a lower bound on the score increase of
// removing link a->b under the Weighted objective (no pool, diameter
// or energy term), with ok false when the peek gives none, plus the
// number of sources the removal dirties. A weighted pair the removal
// disconnects pays penaltyDisconnected twice, once as an unreachable
// pair and once as a weighted one, so it is priced at twice that.
func (c *searchCtx) weightedRemovalBound(a, b int, curScore float64) (pending int, lb float64, ok bool) {
	pending, lb, ok = c.ev.PeekRemoveWeighted(a, b, 2*penaltyDisconnected)
	return pending, lessSlack(lb, curScore), ok
}

// pairBound is a lower bound on the score increase of removing link
// a->b under a LatOp score with no energy term, measured from curScore
// for a removal whose state already scores base above it (0 for a plain
// removal, the add half's delta for a swap). Every pair the removal
// lengthens adds at least one hop, or, lost, a disconnection penalty in
// place of fewer than n hops, and the pool and fragility terms only
// grow under a removal. The peek keeps its walks for the removal's
// repair.
func (c *searchCtx) pairBound(a, b int, base, curScore float64) float64 {
	_, pairs := c.ev.PeekRemovePairs(a, b)
	return lessSlack(base+float64(pairs), curScore)
}

// incumbentObjective extracts the raw objective (not the penalized
// score) and whether the state is feasible, from the maintained
// aggregates.
func (c *searchCtx) incumbentObjective() (float64, bool) {
	cfg := &c.a.cfg
	if c.ev.Unreachable() > 0 {
		return 0, false
	}
	if cfg.MaxDiameter > 0 && c.ev.Diameter() > cfg.MaxDiameter {
		return 0, false
	}
	switch cfg.Objective {
	case LatOp:
		return float64(c.ev.Total()), true
	case SCOp:
		return c.ev.PoolMin(), true
	case Weighted:
		wt, wUnreach := c.ev.WeightedTotal()
		return wt, wUnreach == 0
	}
	return 0, false
}

// annealRestart runs one complete annealing schedule of iters steps and
// returns the restart's local best. The trajectory depends only on
// (Seed, restart), never on other restarts, which is what makes the
// fixed-restart merge deterministic.
func (a *annealer) annealRestart(restart int64, iters int) restartResult {
	cfg := a.cfg
	rng := newFastRand(cfg.Seed*1000003 + restart)
	state := stateFromTopology(seedTopology(cfg))
	a.fillRandom(state, rng)
	return a.annealFrom(rng, state, iters, 1)
}

// annealFrom runs one annealing schedule of iters steps starting from
// state (mutated in place) and returns the local best found. The
// trajectory is a pure function of (rng state, state, iters, tempScale),
// which lets population mode reuse the annealer as its mutation
// operator: crossover children are burst-annealed from their repaired
// link sets with child-derived RNGs, preserving the determinism
// contract. tempScale scales the starting temperature: restarts explore
// from scratch at 1; population bursts polish an already-good child at
// popBurstTemp, cool enough not to scramble the inherited structure.
func (a *annealer) annealFrom(rng *fastRand, state *bitgraph.Graph, iters int, tempScale float64) restartResult {
	cfg := a.cfg
	ctx := a.newSearchCtx(state)
	curScore := ctx.score()
	curValid := true
	localBest := curScore
	// One snapshot buffer per run; local-best improvements copy into it.
	snapshot := state.Clone()
	var local []localPoint
	// step is the index of the move being processed; after the loop it
	// equals iters.
	var step int
	// note logs a local-best improvement for the merge's trace replay.
	note := func(score float64) {
		incumbent, feasible := ctx.incumbentObjective()
		local = append(local, localPoint{
			score: score, incumbent: incumbent, feasible: feasible,
			step: int64(step),
		})
	}
	note(curScore)

	// refresh settles any lazily accepted moves: it flushes the pending
	// recomputes, re-reads the score and checkpoints the local best.
	// Chains of free moves are monotone non-worsening, so checkpointing
	// at the chain end never misses a better intermediate state.
	refresh := func() {
		if curValid {
			return
		}
		curScore = ctx.score()
		curValid = true
		if curScore < localBest-1e-12 {
			localBest = curScore
			snapshot.CopyFrom(ctx.ev.Graph())
			note(curScore)
		}
	}

	// settle finishes a scored move: commit on accept (checkpointing a
	// local-best improvement) or roll the transaction back.
	settle := func(accept bool, newScore float64) {
		if !accept {
			ctx.rollback()
			return
		}
		ctx.commit()
		curScore = newScore
		if curScore < localBest-1e-12 {
			localBest = curScore
			snapshot.CopyFrom(ctx.ev.Graph())
			note(curScore)
		}
	}

	// Geometric cooling scaled to the initial score magnitude.
	t0 := tempScale * math.Max(1, 0.02*math.Abs(curScore))
	tEnd := math.Max(1e-6, 1e-4*t0)
	cooling := math.Pow(tEnd/t0, 1/float64(max(1, iters)))
	temp := t0

	// removeAndSettle applies a plain removal whose uniform u is already
	// drawn, and settles its exact delta against the same draw.
	removeAndSettle := func(mv move, u float64) {
		ctx.begin()
		ctx.doRemove(mv.rf, mv.rt)
		newScore := ctx.score()
		settle(metropolisAccept(u, (newScore-curScore)/temp), newScore)
	}

	// The monotonicity fast paths below assume additions never worsen and
	// removals never improve any score component. A positive EnergyWeight
	// breaks both directions (adds pay energy, removals recoup it), so
	// energy-aware runs route every move through the exact transactional
	// Metropolis path.
	mono := a.eval.linkCostMilli == nil
	// cutScored: SCOp rewards the pool minimum and the pool is
	// non-empty, so a removal that lowers the minimum pays a finite
	// cut-term increase that can join the peek-first rejection bound
	// (cutTerms also keeps the C7 term of an SCOp config that sets
	// MinCutBW). A C7-only config pays nothing while its bound holds,
	// so it skips the peek.
	cutScored := cfg.Objective == SCOp && ctx.ev.NumCuts() > 0
	// weightedPeek: a Weighted score with no term beyond the weighted
	// hops and the unreachable-pair penalties on a single-word graph, so
	// a plain removal can be bounded from its peeked affected targets
	// before it is applied. Multi-word removals take the transactional
	// path, whose dirty scan the peek would only repeat.
	weightedPeek := mono && cfg.Objective == Weighted && !cfg.Symmetric &&
		cfg.MaxDiameter == 0 && !ctx.poolInScore() && cfg.Grid.N() <= bitgraph.MaxFastNodes
	// pairPeek: a LatOp score with no diameter term on a single-word
	// graph, whose additions repair eagerly and whose removals repair
	// from the walks PeekRemovePairs keeps. Plain removals, and the
	// removal half of swaps, are then bounded by the pairs they
	// lengthen (pairBound) at no extra walk. Symmetric moves drop two
	// links, which one peek does not bound.
	pairPeek := mono && cfg.Objective == LatOp && !cfg.Symmetric &&
		cfg.MaxDiameter == 0 && cfg.Grid.N() <= bitgraph.MaxFastNodes

	for ; step < iters; step++ {
		mv, ok := ctx.propose(rng)
		if !ok {
			continue
		}
		if mv.kind == moveAdd && mono {
			// Every score component is monotone non-worsening under a
			// link addition (distances and unreachable pairs shrink, cut
			// crossings grow), so the Metropolis test always accepts:
			// apply without a transaction and defer the evaluation.
			ctx.doAdd(mv.af, mv.at)
			curValid = false
			temp *= cooling
			continue
		}
		refresh()
		temp *= cooling // cooling applies to every applied move below
		if mono && mv.kind == moveRemove && !cfg.Symmetric && cfg.Objective != Weighted {
			// Peek-first removal: detection without mutation. A removal
			// the bound already rejects costs nothing but the peek — no
			// transaction, no graph churn, no rollback. (Symmetric
			// removals drop two links whose combined dirty set the peek
			// of one direction does not bound; they take the
			// transactional path below.)
			pending := ctx.ev.PeekRemove(mv.rf, mv.rt)
			if pending == 0 && !ctx.poolInScore() {
				// Score-neutral: apply outside any transaction, like a
				// free add.
				ctx.doRemove(mv.rf, mv.rt)
				continue
			}
			if float64(pending) >= 30*temp {
				continue // rejected, nothing was mutated
			}
			u := rng.Float64()
			if !metropolisAccept(u, float64(pending)/temp) {
				continue // delta >= pending already rejects this draw
			}
			if cutScored && !metropolisAccept(u, ctx.removalBound(mv.rf, mv.rt, pending, curScore)/temp) {
				// Cut-first rejection: the pool's share of the delta
				// already rejects this draw. Leave the link list as the
				// transactional rollback would.
				ctx.ev.Requeue(mv.rf, mv.rt)
				continue
			}
			if pairPeek && !metropolisAccept(u, ctx.pairBound(mv.rf, mv.rt, 0, curScore)/temp) {
				// The pairs the removal lengthens already reject this
				// draw.
				ctx.ev.Requeue(mv.rf, mv.rt)
				continue
			}
			// Plausible accept: now apply for real and settle the exact
			// delta against the same draw.
			removeAndSettle(mv, u)
			continue
		}
		if weightedPeek && mv.kind == moveRemove {
			// The transactional path below commits a removal that
			// dirties nothing without a draw, and draws a uniform only
			// for a positive delta. So the peek may settle both cases
			// ahead of it without moving the RNG: a removal that dirties
			// nothing is applied outside any transaction, and one whose
			// bound is positive draws its uniform now, since its delta
			// is at least the bound. A draw the bound rejects rejects
			// the exact delta too, and only the link order, which the
			// rollback would have left, needs restoring.
			pending, lb, ok := ctx.weightedRemovalBound(mv.rf, mv.rt, curScore)
			if pending == 0 {
				ctx.doRemove(mv.rf, mv.rt)
				continue
			}
			if ok && lb > 0 {
				u := rng.Float64()
				if !metropolisAccept(u, lb/temp) {
					ctx.ev.Requeue(mv.rf, mv.rt)
					continue
				}
				removeAndSettle(mv, u)
				continue
			}
		}
		ctx.begin()
		if mv.kind == moveSwap || mv.kind == moveAdd {
			// On multi-word graphs a swap keeps the union semantics: the
			// add and remove halves often dirty the same sources near
			// the touched endpoints, and the lazy queue recomputes each
			// exactly once against the final graph. Single-word graphs
			// repair the add half eagerly. (A bare add only reaches
			// this path in energy mode, where it needs the exact test.)
			ctx.doAdd(mv.af, mv.at)
		}
		if pairPeek && mv.kind == moveSwap {
			// The add half repaired eagerly, so its score is exact, and
			// the removal half raises it by at least the pairs it
			// lengthens. A positive bound means a positive exact delta,
			// for which the path below draws a uniform too: draw it now.
			// A draw the bound rejects rolls back the lone add, which
			// leaves the link list as the full rollback would.
			if lb := ctx.pairBound(mv.rf, mv.rt, ctx.score()-curScore, curScore); lb > 0 {
				u := rng.Float64()
				if !metropolisAccept(u, lb/temp) {
					ctx.rollback()
					continue
				}
				ctx.doRemove(mv.rf, mv.rt)
				newScore := ctx.score()
				settle(metropolisAccept(u, (newScore-curScore)/temp), newScore)
				continue
			}
		}
		if mv.kind != moveAdd {
			ctx.doRemove(mv.rf, mv.rt)
		}
		pending := ctx.ev.Pending()
		if mono && pending == 0 && !ctx.poolInScore() {
			// The removal changed no distance row and the pool is not
			// scored, so the delta is the add half's (non-positive)
			// contribution: provably accepted with no extra BFS. For a
			// swap the add half may have improved the score already —
			// in fast mode its repair ran eagerly and leaves nothing
			// pending — so the cached score must be refreshed before
			// the next exact comparison.
			ctx.commit()
			if mv.kind == moveSwap {
				curValid = false
			}
			continue
		}
		// Removal bound: every score term is monotone non-worsening
		// under a removal and each dirty source raises the raw hop
		// total — which every objective except Weighted scores directly
		// — by at least 1, so a plain removal's delta >= pending. (No
		// such bound for swaps, whose add half can improve the score,
		// or for Weighted, whose demands can be zero on the affected
		// pairs.)
		bound := float64(pending)
		if mono && mv.kind == moveRemove && cfg.Objective != Weighted {
			if bound >= 30*temp {
				// exp(-30) < 1e-13 is below any realistic uniform draw:
				// reject without even drawing.
				ctx.rollback()
				continue
			}
			// Draw the Metropolis uniform first: since the true delta is
			// at least bound, a draw the bound already rejects would
			// reject the exact delta too — no BFS needed. The exact path
			// below reuses the same draw, so the overall test is still
			// exact Metropolis.
			u := rng.Float64()
			if !metropolisAccept(u, bound/temp) {
				ctx.rollback()
				continue
			}
			newScore := ctx.score()
			settle(metropolisAccept(u, (newScore-curScore)/temp), newScore)
			continue
		}
		newScore := ctx.score()
		delta := newScore - curScore
		settle(delta <= 0 || metropolisAccept(rng.Float64(), delta/temp), newScore)
	}
	refresh()
	return restartResult{localBest, snapshot, local, int64(iters)}
}

// gapOf computes the objective-bounds gap; see ProgressPoint.Gap for the
// per-objective formulas.
func (a *annealer) gapOf(incumbent float64) float64 {
	switch a.cfg.Objective {
	case LatOp, Weighted:
		if incumbent <= 0 {
			return 0
		}
		return math.Max(0, (incumbent-a.bound)/incumbent)
	case SCOp:
		if a.bound <= 0 {
			return 0
		}
		return math.Max(0, (a.bound-incumbent)/a.bound)
	}
	return 0
}

// fillRandom saturates remaining port budget with random valid links.
// It runs on the bare graph before the evaluator attaches, so the bulk
// build costs one full evaluation instead of one delta per link.
func (a *annealer) fillRandom(s *bitgraph.Graph, rng *fastRand) {
	perm := rng.Perm(len(a.valid))
	for _, idx := range perm {
		l := a.valid[idx]
		if feasibleAdd(s, &a.cfg, l.From, l.To) {
			s.Add(l.From, l.To)
			if a.cfg.Symmetric {
				s.Add(l.To, l.From)
			}
		}
	}
}

// finish converts the incumbent into a Result with exact (not pool-based)
// objective values.
func (a *annealer) finish() (*Result, error) {
	t := a.toTopology(a.best)
	res := &Result{Topology: t, Trace: a.trace, Bound: a.bound}
	switch a.cfg.Objective {
	case LatOp:
		total, _, _ := a.best.HopStats()
		res.Objective = float64(total)
	case SCOp:
		res.Objective = t.SparsestCut().Bandwidth
	case Weighted:
		wt, _ := a.best.WeightedHops(a.cfg.Weights)
		res.Objective = wt
	}
	if a.eval.linkCostMilli != nil {
		res.EnergyProxy = energyProxyOf(a.eval.energyProxySum(a.best))
	}
	if a.cfg.RobustWeight > 0 {
		_, res.CriticalLinks = criticalCuts(a.best)
		res.Fragility = robustFragility(a.best.OutDeg, a.best.InDeg,
			a.best.PoolMinCross(a.eval.cutPool))
	}
	res.Gap = a.gapOf(res.Objective)
	res.Optimal = res.Gap <= 1e-9
	return res, nil
}

// metropolisAccept reports u < exp(-x) for x >= 0: the Metropolis
// acceptance test for a worsening move with normalized delta x. The
// exp(-x) >= 1-x and exp(-x) <= 1/(1+x) sandwiches settle most draws
// without paying for the transcendental.
func metropolisAccept(u, x float64) bool {
	if u < 1-x {
		return true
	}
	if u*(1+x) >= 1 {
		return false
	}
	return u < math.Exp(-x)
}

package synth

import (
	"encoding/binary"
	"math"
	"sort"

	"netsmith/internal/bitgraph"
	"netsmith/internal/par"
	"netsmith/internal/store"
)

// Population mode. Generate evolves a pool of Config.Population
// topologies for Config.Generations rounds: tournament-selected parents
// are crossed over (common-link backbone plus a shuffled draw from the
// symmetric difference), repaired to strong connectivity through the
// bitgraph.Eval journal, burst-annealed for Iterations steps, and
// merged elitistically with deterministic (score, index) tie-breaking.
//
// Everything stochastic derives from Config.Seed through fixed integer
// seed schedules, children are computed in parallel but keyed by index
// and merged sequentially, so evolution is a pure function of the
// Config at any GOMAXPROCS — the same contract fixed-restart mode
// already honors.
const (
	// popFamilySeed parameterizes the portfolio members' anneals. It is
	// a constant — deliberately NOT derived from Config.Seed — so every
	// population run over the same grid/class/radix/symmetry family
	// shares one member sequence, which is what lets the store cache
	// members across configs that differ only in weights, objective or
	// seed.
	popFamilySeed = 0x5eedfa11
	// popPlanBase offsets the per-generation plan RNG stream away from
	// the restart indices annealRestart consumes (restarts, plus the
	// 1000+/2000+ oracle rounds, stay far below it).
	popPlanBase = 9_000_000
	// popTournament is the tournament size for parent selection.
	popTournament = 3
	// popHopeless scales offspring pruning: a child whose bound gap
	// exceeds popHopeless times the worst elite's is discarded before
	// its anneal burst.
	popHopeless = 3.0
	// popBurstTemp scales the burst anneal's starting temperature. A
	// crossover child already inherits most of its parents' structure; a
	// full-temperature schedule would scramble it before cooling, so
	// bursts run as polish passes instead of fresh explorations.
	popBurstTemp = 0.25
)

// individual is one pool member: a canonical-order graph (so link
// indexing, and with it burst-anneal move sampling, is identical no
// matter how the graph was produced or reloaded) plus its scalarized
// score.
type individual struct {
	g     *bitgraph.Graph
	score float64
}

// runPopulation is population mode's search loop; run() falls through
// to the shared separation/fragility oracles and finish() afterwards.
func (a *annealer) runPopulation() {
	cfg := &a.cfg
	// Every stage is charged its full budget of Population anneals of
	// Iterations steps (members reloaded from the store and discarded
	// children included), so the step count is the same warm or cold.
	stageSteps := int64(cfg.Population) * int64(cfg.Iterations)
	pop := a.initialPopulation()
	a.steps += stageSteps
	a.popOffer(pop[0])
	bound := a.pruneBound()
	for gen := 0; gen < cfg.Generations; gen++ {
		// The breeding plan (parent pairs and child seeds) is drawn
		// sequentially up front so the parallel breeding below never
		// touches a shared RNG.
		planRNG := newFastRand(cfg.Seed*1000003 + popPlanBase + int64(gen))
		plan := breedingPlan(planRNG, len(pop), cfg.Population)
		children := make([]individual, len(plan))
		worst := pop[len(pop)-1].score
		par.For(len(children), func(_, c int) {
			children[c] = a.breed(pop, plan[c], bound, worst)
		})
		pop = popMerge(pop, children, cfg.Population)
		a.steps += stageSteps
		a.popOffer(pop[0])
	}
}

// popPair is one planned breeding: two parent indices into the
// score-sorted pool and the child's private RNG seed.
type popPair struct {
	p1, p2 int
	seed   int64
}

// breedingPlan draws count breedings from rng. The pool is sorted by
// (score, index), so a tournament winner is simply the smallest of
// popTournament uniform index draws.
func breedingPlan(rng *fastRand, popLen, count int) []popPair {
	plan := make([]popPair, count)
	for c := range plan {
		plan[c] = popPair{
			p1:   tournamentPick(rng, popLen),
			p2:   tournamentPick(rng, popLen),
			seed: int64(rng.next() >> 1),
		}
	}
	return plan
}

func tournamentPick(rng *fastRand, n int) int {
	best := rng.Intn(n)
	for i := 1; i < popTournament; i++ {
		if c := rng.Intn(n); c < best {
			best = c
		}
	}
	return best
}

// breed produces one child: crossover, bound-based pruning, then an
// anneal burst. A zero individual (nil graph) means the child was
// discarded — repair failed or the bound proved it hopeless — and the
// elitist merge simply keeps more parents.
func (a *annealer) breed(pop []individual, pair popPair, bound, worst float64) individual {
	rng := newFastRand(pair.seed)
	child, ok := a.crossover(pop[pair.p1].g, pop[pair.p2].g, rng)
	if !ok {
		return individual{}
	}
	if a.hopeless(a.eval.fullScore(child), bound, worst) {
		return individual{}
	}
	res := a.annealFrom(rng, child, a.cfg.Iterations, popBurstTemp)
	g := res.snap.CanonicalClone()
	return individual{g: g, score: a.eval.fullScore(g)}
}

// crossover builds a child from two parents: the common-link backbone,
// plus links drawn from the parents' symmetric difference in rng order
// until the child reaches the parents' mean link count (the shortfall
// below full port saturation is deliberate slack for repair), then
// journaled connectivity repair. ok is false when repair cannot connect
// the child within one full candidate sweep per fix; the caller
// discards such children.
func (a *annealer) crossover(pa, pb *bitgraph.Graph, rng *fastRand) (*bitgraph.Graph, bool) {
	cfg := &a.cfg
	child := bitgraph.New(pa.N())
	for _, l := range pa.Links() {
		if pb.Has(l.A, l.B) {
			child.Add(l.A, l.B)
		}
	}
	var diff []bitgraph.Link
	for _, l := range pa.Links() {
		if !pb.Has(l.A, l.B) {
			diff = append(diff, l)
		}
	}
	for _, l := range pb.Links() {
		if !pa.Has(l.A, l.B) {
			diff = append(diff, l)
		}
	}
	target := (pa.NumLinks() + pb.NumLinks()) / 2
	for _, i := range rng.Perm(len(diff)) {
		if child.NumLinks() >= target {
			break
		}
		l := diff[i]
		if feasibleAdd(child, cfg, l.A, l.B) {
			child.Add(l.A, l.B)
			if cfg.Symmetric {
				child.Add(l.B, l.A)
			}
		}
	}
	ev := bitgraph.NewEval(child, nil)
	if !a.repairConnectivity(ev, rng) {
		return nil, false
	}
	return child, true
}

// repairConnectivity adds valid links until the evaluated graph is
// strongly connected. Each candidate is probed inside a Begin/Add
// journal and rolled back unless it strictly reduces the
// unreachable-pair count, so a failed probe costs exactly its dirty-row
// recompute and leaves the evaluator bit-identical to a fresh one
// (pinned by TestRepairRollbackLeavesEvalExact). Candidates are scanned
// in one rng-shuffled order per call; a full fruitless sweep means the
// child's remaining port budget cannot be connected, and the repair
// reports failure.
func (a *annealer) repairConnectivity(ev *bitgraph.Eval, rng *fastRand) bool {
	cfg := &a.cfg
	order := rng.Perm(len(a.valid))
	for ev.Unreachable() > 0 {
		progressed := false
		for _, i := range order {
			l := a.valid[i]
			if !feasibleAdd(ev.Graph(), cfg, l.From, l.To) {
				continue
			}
			before := ev.Unreachable()
			ev.Begin()
			ev.Add(l.From, l.To)
			if cfg.Symmetric {
				ev.Add(l.To, l.From)
			}
			if ev.Unreachable() < before {
				ev.Commit()
				progressed = true
				break
			}
			ev.Rollback()
		}
		if !progressed {
			return false
		}
	}
	return true
}

// pruneBound is the bound offspring pruning measures against: the
// run's lower bound (latOpLowerBound, set by run) for LatOp and
// Weighted, none for SCOp (a maximization; its upper bound cannot
// witness that a low score is hopeless).
func (a *annealer) pruneBound() float64 {
	if a.cfg.Objective == SCOp {
		return math.Inf(-1)
	}
	return a.bound
}

// hopeless reports whether a child's pre-burst score is so far above
// the bound, relative to the worst current elite, that its burst is not
// worth paying for. The rule reads only the child, the pre-generation
// pool and the static bound, so pruning is deterministic.
func (a *annealer) hopeless(score, bound, worst float64) bool {
	if math.IsInf(bound, -1) || worst <= bound {
		return false
	}
	return score-bound > popHopeless*(worst-bound)
}

// popMerge is the elitist merge: parents then children, stably sorted
// by score — ties resolve to the lower (parent-first) index — with
// duplicate link sets collapsed so the pool keeps genuinely distinct
// topologies. The merge is sequential, making each generation's pool a
// pure function of the previous one.
func popMerge(parents, children []individual, size int) []individual {
	all := make([]individual, 0, len(parents)+len(children))
	all = append(all, parents...)
	for _, c := range children {
		if c.g != nil {
			all = append(all, c)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].score < all[j].score })
	seen := make(map[string]bool, len(all))
	out := make([]individual, 0, size)
	for _, ind := range all {
		k := linkKey(ind.g)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, ind)
		if len(out) == size {
			break
		}
	}
	return out
}

// linkKey fingerprints a canonical-order link list for pool dedup.
func linkKey(g *bitgraph.Graph) string {
	b := make([]byte, 0, 4*g.NumLinks())
	for _, l := range g.Links() {
		b = binary.AppendUvarint(b, uint64(l.A))
		b = binary.AppendUvarint(b, uint64(l.B))
	}
	return string(b)
}

// popOffer installs the pool's best as the incumbent if it strictly
// improves, emitting a progress point stamped with the steps merged so
// far, like the fixed-restart replay does.
func (a *annealer) popOffer(best individual) {
	if best.g == nil || best.score >= a.bestScore {
		return
	}
	a.setBest(best.g, best.score)
	if incumbent, feasible := a.rawObjective(best.g); feasible {
		a.emit(a.steps, incumbent)
	}
}

// rawObjective extracts the raw objective and feasibility of a graph
// with a from-scratch recompute (merges are per-generation, so the full
// evaluation cost is irrelevant).
func (a *annealer) rawObjective(g *bitgraph.Graph) (float64, bool) {
	total, unreachable, diam := g.HopStats()
	if unreachable > 0 {
		return 0, false
	}
	if a.cfg.MaxDiameter > 0 && diam > a.cfg.MaxDiameter {
		return 0, false
	}
	switch a.cfg.Objective {
	case LatOp:
		return float64(total), true
	case SCOp:
		return g.PoolMin(a.eval.cutPool), true
	case Weighted:
		wt, wUnreach := g.WeightedHops(a.cfg.Weights)
		return wt, wUnreach == 0
	}
	return 0, false
}

// initialPopulation computes (or store-loads) the portfolio members,
// scores them under the run's own objective, and returns the deduped,
// score-sorted pool.
func (a *annealer) initialPopulation() []individual {
	fam := newAnnealer(a.familyConfig())
	members := make([]*bitgraph.Graph, a.cfg.Population)
	par.For(len(members), func(_, i int) {
		members[i] = a.portfolioMember(fam, i)
	})
	pop := make([]individual, len(members))
	for i, g := range members {
		pop[i] = individual{g: g, score: a.eval.fullScore(g)}
	}
	return popMerge(pop, nil, a.cfg.Population)
}

// familyConfig is the weight- and seed-agnostic config that defines the
// portfolio members: fixed-budget LatOp anneals over the run's grid,
// class, radix and symmetry. Every population run over this family —
// regardless of objective, weights or seed — derives its initial pool
// from the same member sequence, which is what makes store-cached
// members shareable across nearby configs.
func (a *annealer) familyConfig() Config {
	return Config{
		Grid: a.cfg.Grid, Class: a.cfg.Class, Radix: a.cfg.Radix,
		Symmetric: a.cfg.Symmetric, Objective: LatOp,
		Seed: popFamilySeed, Iterations: a.cfg.Iterations, Restarts: 1,
	}
}

// portfolioMember returns family member i: a store hit reloads the
// canonical link list, a miss anneals it fresh and persists it. Both
// paths yield bit-identical graphs — the store is purely a cache of a
// pure computation — so warm and cold runs evolve identically.
func (a *annealer) portfolioMember(fam *annealer, i int) *bitgraph.Graph {
	st := a.cfg.Store
	key := popMemberKey(&fam.cfg, i)
	if st != nil {
		var blob popMemberBlob
		if hit, err := st.Get(key, &blob); err == nil && hit {
			if g, ok := a.loadMember(blob.Links); ok {
				return g
			}
		}
	}
	res := fam.annealRestart(int64(i), fam.cfg.Iterations)
	g := res.snap.CanonicalClone()
	if st != nil {
		links := make([][2]int, 0, g.NumLinks())
		for _, l := range g.Links() {
			links = append(links, [2]int{l.A, l.B})
		}
		// Best-effort, like CachedGenerate: a write failure only costs
		// the next run a recompute.
		_ = st.Put(key, popMemberBlob{Links: links})
	}
	return g
}

// popMemberPayload is hashed into a member's store key: exactly the
// family fields plus the member index. Weights, objective and seed are
// deliberately absent — that is the "nearby-config" sharing scheme.
type popMemberPayload struct {
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	PitchMM    float64 `json:"pitch_mm"`
	Class      string  `json:"class"`
	Radix      int     `json:"radix"`
	Symmetric  bool    `json:"symmetric"`
	Iterations int     `json:"iterations"`
	Index      int     `json:"index"`
}

// popMemberBlob is a member's stored form: its canonical link list.
type popMemberBlob struct {
	Links [][2]int `json:"links"`
}

func popMemberKey(cfg *Config, index int) store.Key {
	return store.NewKey("synth-member", popMemberPayload{
		Rows: cfg.Grid.Rows, Cols: cfg.Grid.Cols, PitchMM: cfg.Grid.PitchMM,
		Class: cfg.Class.String(), Radix: cfg.Radix, Symmetric: cfg.Symmetric,
		Iterations: cfg.Iterations, Index: index,
	})
}

// loadMember rebuilds a stored member, validating every link against
// the candidate set, radix budget, symmetry, canonical order and strong
// connectivity; any violation (stale schema, corrupt blob) reports
// false and the member is recomputed. The stored order is the canonical
// order Put wrote, so a valid reload is bit-identical — link list
// included — to the cold recomputation it caches.
func (a *annealer) loadMember(links [][2]int) (*bitgraph.Graph, bool) {
	n := a.cfg.Grid.N()
	g := bitgraph.New(n)
	prev := [2]int{-1, -1}
	for _, l := range links {
		from, to := l[0], l[1]
		if from < prev[0] || (from == prev[0] && to <= prev[1]) {
			return nil, false
		}
		prev = l
		if from < 0 || from >= n || to < 0 || to >= n || from == to || !a.validLink(from, to) {
			return nil, false
		}
		if g.OutDeg[from] >= a.cfg.Radix || g.InDeg[to] >= a.cfg.Radix {
			return nil, false
		}
		g.Add(from, to)
	}
	if a.cfg.Symmetric {
		for _, l := range g.Links() {
			if !g.Has(l.B, l.A) {
				return nil, false
			}
		}
	}
	if _, unreachable, _ := g.HopStats(); unreachable > 0 {
		return nil, false
	}
	return g, true
}

// validLink reports whether from->to is in the candidate set L.
func (a *annealer) validLink(from, to int) bool {
	for _, l := range a.byFrom[from] {
		if l.To == to {
			return true
		}
	}
	return false
}

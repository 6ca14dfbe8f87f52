package expert

import (
	"math"
	"math/rand"

	"netsmith/internal/bitgraph"
	"netsmith/internal/layout"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
)

// CalibrationSpec targets the published Table II metrics of a baseline
// whose adjacency list is not public. Calibrate searches symmetric
// topologies within the link-length class for one matching the target
// link count, diameter, average hops and bisection bandwidth. The
// resulting frozen link lists stand in for the original designs in every
// experiment; Table II's paper_* columns (netbench -exp table2) show
// where they diverge from the published metrics.
type CalibrationSpec struct {
	Name       string
	Grid       *layout.Grid
	Class      layout.Class
	Radix      int
	Links      int     // undirected pair target (= full-duplex budgets)
	Diameter   int     // published diameter
	AvgHops    float64 // published average hops
	Bisection  int     // published bisection bandwidth
	Seed       int64
	Iterations int
}

// Calibrate runs the metric-matching search and returns the best
// symmetric topology found.
func Calibrate(spec CalibrationSpec) *topo.Topology {
	if spec.Radix == 0 {
		spec.Radix = 4
	}
	if spec.Iterations == 0 {
		spec.Iterations = 50000
	}
	n := spec.Grid.N()
	// Candidate undirected pairs within the class.
	var pairs [][2]int
	for _, l := range spec.Grid.ValidLinks(spec.Class) {
		if l.From < l.To {
			pairs = append(pairs, [2]int{l.From, l.To})
		}
	}
	cutPool := balancedCutPool(spec.Grid, spec.Seed)
	pairWeight := float64(n * (n - 1))

	score := func(s *bitgraph.Graph) float64 {
		total, unreachable, diam := s.HopStats()
		if unreachable > 0 {
			return 1e12 + float64(unreachable)
		}
		avg := float64(total) / pairWeight
		links := s.NumLinks() / 2
		bis := math.MaxInt32
		for _, m := range cutPool {
			if c := s.MinCross(m); c < bis {
				bis = c
			}
		}
		v := 50.0 * math.Abs(float64(links-spec.Links))
		v += 2000.0 * math.Abs(avg-spec.AvgHops)
		// Shortfalls hurt more than surpluses: a baseline with less
		// bandwidth or a larger diameter than published would unfairly
		// favour NetSmith in the comparisons.
		if bis < spec.Bisection {
			v += 300.0 * float64(spec.Bisection-bis)
		} else {
			v += 50.0 * float64(bis-spec.Bisection)
		}
		if diam > spec.Diameter {
			v += 40.0 * float64(diam-spec.Diameter)
		} else {
			v += 10.0 * float64(spec.Diameter-diam)
		}
		return v
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	var best *bitgraph.Graph
	bestScore := math.Inf(1)
	anneal := func(restarts int, from *bitgraph.Graph, tempScale float64) {
		for restart := 0; restart < restarts; restart++ {
			var s *bitgraph.Graph
			if from != nil {
				s = from.Clone()
			} else {
				s = bitgraph.New(n)
				// Connected seed: boustrophedon cycle, symmetric.
				seedCycleSymmetric(s, spec.Grid)
				// Random fill toward the target link count.
				perm := rng.Perm(len(pairs))
				for _, idx := range perm {
					if s.NumLinks()/2 >= spec.Links {
						break
					}
					p := pairs[idx]
					if canAddPair(s, p, spec.Radix) {
						s.Add(p[0], p[1])
						s.Add(p[1], p[0])
					}
				}
			}
			cur := score(s)
			t0 := math.Max(1.0, cur*0.05*tempScale)
			cooling := math.Pow(1e-3, 1/float64(spec.Iterations))
			temp := t0
			for i := 0; i < spec.Iterations; i++ {
				p := pairs[rng.Intn(len(pairs))]
				var undo func()
				if s.Has(p[0], p[1]) {
					s.Remove(p[0], p[1])
					s.Remove(p[1], p[0])
					undo = func() { s.Add(p[0], p[1]); s.Add(p[1], p[0]) }
				} else if canAddPair(s, p, spec.Radix) {
					s.Add(p[0], p[1])
					s.Add(p[1], p[0])
					undo = func() { s.Remove(p[0], p[1]); s.Remove(p[1], p[0]) }
				} else {
					continue
				}
				next := score(s)
				if next <= cur || rng.Float64() < math.Exp((cur-next)/temp) {
					cur = next
					if cur < bestScore {
						bestScore = cur
						best = s.Clone()
					}
				} else {
					undo()
				}
				temp *= cooling
			}
		}
	}
	build := func(g *bitgraph.Graph) *topo.Topology {
		t := topo.New(spec.Name, spec.Grid, spec.Class)
		for _, l := range g.Links() {
			t.AddLink(l.A, l.B)
		}
		return t
	}
	// exactScore replays the proxy score with the exact bisection
	// bandwidth; it arbitrates between candidates across refinement
	// rounds.
	exactScore := func(t *topo.Topology) float64 {
		if !t.IsConnected() {
			return math.Inf(1)
		}
		v := 50.0 * math.Abs(float64(t.NumLinks()-spec.Links))
		v += 2000.0 * math.Abs(t.AverageHops()-spec.AvgHops)
		bis := t.BisectionBandwidth()
		if bis < spec.Bisection {
			v += 300.0 * float64(spec.Bisection-bis)
		} else {
			v += 50.0 * float64(bis-spec.Bisection)
		}
		diam := t.Diameter()
		if diam > spec.Diameter {
			v += 40.0 * float64(diam-spec.Diameter)
		} else {
			v += 10.0 * float64(spec.Diameter-diam)
		}
		return v
	}

	anneal(6, nil, 1.0)
	champion := build(best)
	championScore := exactScore(champion)
	// Exact-separation refinement: the proxy pool may miss the true
	// bisection cut, leaving the achieved bisection below target. Add the
	// exact minimizing cut to the pool and polish the incumbent under the
	// strengthened pool (mirrors the SCOp row-generation loop). The
	// champion is only replaced when the exact metrics improve.
	for round := 0; round < 10; round++ {
		mask, exact := build(best).BisectionCut()
		proxy := math.MaxInt32
		for _, m := range cutPool {
			if c := best.MinCross(m); c < proxy {
				proxy = c
			}
		}
		if exact >= proxy || exact >= spec.Bisection {
			break
		}
		cutPool = append(cutPool, mask)
		seedState := best.Clone()
		bestScore = math.Inf(1) // rescore under the strengthened pool
		anneal(2, seedState, 0.5)
		anneal(1, nil, 1.0)
		if cand := build(best); exactScore(cand) < championScore {
			champion = cand
			championScore = exactScore(cand)
		}
	}
	return champion
}

func canAddPair(s *bitgraph.Graph, p [2]int, radix int) bool {
	return !s.Has(p[0], p[1]) &&
		s.OutDeg[p[0]] < radix && s.InDeg[p[0]] < radix &&
		s.OutDeg[p[1]] < radix && s.InDeg[p[1]] < radix
}

// seedCycleSymmetric adds a symmetric boustrophedon path covering the
// grid, guaranteeing connectivity with unit-length links.
func seedCycleSymmetric(s *bitgraph.Graph, g *layout.Grid) {
	var prev = -1
	for row := 0; row < g.Rows; row++ {
		for i := 0; i < g.Cols; i++ {
			col := i
			if row%2 == 1 {
				col = g.Cols - 1 - i
			}
			cur := g.Router(row, col)
			if prev >= 0 {
				s.Add(prev, cur)
				s.Add(cur, prev)
			}
			prev = cur
		}
	}
}

// balancedCutPool returns balanced partitions for the bisection proxy:
// geometric cuts that happen to be balanced plus random balanced masks.
func balancedCutPool(g *layout.Grid, seed int64) []bitgraph.Set {
	n := g.N()
	half := n / 2
	var pool []bitgraph.Set
	for _, m := range synth.GeometricCuts(g) {
		if m.Count() == half {
			pool = append(pool, m)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for len(pool) < 96 {
		perm := rng.Perm(n)
		m := bitgraph.NewSet(n)
		for i := 0; i < half; i++ {
			m.Add(perm[i])
		}
		pool = append(pool, m)
	}
	return pool
}

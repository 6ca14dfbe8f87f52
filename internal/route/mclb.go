package route

import (
	"math"
	"math/rand"

	"netsmith/internal/par"
	"netsmith/internal/topo"
)

// MCLBOptions controls MCLB path selection.
type MCLBOptions struct {
	Seed     int64
	Restarts int // local-search restarts (default 8)
	Sweeps   int // improvement sweeps per restart (default 40)
}

// MCLB selects one shortest path per flow minimizing the maximum channel
// load (the paper's Table III formulation) by greedy construction plus
// multi-restart local search. The search is exact in the sense that a
// selection's loads are evaluated exactly; tests certify its optimality
// on small instances against an exact MIP solve of the formulation.
func MCLB(t *topo.Topology, opts MCLBOptions) (*Routing, error) {
	ps, err := AllShortestPaths(t, 0)
	if err != nil {
		return nil, err
	}
	return MCLBOnPaths(ps, opts), nil
}

// MCLBOnPaths runs MCLB path selection over a prepared candidate set
// (use this to pre-filter paths, e.g. the full-system CDC constraint).
// Restarts run in parallel. Every restart's random flow order is drawn
// from the one rng up front, in restart order, and the lowest restart
// index among those with the best (maximum load, sum of squared loads)
// wins, so the result is the sequential one.
func MCLBOnPaths(ps *PathSet, opts MCLBOptions) *Routing {
	if opts.Restarts == 0 {
		opts.Restarts = 8
	}
	if opts.Sweeps == 0 {
		opts.Sweeps = 40
	}
	n := ps.N
	// Every flow's candidates, flows in (src, dst) order.
	cands := make([][]Path, 0, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				cands = append(cands, ps.Paths[s][d])
			}
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	orders := make([][]int, opts.Restarts)
	for r := range orders {
		orders[r] = rng.Perm(len(cands))
	}
	workers := make([]*mclbSearch, par.Workers(opts.Restarts))
	par.For(opts.Restarts, func(w, r int) {
		m := workers[w]
		if m == nil {
			m = newMCLBSearch(n, cands)
			workers[w] = m
		}
		m.restart(r, orders[r], opts.Sweeps)
	})
	var best *mclbSearch
	for _, m := range workers {
		if m != nil && (best == nil || m.beats(best)) {
			best = m
		}
	}
	return ps.routing("MCLB", best.best)
}

// mclbSearch is one worker's restart state: a dense link-load matrix
// with an incremental load histogram, so the global maximum and sum of
// squares update in O(path length) per move — required for the
// 84-router full-system instance — and the best choice among the
// restarts the worker ran.
type mclbSearch struct {
	n      int
	cands  [][]Path // per flow; shared, read-only
	loads  []int    // a*n+b -> flows routed over a->b
	hist   []int64  // hist[v] = number of links at load v
	curMax int
	curSq  int64
	choice []int // per flow: the candidate routed
	// The worker's best restart: lowest (max, sq), then restart index.
	best        []int
	bestMax     int
	bestSq      int64
	bestRestart int
}

func newMCLBSearch(n int, cands [][]Path) *mclbSearch {
	return &mclbSearch{
		n:      n,
		cands:  cands,
		loads:  make([]int, n*n),
		hist:   make([]int64, 8),
		choice: make([]int, len(cands)),
	}
}

// beats reports whether m's best restart wins over o's.
func (m *mclbSearch) beats(o *mclbSearch) bool {
	if m.bestMax != o.bestMax {
		return m.bestMax < o.bestMax
	}
	if m.bestSq != o.bestSq {
		return m.bestSq < o.bestSq
	}
	return m.bestRestart < o.bestRestart
}

func (m *mclbSearch) bump(a, b, delta int) {
	old := m.loads[a*m.n+b]
	nw := old + delta
	m.loads[a*m.n+b] = nw
	for nw >= len(m.hist) {
		m.hist = append(m.hist, 0)
	}
	m.hist[old]--
	m.hist[nw]++
	m.curSq += int64(nw)*int64(nw) - int64(old)*int64(old)
	if nw > m.curMax {
		m.curMax = nw
	}
	for m.curMax > 0 && m.hist[m.curMax] == 0 {
		m.curMax--
	}
}

func (m *mclbSearch) apply(f, idx, delta int) {
	p := m.cands[f][idx]
	for i := 0; i+1 < len(p); i++ {
		m.bump(p[i], p[i+1], delta)
	}
}

func (m *mclbSearch) reset() {
	clear(m.loads)
	m.hist = m.hist[:8]
	clear(m.hist)
	m.hist[0] = int64(m.n) * int64(m.n)
	m.curMax = 0
	m.curSq = 0
}

// restart runs restart r: greedy construction in the given flow order,
// then local search, keeping the result if it beats the worker's best.
// The worker's restarts come in increasing index order, so the strict
// comparison keeps the lowest index among equals.
func (m *mclbSearch) restart(r int, order []int, sweeps int) {
	m.reset()
	// Greedy construction in random flow order: pick the candidate
	// whose bottleneck (then total squared load) is smallest.
	for _, f := range order {
		bestIdx, bestPeak, bestSum := 0, math.MaxInt32, math.MaxInt32
		for idx, p := range m.cands[f] {
			peak, sum := 0, 0
			for i := 0; i+1 < len(p); i++ {
				v := m.loads[p[i]*m.n+p[i+1]] + 1
				if v > peak {
					peak = v
				}
				sum += v
			}
			if peak < bestPeak || (peak == bestPeak && sum < bestSum) {
				bestIdx, bestPeak, bestSum = idx, peak, sum
			}
		}
		m.choice[f] = bestIdx
		m.apply(f, bestIdx, +1)
	}
	// Local search: move flows off bottleneck links while (max, sq)
	// lexicographically improves.
	for sweep := 0; sweep < sweeps; sweep++ {
		curMax, curSq := m.curMax, m.curSq
		improved := false
		for f, cands := range m.cands {
			if len(cands) < 2 {
				continue
			}
			// Only bother if the flow touches a bottleneck-ish link.
			touches := false
			p := cands[m.choice[f]]
			for i := 0; i+1 < len(p); i++ {
				if m.loads[p[i]*m.n+p[i+1]] >= curMax-1 {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			m.apply(f, m.choice[f], -1)
			bestIdx := m.choice[f]
			bestPeakSq := curSq
			bestPeakMax := curMax
			for idx := range cands {
				m.apply(f, idx, +1)
				if m.curMax < bestPeakMax || (m.curMax == bestPeakMax && m.curSq < bestPeakSq) {
					bestPeakMax, bestPeakSq, bestIdx = m.curMax, m.curSq, idx
				}
				m.apply(f, idx, -1)
			}
			if bestIdx != m.choice[f] {
				improved = true
			}
			m.choice[f] = bestIdx
			m.apply(f, bestIdx, +1)
			curMax, curSq = bestPeakMax, bestPeakSq
		}
		if !improved {
			break
		}
	}
	if m.best == nil || m.curMax < m.bestMax || (m.curMax == m.bestMax && m.curSq < m.bestSq) {
		if m.best == nil {
			m.best = make([]int, len(m.choice))
		}
		m.best, m.choice = m.choice, m.best
		m.bestMax, m.bestSq, m.bestRestart = m.curMax, m.curSq, r
	}
}

package route

import (
	"math"
	"math/rand"

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
func MCLBOnPaths(ps *PathSet, opts MCLBOptions) *Routing {
	if opts.Restarts == 0 {
		opts.Restarts = 8
	}
	if opts.Sweeps == 0 {
		opts.Sweeps = 40
	}
	n := ps.N
	type flow struct{ s, d int }
	var flows []flow
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				flows = append(flows, flow{s, d})
			}
		}
	}

	// Dense link-load matrix with an incremental load histogram so the
	// global maximum and sum-of-squares update in O(path length) per
	// move — required for the 84-router full-system instance.
	loads := make([][]int, n)
	for i := range loads {
		loads[i] = make([]int, n)
	}
	hist := make([]int64, 8) // hist[v] = number of links at load v
	hist[0] = int64(n) * int64(n)
	curMax := 0
	var curSq int64
	choice := make([]int, len(flows))

	bump := func(a, b, delta int) {
		old := loads[a][b]
		nw := old + delta
		loads[a][b] = nw
		for nw >= len(hist) {
			hist = append(hist, 0)
		}
		hist[old]--
		hist[nw]++
		curSq += int64(nw)*int64(nw) - int64(old)*int64(old)
		if nw > curMax {
			curMax = nw
		}
		for curMax > 0 && hist[curMax] == 0 {
			curMax--
		}
	}
	apply := func(f int, idx int, delta int) {
		p := ps.Paths[flows[f].s][flows[f].d][idx]
		for i := 0; i+1 < len(p); i++ {
			bump(p[i], p[i+1], delta)
		}
	}
	maxAndSq := func() (int, int64) { return curMax, curSq }
	reset := func() {
		for i := range loads {
			for j := range loads[i] {
				loads[i][j] = 0
			}
		}
		hist = hist[:8]
		for i := range hist {
			hist[i] = 0
		}
		hist[0] = int64(n) * int64(n)
		curMax = 0
		curSq = 0
	}

	bestMax, bestSq := math.MaxInt32, int64(math.MaxInt64)
	var bestChoice []int
	rng := rand.New(rand.NewSource(opts.Seed))

	for restart := 0; restart < opts.Restarts; restart++ {
		reset()
		// Greedy construction in random flow order: pick the candidate
		// whose bottleneck (then total squared load) is smallest.
		order := rng.Perm(len(flows))
		for _, f := range order {
			cands := ps.Paths[flows[f].s][flows[f].d]
			bestIdx, bestPeak, bestSum := 0, math.MaxInt32, math.MaxInt32
			for idx, p := range cands {
				peak, sum := 0, 0
				for i := 0; i+1 < len(p); i++ {
					v := loads[p[i]][p[i+1]] + 1
					if v > peak {
						peak = v
					}
					sum += v
				}
				if peak < bestPeak || (peak == bestPeak && sum < bestSum) {
					bestIdx, bestPeak, bestSum = idx, peak, sum
				}
			}
			choice[f] = bestIdx
			apply(f, bestIdx, +1)
		}
		// Local search: move flows off bottleneck links while (max, sq)
		// lexicographically improves.
		for sweep := 0; sweep < opts.Sweeps; sweep++ {
			curMax, curSq := maxAndSq()
			improved := false
			for f := range flows {
				cands := ps.Paths[flows[f].s][flows[f].d]
				if len(cands) < 2 {
					continue
				}
				// Only bother if the flow touches a bottleneck-ish link.
				touches := false
				p := cands[choice[f]]
				for i := 0; i+1 < len(p); i++ {
					if loads[p[i]][p[i+1]] >= curMax-1 {
						touches = true
						break
					}
				}
				if !touches {
					continue
				}
				apply(f, choice[f], -1)
				bestIdx := choice[f]
				bestPeakSq := curSq
				bestPeakMax := curMax
				for idx := range cands {
					apply(f, idx, +1)
					m, sq := maxAndSq()
					if m < bestPeakMax || (m == bestPeakMax && sq < bestPeakSq) {
						bestPeakMax, bestPeakSq, bestIdx = m, sq, idx
					}
					apply(f, idx, -1)
				}
				if bestIdx != choice[f] {
					improved = true
				}
				choice[f] = bestIdx
				apply(f, bestIdx, +1)
				curMax, curSq = bestPeakMax, bestPeakSq
			}
			if !improved {
				break
			}
		}
		m, sq := maxAndSq()
		if m < bestMax || (m == bestMax && sq < bestSq) {
			bestMax, bestSq = m, sq
			bestChoice = append([]int(nil), choice...)
		}
	}

	r := &Routing{Name: "MCLB", N: n, Table: make([][]Path, n)}
	for s := 0; s < n; s++ {
		r.Table[s] = make([]Path, n)
	}
	for f, fl := range flows {
		r.Table[fl.s][fl.d] = ps.Paths[fl.s][fl.d][bestChoice[f]]
	}
	return r
}

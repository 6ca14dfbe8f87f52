package topo

import "math"

// Unreachable is the hop distance reported between disconnected routers.
const Unreachable = math.MaxInt32

// ShortestPaths computes all-pairs shortest hop distances by running one
// BFS per source over the directed graph. dist[s][d] == Unreachable when d
// cannot be reached from s. The diagonal is zero.
func (t *Topology) ShortestPaths() [][]int {
	t.refresh()
	n := t.n
	dist := make([][]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		row := make([]int, n)
		for i := range row {
			row[i] = Unreachable
		}
		row[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			du := row[u]
			for _, v := range t.out[u] {
				if row[v] == Unreachable {
					row[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
		dist[s] = row
	}
	return dist
}

// IsConnected reports whether every router can reach every other router
// (strong connectivity, since links are directed).
func (t *Topology) IsConnected() bool {
	_, unreachable, _ := t.bitGraph().HopStats()
	return unreachable == 0
}

// TotalHops returns the sum of shortest-path hop distances over all
// ordered source/destination pairs (the paper's O1 objective, Dtotal), or
// (0, false) when the network is disconnected.
func (t *Topology) TotalHops() (int, bool) {
	total, unreachable, _ := t.bitGraph().HopStats()
	if unreachable > 0 {
		return 0, false
	}
	return int(total), true
}

// AverageHops returns the mean shortest-path hop count over all ordered
// pairs, excluding self-pairs (Table II's "Avg. Hops"). Returns +Inf when
// disconnected.
func (t *Topology) AverageHops() float64 {
	total, ok := t.TotalHops()
	if !ok {
		return math.Inf(1)
	}
	pairs := t.n * (t.n - 1)
	return float64(total) / float64(pairs)
}

// WeightedAverageHops returns the traffic-weighted mean hop count for a
// demand matrix w (w[s][d] >= 0). Pairs with zero weight are ignored.
// Returns +Inf if any positively weighted pair is disconnected.
func (t *Topology) WeightedAverageHops(w [][]float64) float64 {
	dist := t.ShortestPaths()
	sum, wsum := 0.0, 0.0
	for s := range dist {
		for d := range dist[s] {
			if s == d || w[s][d] == 0 {
				continue
			}
			if dist[s][d] == Unreachable {
				return math.Inf(1)
			}
			sum += w[s][d] * float64(dist[s][d])
			wsum += w[s][d]
		}
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Diameter returns the maximum shortest-path distance over all pairs, or
// Unreachable when disconnected.
func (t *Topology) Diameter() int {
	_, unreachable, diameter := t.bitGraph().HopStats()
	if unreachable > 0 {
		return Unreachable
	}
	return diameter
}

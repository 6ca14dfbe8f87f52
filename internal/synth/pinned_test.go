package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"netsmith/internal/layout"
	"netsmith/internal/traffic"
)

// outputDigest hashes a synthesis result the way downstream consumers
// (routing, the store, the paper-suite CSVs) see it: the topology's link
// list in Links() order plus the exact bits of the reported objective.
func outputDigest(res *Result) string {
	h := sha256.New()
	for _, l := range res.Topology.Links() {
		fmt.Fprintf(h, "%d>%d,", l.From, l.To)
	}
	fmt.Fprintf(h, "obj=%016x", math.Float64bits(res.Objective))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateOutputPinned pins Generate's exact output for one config
// of every search path: SCOp with its separation rounds (4x5 and 6x5),
// SCOp with the fragility oracle, LatOp under a C7 minimum-cut bound,
// weighted (ShufOpt) synthesis, plain LatOp and population mode (4x5
// and 8x6, offspring pruned against the run's LatOp bound). The
// weighted rows cover each way a ShufOpt removal is evaluated: the
// peek-first bound on single-word grids (4x5, 8x6), no peek and a
// full re-sum on a multi-word grid (10x10), and the transactional path
// under a diameter bound or symmetric links; population mode runs it
// inside crossover bursts. The LatOp rows do the same for the pair
// bound on removals and swaps: it runs on 4x5 and 8x6 and under C7 and
// fragility terms, and not on 10x10 (no walk, union swaps), under a
// diameter bound, with an energy term or with symmetric links. The
// diameter-bounded LatOp rows (4x5, 8x6 and 10x10) score every move
// from the evaluator's per-source eccentricities, settled by the
// single-word repairs and by the multi-word BFS. The 8x8 rows run both
// bounds at n = MaxFastNodes, where vertex 63 takes the top bit of
// every level-mask word and rows span 65 levels.
// Performance work on the annealer and its evaluator must leave every
// trajectory, and so every digest, unchanged; an intended change to
// the search updates the table.
func TestGenerateOutputPinned(t *testing.T) {
	base := func(g *layout.Grid, obj Objective) Config {
		return Config{Grid: g, Class: layout.Medium, Objective: obj, Seed: 1, Iterations: 5000, Restarts: 2}
	}
	scopRobust := base(layout.Grid4x5, SCOp)
	scopRobust.RobustWeight = 1
	mincut := base(layout.Grid4x5, LatOp)
	mincut.MinCutBW = 0.06
	shufOn := func(g *layout.Grid) Config {
		c := base(g, Weighted)
		c.Weights = traffic.Shuffle(g.N()).WeightMatrix()
		return c
	}
	shuf := shufOn(layout.Grid4x5)
	shuf10 := shufOn(layout.Grid10x10)
	shuf10.Iterations = 2000
	shufDiam := shufOn(layout.Grid4x5)
	shufDiam.MaxDiameter = 4
	shufSym := shufOn(layout.Grid4x5)
	shufSym.Symmetric = true
	shufPop := shufOn(layout.Grid4x5)
	shufPop.Iterations, shufPop.Population, shufPop.Generations = 1200, 4, 2
	pop := base(layout.Grid4x5, LatOp)
	pop.Iterations, pop.Population, pop.Generations = 1200, 4, 2
	pop8x6 := base(layout.Grid8x6, LatOp)
	pop8x6.Iterations, pop8x6.Population, pop8x6.Generations = 1200, 4, 2
	latDiam := base(layout.Grid4x5, LatOp)
	latDiam.MaxDiameter = 4
	latDiam8x6 := base(layout.Grid8x6, LatOp)
	latDiam8x6.MaxDiameter = 5
	latDiam10 := base(layout.Grid10x10, LatOp)
	latDiam10.Iterations, latDiam10.MaxDiameter = 2000, 8
	latRobust := base(layout.Grid4x5, LatOp)
	latRobust.RobustWeight = 1
	latEnergy := base(layout.Grid4x5, LatOp)
	latEnergy.EnergyWeight = 1
	latSym := base(layout.Grid4x5, LatOp)
	latSym.Symmetric = true
	grid8x8 := layout.NewGrid(8, 8)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"scop-4x5", base(layout.Grid4x5, SCOp), "c3fbba4ab0e7dbe01375d457a04bfae586b3420f678f21a3239bea049c81879a"},
		{"scop-6x5", base(layout.Grid6x5, SCOp), "1d36b5481107170487f4574d42e57dbf258016f438ff53b0be7e3b13b042a64a"},
		{"scop-robust", scopRobust, "2cc7c56efe00eec8c88b3c82d30ba36914048f223fa8c97980eb861ea27bb174"},
		{"latop-mincut", mincut, "925e85de15b75edbd19fd408d9c7a06a93cecbf0a77611ba0ff7f8e0be5e5a51"},
		{"shufopt", shuf, "6b681eb01d26fc0e9f705bfc53bc8e628a9b3810b8bf3e9aeb26778dfaba949a"},
		{"shufopt-8x6", shufOn(layout.Grid8x6), "22e475561dd66d703704ac62580bd672dbe8ea2dbcfc80425774ecc13285b385"},
		{"shufopt-10x10", shuf10, "479da2428ff57a1bfa087aefe188285f7580166bc4fb0033e4587e213b016a29"},
		{"shufopt-diameter", shufDiam, "4bcb7ba37e3c1ab9bfe5c4312a0ccd9a4cf1a774f7779d26fca3901bde4874ae"},
		{"shufopt-symmetric", shufSym, "41c7732b027e3a373cbee53ca280ed1e71eabd5d28602c57423e002b2c4d32f1"},
		{"shufopt-population", shufPop, "d26c4febf0b615d2de51976e2bd96a1f5e48c0a616347cdf7ab0b34a2ed13d7a"},
		{"latop", base(layout.Grid4x5, LatOp), "1685baedad78ca0d8c1bc3bb198307caadf9a2c483acf28c3b3afa8fbd9b4f45"},
		{"population", pop, "7ba14dc6881a7c0fa8afc75375bc1b81dafebccd8771577da095b3c009260695"},
		{"population-8x6", pop8x6, "21bff9f55f61b2eb8d28d442eb517945d6d4cba1a1f4325769aef78fba0f50f9"},
		{"latop-8x6", base(layout.Grid8x6, LatOp), "da446b758fd5fb4e2eac544ec760d4d53a3c5aaf36ba7d63f65b0ea54c283692"},
		{"latop-10x10", base(layout.Grid10x10, LatOp), "e83f1cfe7e911aae2058a471b62e447d728c2295ef690176e92afe0932a271b9"},
		{"latop-diameter", latDiam, "4a191adcc295803e5e3b06d50b6b84e5af8e31eb6b96bb556addc9cca4acc98e"},
		{"latop-8x6-diameter", latDiam8x6, "c861f679953f8c1f3c24fa4a309cd044c69a21a4a8243607742b81274b21b7fc"},
		{"latop-10x10-diameter", latDiam10, "21d88e6cbb99d60413032f9faf75b938c92e2601c9ee934b2b3debd24f386552"},
		{"latop-robust", latRobust, "7ed82345582f6582ab6cdc0fc3c62aec5594faa94ba5de6afcd4308664edf7a7"},
		{"latop-energy", latEnergy, "f0b5caf90eeea596563c1f31ab86e7c9b6622d03c927c5937bdcf2c8a0eb8a49"},
		{"latop-symmetric", latSym, "0f7c8a328dc853b2857af25cf32b0454fece1adc3ef4cdc9171a48fea9a4a2f2"},
		{"latop-8x8", base(grid8x8, LatOp), "1daa09f7620158423b03e0f5f2d9f5700d3ba12e6a8b6b2abbff83d18d23a8fb"},
		{"shufopt-8x8", shufOn(grid8x8), "142199d8eaed322d01765757c418fd9d66adfd4a5013197cfc4bd2066f0ae17b"},
	}
	for _, c := range cases {
		res, err := Generate(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := outputDigest(res); got != c.want {
			t.Errorf("%s: output digest %s, want %s", c.name, got, c.want)
		}
	}
}

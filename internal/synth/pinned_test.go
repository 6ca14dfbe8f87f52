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
// weighted (ShufOpt) synthesis, plain LatOp and population mode.
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
	shuf := base(layout.Grid4x5, Weighted)
	shuf.Weights = traffic.Shuffle{N: layout.Grid4x5.N()}.WeightMatrix()
	pop := base(layout.Grid4x5, LatOp)
	pop.Iterations, pop.Population, pop.Generations = 1200, 4, 2
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
		{"latop", base(layout.Grid4x5, LatOp), "1685baedad78ca0d8c1bc3bb198307caadf9a2c483acf28c3b3afa8fbd9b4f45"},
		{"population", pop, "7ba14dc6881a7c0fa8afc75375bc1b81dafebccd8771577da095b3c009260695"},
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

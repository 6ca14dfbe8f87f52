package exp

import (
	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
)

// MatrixSetups prepares scenario-matrix topologies the one way every
// front end shares (they all reach it through netsmith serve's matrix
// plan): "ns" is synthesized through the cache (synth.MatrixNSConfig)
// with MCLB routing, "mesh" and any other name are expert baselines
// (expert.Get) with NDBT routing, and all Prepare with the matrix seed.
// The routing and seed are baked into every cell's Setup fingerprint,
// so a private copy of this logic that drifted would silently stop
// runs from sharing store cells. The returned bool reports whether
// every "ns" synthesis came from the cache. population/generations
// select population-mode synthesis for the "ns" topology (0 keeps the
// classic restart annealer).
func MatrixSetups(topos []string, g *layout.Grid, cl layout.Class, st *store.Store, energyWeight, robustWeight float64, seed int64, synthIters, population, generations int) ([]*sim.Setup, bool, error) {
	var setups []*sim.Setup
	synthAllCached := true
	for _, name := range topos {
		var t *topo.Topology
		kind := sim.UseNDBT
		switch name {
		case "mesh":
			t = expert.Mesh(g)
		case "ns":
			res, hit, err := synth.CachedGenerate(st,
				synth.MatrixNSConfig(g, cl, energyWeight, robustWeight, seed, synthIters, population, generations))
			if err != nil {
				return nil, false, err
			}
			synthAllCached = synthAllCached && hit
			t, kind = res.Topology, sim.UseMCLB
		default:
			var err error
			if t, err = expert.Get(name, g); err != nil {
				return nil, false, err
			}
		}
		setup, err := sim.Prepare(t, kind, seed)
		if err != nil {
			return nil, false, err
		}
		setups = append(setups, setup)
	}
	return setups, synthAllCached, nil
}

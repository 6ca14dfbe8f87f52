package exp

import (
	"netsmith/internal/expert"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
)

// MatrixSetups prepares scenario-matrix topologies the one way every
// front end shares (they all reach it through netsmith serve's matrix
// plan): "ns" is synthesized from ns (a synth.MatrixNSConfig) through
// the cache with MCLB routing, "mesh" and any other name are expert
// baselines (expert.Get) on ns.Grid with NDBT routing, and all Prepare
// with ns.Seed, the matrix seed. The routing and seed are baked into
// every cell's Setup fingerprint, so a private copy of this logic that
// drifted would silently stop runs from sharing store cells. The
// returned bool reports whether every "ns" synthesis came from the
// cache.
func MatrixSetups(topos []string, ns synth.Config, st *store.Store) ([]*sim.Setup, bool, error) {
	var setups []*sim.Setup
	synthAllCached := true
	for _, name := range topos {
		var t *topo.Topology
		kind := sim.UseNDBT
		switch name {
		case "mesh":
			t = expert.Mesh(ns.Grid)
		case "ns":
			res, hit, err := synth.CachedGenerate(st, ns)
			if err != nil {
				return nil, false, err
			}
			synthAllCached = synthAllCached && hit
			t, kind = res.Topology, sim.UseMCLB
		default:
			var err error
			if t, err = expert.Get(name, ns.Grid); err != nil {
				return nil, false, err
			}
		}
		setup, err := sim.Prepare(t, kind, ns.Seed)
		if err != nil {
			return nil, false, err
		}
		setups = append(setups, setup)
	}
	return setups, synthAllCached, nil
}

package route

import (
	"math"

	"netsmith/internal/mip"
	"netsmith/internal/topo"
)

// MCLBExact solves the Table III formulation exactly with the internal
// MIP solver: binary path_used variables, single-path constraints (C4),
// channel loads (C1/C2/C3, substituted directly since paths are given)
// and the minmax objective (O1). Intended for small instances; larger
// ones should use MCLB and the LP bound.
func MCLBExact(t *topo.Topology, maxNodes int) (*Routing, int, error) {
	ps, err := AllShortestPaths(t, 0)
	if err != nil {
		return nil, 0, err
	}
	n := ps.N
	p := mip.NewProblem()
	z := p.AddVar(0, math.Inf(1), 1, "z")
	type flowPath struct {
		s, d, idx int
		v         mip.Var
	}
	var fps []flowPath
	linkTerms := make(map[[2]int][]mip.Term)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			var one []mip.Term
			for idx, path := range ps.Paths[s][d] {
				v := p.AddBinaryVar(0, "p")
				fps = append(fps, flowPath{s, d, idx, v})
				one = append(one, mip.Term{Var: v, Coeff: 1})
				for _, l := range path.Links() {
					linkTerms[l] = append(linkTerms[l], mip.Term{Var: v, Coeff: 1})
				}
			}
			p.AddConstraint(one, mip.EQ, 1) // C4: exactly one path per flow
		}
	}
	for _, terms := range linkTerms {
		// C1: cload(link) = sum of flows using it; cload <= z.
		row := append(append([]mip.Term(nil), terms...), mip.Term{Var: z, Coeff: -1})
		p.AddConstraint(row, mip.LE, 0)
	}
	sol, err := p.SolveMIP(mip.MIPOptions{MaxNodes: maxNodes})
	if err != nil {
		return nil, 0, err
	}
	r := &Routing{Name: "MCLB-exact", N: n, Table: make([][]Path, n)}
	for s := 0; s < n; s++ {
		r.Table[s] = make([]Path, n)
	}
	for _, fp := range fps {
		if sol.Value(fp.v) > 0.5 {
			r.Table[fp.s][fp.d] = ps.Paths[fp.s][fp.d][fp.idx]
		}
	}
	return r, int(math.Round(sol.Obj)), nil
}

// MCLBLowerBoundLP returns the LP-relaxation lower bound on the maximum
// channel load: fractional path selection, one unit split per flow.
func MCLBLowerBoundLP(t *topo.Topology) (float64, error) {
	ps, err := AllShortestPaths(t, 8)
	if err != nil {
		return 0, err
	}
	n := ps.N
	p := mip.NewProblem()
	z := p.AddVar(0, math.Inf(1), 1, "z")
	linkTerms := make(map[[2]int][]mip.Term)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			var one []mip.Term
			for _, path := range ps.Paths[s][d] {
				v := p.AddVar(0, 1, 0, "f")
				one = append(one, mip.Term{Var: v, Coeff: 1})
				for _, l := range path.Links() {
					linkTerms[l] = append(linkTerms[l], mip.Term{Var: v, Coeff: 1})
				}
			}
			p.AddConstraint(one, mip.EQ, 1)
		}
	}
	for _, terms := range linkTerms {
		row := append(append([]mip.Term(nil), terms...), mip.Term{Var: z, Coeff: -1})
		p.AddConstraint(row, mip.LE, 0)
	}
	sol, err := p.SolveLP()
	if err != nil {
		return 0, err
	}
	return sol.Obj, nil
}

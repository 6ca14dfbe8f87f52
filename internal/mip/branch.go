package mip

import (
	"container/heap"
	"math"
)

// MIPOptions controls branch-and-bound.
type MIPOptions struct {
	// MaxNodes caps explored nodes (default 100000). When exceeded, the
	// best incumbent is returned with Status NodeLimit.
	MaxNodes int
}

// SolveMIP solves the problem with integrality enforced on integer
// variables, using best-first branch-and-bound over LP relaxations. It is
// test support: only tests run it, as the exact oracle for small
// instances, and it stays exported because they live in other packages.
func (p *Problem) SolveMIP(opts MIPOptions) (*Solution, error) {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 100000
	}
	root := &bbNode{lb: make([]float64, len(p.vars)), ub: make([]float64, len(p.vars))}
	for j, v := range p.vars {
		root.lb[j] = v.lb
		root.ub[j] = v.ub
	}
	rootSol, err := p.solveWithBounds(root)
	if err != nil {
		return &Solution{Status: Infeasible}, ErrNoSolution
	}
	root.bound = rootSol.Obj
	root.relax = rootSol

	var incumbent *Solution
	pq := &nodeQueue{root}
	nodes := 0
	hitLimit := false
	for pq.Len() > 0 {
		if nodes >= opts.MaxNodes {
			hitLimit = true
			break
		}
		node := heap.Pop(pq).(*bbNode)
		nodes++
		if incumbent != nil && node.bound >= incumbent.Obj-1e-9 {
			continue // cannot improve
		}
		sol := node.relax
		if sol == nil {
			s, err := p.solveWithBounds(node)
			if err != nil {
				continue // infeasible branch
			}
			sol = s
			if incumbent != nil && sol.Obj >= incumbent.Obj-1e-9 {
				continue
			}
		}
		// Find the most fractional integer variable.
		branchVar := -1
		worst := 1e-6
		for j, v := range p.vars {
			if !v.integer {
				continue
			}
			frac := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if frac > worst {
				worst = frac
				branchVar = j
			}
		}
		if branchVar < 0 {
			// Integral: candidate incumbent.
			if incumbent == nil || sol.Obj < incumbent.Obj-1e-9 {
				rounded := *sol
				rounded.X = append([]float64(nil), sol.X...)
				for j, v := range p.vars {
					if v.integer {
						rounded.X[j] = math.Round(rounded.X[j])
					}
				}
				incumbent = &rounded
			}
			continue
		}
		val := sol.X[branchVar]
		down := node.child(branchVar, node.lb[branchVar], math.Floor(val))
		up := node.child(branchVar, math.Ceil(val), node.ub[branchVar])
		for _, ch := range []*bbNode{down, up} {
			if ch.lb[branchVar] > ch.ub[branchVar]+1e-9 {
				continue
			}
			s, err := p.solveWithBounds(ch)
			if err != nil {
				continue
			}
			ch.bound = s.Obj
			ch.relax = s
			if incumbent == nil || ch.bound < incumbent.Obj-1e-9 {
				heap.Push(pq, ch)
			}
		}
	}
	if incumbent == nil {
		if hitLimit {
			return &Solution{Status: NodeLimit}, ErrNoSolution
		}
		return &Solution{Status: Infeasible}, ErrNoSolution
	}
	if hitLimit {
		incumbent.Status = NodeLimit
	} else {
		incumbent.Status = Optimal
	}
	return incumbent, nil
}

// bbNode carries per-node variable bound overrides.
type bbNode struct {
	lb, ub []float64
	bound  float64
	relax  *Solution
}

func (n *bbNode) child(j int, lb, ub float64) *bbNode {
	c := &bbNode{
		lb: append([]float64(nil), n.lb...),
		ub: append([]float64(nil), n.ub...),
	}
	c.lb[j] = lb
	c.ub[j] = ub
	return c
}

// solveWithBounds solves the LP relaxation under node bounds by cloning
// the problem with tightened variable bounds.
func (p *Problem) solveWithBounds(n *bbNode) (*Solution, error) {
	q := &Problem{cons: p.cons, vars: make([]variable, len(p.vars))}
	copy(q.vars, p.vars)
	for j := range q.vars {
		q.vars[j].lb = n.lb[j]
		q.vars[j].ub = n.ub[j]
		if q.vars[j].lb > q.vars[j].ub {
			return nil, ErrNoSolution
		}
	}
	sol, err := q.SolveLP()
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// nodeQueue is a best-bound priority queue.
type nodeQueue []*bbNode

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

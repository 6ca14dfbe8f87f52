// Package mip is a small, self-contained mixed-integer programming
// toolkit: a dense two-phase primal simplex for linear programs and a
// best-first branch-and-bound for integer variables. It is the
// hand-rolled substitute for the commercial MILP solver the paper uses
// (Gurobi). No product package imports it: it is a test oracle, the
// exact solve of the MCLB routing formulation (Table III) that route's
// tests certify their heuristic against.
//
// The modelling surface is deliberately minimal: continuous or integer
// variables with [lower, upper] bounds, linear constraints with <=, = or
// >= senses, and a linear objective that is always minimized (negate
// coefficients to maximize).
package mip

import (
	"errors"
	"fmt"
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is "<=".
	LE Rel = iota
	// EQ is "=".
	EQ
	// GE is ">=".
	GE
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found (and proven, for MIP
	// solves that complete within the node budget).
	Optimal Status = iota
	// Infeasible means no feasible point exists.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// NodeLimit means branch-and-bound hit its node budget; the incumbent
	// (if any) is feasible but not proven optimal.
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Var identifies a variable in a Problem.
type Var int

// Term is one linear coefficient.
type Term struct {
	Var   Var
	Coeff float64
}

type variable struct {
	lb, ub  float64
	obj     float64
	integer bool
	name    string
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear/mixed-integer model: minimize sum(obj_j * x_j)
// subject to linear constraints and variable bounds.
type Problem struct {
	vars []variable
	cons []constraint
}

// NewProblem returns an empty model.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a continuous variable with bounds [lb, ub] (ub may be
// +Inf) and objective coefficient obj.
func (p *Problem) AddVar(lb, ub, obj float64, name string) Var {
	if lb < 0 {
		panic("mip: negative lower bounds are not supported")
	}
	if ub < lb {
		panic(fmt.Sprintf("mip: variable %s has ub %v < lb %v", name, ub, lb))
	}
	p.vars = append(p.vars, variable{lb: lb, ub: ub, obj: obj, name: name})
	return Var(len(p.vars) - 1)
}

// AddIntVar adds an integer variable with bounds [lb, ub].
func (p *Problem) AddIntVar(lb, ub, obj float64, name string) Var {
	v := p.AddVar(lb, ub, obj, name)
	p.vars[v].integer = true
	return v
}

// AddBinaryVar adds a {0,1} variable.
func (p *Problem) AddBinaryVar(obj float64, name string) Var {
	return p.AddIntVar(0, 1, obj, name)
}

// AddConstraint adds sum(terms) rel rhs. Terms with duplicate variables
// are accumulated.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	merged := make(map[Var]float64, len(terms))
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
			panic(fmt.Sprintf("mip: constraint references unknown var %d", t.Var))
		}
		merged[t.Var] += t.Coeff
	}
	c := constraint{rel: rel, rhs: rhs}
	for v := Var(0); int(v) < len(p.vars); v++ {
		if coeff, ok := merged[v]; ok && coeff != 0 {
			c.terms = append(c.terms, Term{Var: v, Coeff: coeff})
		}
	}
	p.cons = append(p.cons, c)
}

// Solution holds variable values and the objective of a solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// ErrNoSolution is returned when a solve ends without a feasible point.
var ErrNoSolution = errors.New("mip: no feasible solution")

const eps = 1e-9

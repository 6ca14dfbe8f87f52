package mip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// isIntegral reports whether x is within tolerance of an integer.
func isIntegral(x float64) bool {
	return math.Abs(x-math.Round(x)) <= 1e-6
}

func TestLPSimple2D(t *testing.T) {
	// minimize -x - 2y s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0.
	// Optimum at (1, 3): obj -7.
	p := NewProblem()
	x := p.AddVar(0, 2, -1, "x")
	y := p.AddVar(0, 3, -2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Obj, -7, 1e-6) {
		t.Errorf("obj = %v, want -7 (x=%v y=%v)", sol.Obj, sol.Value(x), sol.Value(y))
	}
}

func TestLPEqualityAndGE(t *testing.T) {
	// minimize x + y s.t. x + y = 10, x >= 3, y >= 2  ->  obj 10.
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1), 1, "x")
	y := p.AddVar(0, math.Inf(1), 1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddConstraint([]Term{{x, 1}}, GE, 3)
	p.AddConstraint([]Term{{y, 1}}, GE, 2)
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Obj, 10, 1e-6) {
		t.Errorf("obj = %v, want 10", sol.Obj)
	}
	if sol.Value(x) < 3-1e-6 || sol.Value(y) < 2-1e-6 {
		t.Errorf("bound constraints violated: x=%v y=%v", sol.Value(x), sol.Value(y))
	}
}

func TestLPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 1, 1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	sol, err := p.SolveLP()
	if err == nil || sol.Status != Infeasible {
		t.Errorf("expected infeasible, got %v err=%v", sol.Status, err)
	}
}

func TestLPUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1), -1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 0)
	sol, err := p.SolveLP()
	if err == nil || sol.Status != Unbounded {
		t.Errorf("expected unbounded, got %v err=%v", sol.Status, err)
	}
}

func TestLPLowerBoundsShift(t *testing.T) {
	// Variables with nonzero lower bounds: minimize x + y, x in [2,5],
	// y in [1,4], x + y >= 5  ->  obj 5.
	p := NewProblem()
	x := p.AddVar(2, 5, 1, "x")
	y := p.AddVar(1, 4, 1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 5)
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Obj, 5, 1e-6) {
		t.Errorf("obj = %v, want 5", sol.Obj)
	}
	if sol.Value(x) < 2-1e-9 || sol.Value(y) < 1-1e-9 {
		t.Error("lower bounds violated")
	}
}

func TestLPDegenerate(t *testing.T) {
	// A degenerate LP that cycles under naive Dantzig (Beale-like).
	p := NewProblem()
	x1 := p.AddVar(0, math.Inf(1), -0.75, "x1")
	x2 := p.AddVar(0, math.Inf(1), 150, "x2")
	x3 := p.AddVar(0, math.Inf(1), -0.02, "x3")
	x4 := p.AddVar(0, math.Inf(1), 6, "x4")
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Obj, -0.05, 1e-6) {
		t.Errorf("Beale optimum = %v, want -0.05", sol.Obj)
	}
}

func TestMIPKnapsack(t *testing.T) {
	// maximize 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Optimal: a + c? values: a,c = 17 (weight 5); b,c = 20 (weight 6). Answer 20.
	p := NewProblem()
	a := p.AddBinaryVar(-10, "a")
	b := p.AddBinaryVar(-13, "b")
	c := p.AddBinaryVar(-7, "c")
	p.AddConstraint([]Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	sol, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approx(sol.Obj, -20, 1e-6) {
		t.Errorf("knapsack obj = %v, want -20", sol.Obj)
	}
	if !approx(sol.Value(b), 1, 1e-6) || !approx(sol.Value(c), 1, 1e-6) {
		t.Errorf("solution = %v, want b=c=1", sol.X)
	}
}

func TestMIPIntegerRounding(t *testing.T) {
	// minimize x s.t. 2x >= 5, integer: x = 3 (LP gives 2.5).
	p := NewProblem()
	x := p.AddIntVar(0, 10, 1, "x")
	p.AddConstraint([]Term{{x, 2}}, GE, 5)
	sol, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Value(x), 3, 1e-9) {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}

func TestMIPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddBinaryVar(1, "x")
	y := p.AddBinaryVar(1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 3)
	if _, err := p.SolveMIP(MIPOptions{}); err == nil {
		t.Error("expected infeasible")
	}
}

func TestMIPMinMaxPathSelection(t *testing.T) {
	// A miniature MCLB: 3 flows, each choosing between 2 paths; paths
	// share links. Minimize max link load z.
	// Flow i picks p_i0 or p_i1. Link L is used by p_00, p_10, p_20;
	// links A,B,C by the alternatives. Optimal z = 1 (spread out).
	p := NewProblem()
	z := p.AddVar(0, math.Inf(1), 1, "z")
	var pick [3][2]Var
	for i := 0; i < 3; i++ {
		pick[i][0] = p.AddBinaryVar(0, "p0")
		pick[i][1] = p.AddBinaryVar(0, "p1")
		p.AddConstraint([]Term{{pick[i][0], 1}, {pick[i][1], 1}}, EQ, 1)
	}
	// Shared link load: sum of first choices <= z.
	p.AddConstraint([]Term{{pick[0][0], 1}, {pick[1][0], 1}, {pick[2][0], 1}, {z, -1}}, LE, 0)
	// Each alternative has a private link: load pick[i][1] <= z.
	for i := 0; i < 3; i++ {
		p.AddConstraint([]Term{{pick[i][1], 1}, {z, -1}}, LE, 0)
	}
	sol, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Obj, 1, 1e-6) {
		t.Errorf("minmax load = %v, want 1", sol.Obj)
	}
}

func TestMIPNodeLimit(t *testing.T) {
	// A problem needing branching, with MaxNodes=1: should report
	// NodeLimit (with or without incumbent).
	p := NewProblem()
	x := p.AddIntVar(0, 10, 1, "x")
	y := p.AddIntVar(0, 10, 1, "y")
	p.AddConstraint([]Term{{x, 2}, {y, 2}}, GE, 7)
	sol, _ := p.SolveMIP(MIPOptions{MaxNodes: 1})
	if sol.Status != NodeLimit {
		t.Errorf("status = %v, want node-limit", sol.Status)
	}
}

// Property: LP relaxation is never worse (higher, for minimization) than
// the MIP optimum on random small knapsacks, and MIP solutions are
// integral and feasible.
func TestLPBoundsMIPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		n := 4 + rng.Intn(3)
		vars := make([]Var, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			vars[i] = p.AddBinaryVar(-(1 + float64(rng.Intn(20))), "v")
			weights[i] = 1 + float64(rng.Intn(10))
		}
		terms := make([]Term, n)
		cap := 1 + rng.Float64()*20
		for i := range vars {
			terms[i] = Term{vars[i], weights[i]}
		}
		p.AddConstraint(terms, LE, cap)
		lp, err1 := p.SolveLP()
		ip, err2 := p.SolveMIP(MIPOptions{})
		if err1 != nil || err2 != nil {
			return false // knapsack with empty selection is always feasible
		}
		if lp.Obj > ip.Obj+1e-6 {
			return false // relaxation must lower-bound
		}
		load := 0.0
		for i := range vars {
			v := ip.Value(vars[i])
			if !isIntegral(v) {
				return false
			}
			load += weights[i] * v
		}
		return load <= cap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

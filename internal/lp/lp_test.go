package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func solve(t *testing.T, p *Problem) Result {
	t.Helper()
	res := Solve(p, Options{})
	return res
}

func wantObj(t *testing.T, res Result, obj float64) {
	t.Helper()
	if res.Status != Optimal {
		t.Fatalf("status=%v", res.Status)
	}
	if math.Abs(res.Obj-obj) > 1e-6 {
		t.Fatalf("obj=%g want %g (x=%v)", res.Obj, obj, res.X)
	}
}

func TestTrivialBounds(t *testing.T) {
	// min x subject to 1 ≤ x ≤ 4.
	p := NewProblem(1)
	p.Obj[0] = 1
	p.Lb[0] = 1
	p.Ub[0] = 4
	wantObj(t, solve(t, p), 1)
}

func TestMaximizeViaNegation(t *testing.T) {
	// max x ⇔ min −x, x ≤ 4.
	p := NewProblem(1)
	p.Obj[0] = -1
	p.Ub[0] = 4
	wantObj(t, solve(t, p), -4)
}

func TestSimple2D(t *testing.T) {
	// min −x−2y s.t. x+y ≤ 4, x ≤ 2, y ≤ 3 → x=1? Optimal: y=3, x=1 → −7.
	p := NewProblem(2)
	p.Obj[0], p.Obj[1] = -1, -2
	p.Ub[0], p.Ub[1] = 2, 3
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 4)
	res := solve(t, p)
	wantObj(t, res, -7)
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-3) > 1e-6 {
		t.Fatalf("x=%v", res.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x+y = 5, x,y ≥ 0 → 5.
	p := NewProblem(2)
	p.Obj[0], p.Obj[1] = 1, 1
	p.AddRow([]Coef{{0, 1}, {1, 1}}, EQ, 5)
	wantObj(t, solve(t, p), 5)
}

func TestGEConstraintNeedsPhase1(t *testing.T) {
	// min x s.t. x ≥ 3 (as row) → 3.
	p := NewProblem(1)
	p.Obj[0] = 1
	p.AddRow([]Coef{{0, 1}}, GE, 3)
	wantObj(t, solve(t, p), 3)
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Ub[0] = 1
	p.AddRow([]Coef{{0, 1}}, GE, 2)
	if res := Solve(p, Options{}); res.Status != Infeasible {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem(1)
	p.Lb[0] = 3
	p.Ub[0] = 2
	if res := Solve(p, Options{}); res.Status != Infeasible {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.Obj[0] = -1 // max x, no upper bound
	if res := Solve(p, Options{}); res.Status != Unbounded {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x ≥ −5 (x free otherwise) → −5.
	p := NewProblem(1)
	p.Obj[0] = 1
	p.Lb[0] = math.Inf(-1)
	p.AddRow([]Coef{{0, 1}}, GE, -5)
	wantObj(t, solve(t, p), -5)
}

func TestFreeVariableDecreases(t *testing.T) {
	// min x, x free, x+y = 0, 0 ≤ y ≤ 3 → x = −3.
	p := NewProblem(2)
	p.Obj[0] = 1
	p.Lb[0] = math.Inf(-1)
	p.Ub[1] = 3
	p.AddRow([]Coef{{0, 1}, {1, 1}}, EQ, 0)
	wantObj(t, solve(t, p), -3)
}

func TestDegenerateProblem(t *testing.T) {
	// Klee-Minty-ish small degenerate instance; just verify termination
	// and optimality.
	p := NewProblem(3)
	p.Obj[0], p.Obj[1], p.Obj[2] = -100, -10, -1
	p.AddRow([]Coef{{0, 1}}, LE, 1)
	p.AddRow([]Coef{{0, 20}, {1, 1}}, LE, 100)
	p.AddRow([]Coef{{0, 200}, {1, 20}, {2, 1}}, LE, 10000)
	res := solve(t, p)
	if res.Status != Optimal {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Obj > -10000+1e-4 {
		t.Fatalf("obj=%g want −10000", res.Obj)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies (3, 5), 2 demands (4, 4); costs [[1 2][3 1]].
	// Optimal: x00=3, x10=1, x11=4 → 3+3+4 = 10.
	p := NewProblem(4) // x00 x01 x10 x11
	p.Obj = []float64{1, 2, 3, 1}
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 3)
	p.AddRow([]Coef{{2, 1}, {3, 1}}, LE, 5)
	p.AddRow([]Coef{{0, 1}, {2, 1}}, GE, 4)
	p.AddRow([]Coef{{1, 1}, {3, 1}}, GE, 4)
	wantObj(t, solve(t, p), 10)
}

func TestNegativeRHSRows(t *testing.T) {
	// min y s.t. −x − y ≤ −4, x ≤ 3 → y ≥ 1.
	p := NewProblem(2)
	p.Obj[1] = 1
	p.Ub[0] = 3
	p.AddRow([]Coef{{0, -1}, {1, -1}}, LE, -4)
	wantObj(t, solve(t, p), 1)
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem(2)
	p.Obj[0], p.Obj[1] = 1, 1
	p.Lb[0], p.Ub[0] = 2, 2 // fixed
	p.AddRow([]Coef{{0, 1}, {1, 1}}, GE, 5)
	wantObj(t, solve(t, p), 5) // x=2, y=3
}

func TestLPRelaxationOfKnapsack(t *testing.T) {
	// max 4a+5b+3c st 2a+3b+c ≤ 4, binaries relaxed → fractional optimum.
	p := NewProblem(3)
	p.Obj = []float64{-4, -5, -3}
	for j := range p.Ub {
		p.Ub[j] = 1
	}
	p.AddRow([]Coef{{0, 2}, {1, 3}, {2, 1}}, LE, 4)
	res := solve(t, p)
	// a=1, c=1, b=1/3 → 4+3+5/3 = 8.6667.
	wantObj(t, res, -(4 + 3 + 5.0/3.0))
}

// Property: on random feasible LPs with known interior point, the solver
// returns a solution satisfying all constraints within tolerance and with
// objective no worse than the known point's.
func TestRandomFeasibleLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p := NewProblem(n)
		x0 := make([]float64, n) // known feasible point
		for j := 0; j < n; j++ {
			p.Obj[j] = float64(rng.Intn(11) - 5)
			p.Ub[j] = float64(1 + rng.Intn(10))
			x0[j] = rng.Float64() * p.Ub[j]
		}
		for i := 0; i < m; i++ {
			var coefs []Coef
			lhs := 0.0
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					v := float64(rng.Intn(7) - 3)
					if v != 0 {
						coefs = append(coefs, Coef{j, v})
						lhs += v * x0[j]
					}
				}
			}
			if len(coefs) == 0 {
				continue
			}
			if rng.Float64() < 0.5 {
				p.AddRow(coefs, LE, lhs+rng.Float64()*3)
			} else {
				p.AddRow(coefs, GE, lhs-rng.Float64()*3)
			}
		}
		res := Solve(p, Options{})
		if res.Status != Optimal {
			return false // feasible and bounded (bounded box) ⇒ must be optimal
		}
		// Check feasibility of returned point.
		for j := 0; j < n; j++ {
			if res.X[j] < p.Lb[j]-1e-6 || res.X[j] > p.Ub[j]+1e-6 {
				return false
			}
		}
		for _, row := range p.Rows {
			lhs := 0.0
			for _, c := range row.Coefs {
				lhs += c.Val * res.X[c.Var]
			}
			switch row.Sense {
			case LE:
				if lhs > row.RHS+1e-5 {
					return false
				}
			case GE:
				if lhs < row.RHS-1e-5 {
					return false
				}
			case EQ:
				if math.Abs(lhs-row.RHS) > 1e-5 {
					return false
				}
			}
		}
		// Objective at least as good as the known feasible point.
		ref := 0.0
		for j := 0; j < n; j++ {
			ref += p.Obj[j] * x0[j]
		}
		return res.Obj <= ref+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Fatal("status strings")
	}
}

func TestDeadlineAborts(t *testing.T) {
	// A problem big enough to take a few iterations; a context already
	// past its deadline must abort both solvers with IterLimit.
	p := NewProblem(50)
	for j := 0; j < 50; j++ {
		p.Obj[j] = -1
		p.Ub[j] = 10
	}
	for i := 0; i < 40; i++ {
		var coefs []Coef
		for j := 0; j < 50; j += 2 {
			coefs = append(coefs, Coef{j, 1})
		}
		p.AddRow(coefs, LE, float64(50+i))
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if res := Solve(p, Options{Context: ctx}); res.Status != IterLimit {
		t.Fatalf("Solve status=%v want iteration-limit", res.Status)
	}
	if res := SolveDense(p, Options{Context: ctx}); res.Status != IterLimit {
		t.Fatalf("SolveDense status=%v want iteration-limit", res.Status)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate rows should not confuse the solver.
	p := NewProblem(2)
	p.Obj[0], p.Obj[1] = -1, -1
	p.Ub[0], p.Ub[1] = 5, 5
	for i := 0; i < 4; i++ {
		p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 6)
	}
	wantObj(t, solve(t, p), -6)
}

func TestZeroCoefficientsIgnored(t *testing.T) {
	p := NewProblem(1)
	p.Obj[0] = 1
	p.AddRow([]Coef{{0, 0}}, GE, 0) // vacuous
	p.AddRow([]Coef{{0, 1}}, GE, 2)
	wantObj(t, solve(t, p), 2)
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem(0)
	res := Solve(p, Options{})
	if res.Status != Optimal || res.Obj != 0 {
		t.Fatalf("empty problem: %+v", res)
	}
}

func TestTightEqualityChain(t *testing.T) {
	// x0 = 1, x_{i} = x_{i-1} forces all equal; minimize Σ x.
	n := 8
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.Obj[j] = 1
		p.Ub[j] = 10
	}
	p.AddRow([]Coef{{0, 1}}, EQ, 1)
	for j := 1; j < n; j++ {
		p.AddRow([]Coef{{j, 1}, {j - 1, -1}}, EQ, 0)
	}
	wantObj(t, solve(t, p), float64(n))
}

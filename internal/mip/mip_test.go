package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mbsp/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 4a+5b+3c st 2a+3b+c ≤ 4 over binaries → a=1,c=1 (or a=0,b=1,c=1):
	// values 7 vs 8; check: a+c uses 3 ≤ 4 → 7; b+c uses 4 → 8. Optimum 8.
	m := NewModel()
	a := m.AddBinary("a", -4)
	b := m.AddBinary("b", -5)
	c := m.AddBinary("c", -3)
	m.AddLE(4, lp.Coef{Var: a, Val: 2}, lp.Coef{Var: b, Val: 3}, lp.Coef{Var: c, Val: 1})
	res := m.Solve(Options{})
	if res.Status != Optimal {
		t.Fatalf("status=%v", res.Status)
	}
	if math.Abs(res.Obj+8) > 1e-6 {
		t.Fatalf("obj=%g want −8 (x=%v)", res.Obj, res.X)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddGE(3, lp.Coef{Var: x, Val: 1}, lp.Coef{Var: y, Val: 1})
	if res := m.Solve(Options{}); res.Status != Infeasible {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 3x + y st x + y ≥ 2.5, x binary, y ≥ 0 continuous.
	// x=1,y=1.5 → 4.5; x=0,y=2.5 → 2.5. Optimum 2.5.
	m := NewModel()
	x := m.AddBinary("x", 3)
	y := m.AddVar("y", 0, lp.Inf, 1)
	m.AddGE(2.5, lp.Coef{Var: x, Val: 1}, lp.Coef{Var: y, Val: 1})
	res := m.Solve(Options{})
	if res.Status != Optimal || math.Abs(res.Obj-2.5) > 1e-6 {
		t.Fatalf("res obj=%g status=%v", res.Obj, res.Status)
	}
}

func TestWarmStartAccepted(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", -1)
	y := m.AddBinary("y", -1)
	m.AddLE(1, lp.Coef{Var: x, Val: 1}, lp.Coef{Var: y, Val: 1})
	// Warm start with the suboptimal all-zeros solution.
	res := m.Solve(Options{WarmStart: []float64{0, 0}})
	if res.Status != Optimal || math.Abs(res.Obj+1) > 1e-6 {
		t.Fatalf("res=%+v", res)
	}
}

func TestWarmStartRespectedUnderZeroBudget(t *testing.T) {
	// With an already-cancelled context the solver must still return
	// the warm start.
	m := NewModel()
	x := m.AddBinary("x", -1)
	_ = x
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := m.Solve(Options{WarmStart: []float64{0}, Context: ctx})
	if res.Status != Feasible || res.Obj != 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestWarmStartRejectedIfInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	m.AddGE(1, lp.Coef{Var: x, Val: 1})
	res := m.Solve(Options{
		WarmStart: []float64{0}, // violates the row
	})
	// An accepted warm start would leave the infeasible x=0 (objective 0)
	// as the incumbent; rejection makes the tree find x=1.
	if res.Status != Optimal || math.Abs(res.Obj-1) > 1e-6 {
		t.Fatalf("res=%+v", res)
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	m.AddLE(0, lp.Coef{Var: x, Val: 1})
	if err := m.CheckFeasible([]float64{0}, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFeasible([]float64{1}, 1e-9); err == nil {
		t.Fatal("expected row violation")
	}
	if err := m.CheckFeasible([]float64{0.5}, 1e-9); err == nil {
		t.Fatal("expected integrality violation")
	}
	if err := m.CheckFeasible([]float64{0, 0}, 1e-9); err == nil {
		t.Fatal("expected length mismatch")
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3×3 assignment with known optimum.
	cost := [3][3]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	m := NewModel()
	var v [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v[i][j] = m.AddBinary("x", cost[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		var rowC, colC []lp.Coef
		for j := 0; j < 3; j++ {
			rowC = append(rowC, lp.Coef{Var: v[i][j], Val: 1})
			colC = append(colC, lp.Coef{Var: v[j][i], Val: 1})
		}
		m.AddRow(rowC, lp.EQ, 1)
		m.AddRow(colC, lp.EQ, 1)
	}
	res := m.Solve(Options{})
	// Optimum: (0,1)=1? costs: choose 1 + 2 + 2 = 5 via (0,1),(1,0),(2,2).
	if res.Status != Optimal || math.Abs(res.Obj-5) > 1e-6 {
		t.Fatalf("obj=%g status=%v", res.Obj, res.Status)
	}
}

// Brute force reference for random small binary MIPs.
func bruteForceBinary(m *Model, n int) (float64, bool) {
	best := math.Inf(1)
	found := false
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			x[j] = float64((mask >> j) & 1)
		}
		if m.CheckFeasible(x, 1e-9) == nil {
			if obj := m.ObjValue(x); obj < best {
				best = obj
				found = true
			}
		}
	}
	return best, found
}

// Property: B&B matches brute force on random binary programs.
func TestRandomBinaryProgramsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := NewModel()
		for j := 0; j < n; j++ {
			m.AddBinary("b", float64(rng.Intn(21)-10))
		}
		rows := 1 + rng.Intn(5)
		for i := 0; i < rows; i++ {
			var coefs []lp.Coef
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					v := float64(rng.Intn(9) - 4)
					if v != 0 {
						coefs = append(coefs, lp.Coef{Var: j, Val: v})
					}
				}
			}
			if len(coefs) == 0 {
				continue
			}
			rhs := float64(rng.Intn(9) - 2)
			if rng.Float64() < 0.5 {
				m.AddRow(coefs, lp.LE, rhs)
			} else {
				m.AddRow(coefs, lp.GE, rhs)
			}
		}
		want, feasible := bruteForceBinary(m, n)
		res := m.Solve(Options{})
		if !feasible {
			return res.Status == Infeasible
		}
		return res.Status == Optimal && math.Abs(res.Obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundReported(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", -1)
	y := m.AddBinary("y", -1)
	m.AddLE(1, lp.Coef{Var: x, Val: 1}, lp.Coef{Var: y, Val: 1})
	res := m.Solve(Options{})
	if res.Status != Optimal {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Bound > res.Obj+1e-9 {
		t.Fatalf("bound %g above obj %g", res.Bound, res.Obj)
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Feasible.String() != "feasible" ||
		Infeasible.String() != "infeasible" || NoSolution.String() != "no-solution" {
		t.Fatal("status strings")
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	// A model where the warm start survives a 1-node search.
	m := NewModel()
	var coefs []lp.Coef
	ws := make([]float64, 12)
	for j := 0; j < 12; j++ {
		m.AddBinary("b", -1)
		coefs = append(coefs, lp.Coef{Var: j, Val: 1})
	}
	m.AddRow(coefs, lp.LE, 6)
	res := m.Solve(Options{WarmStart: ws, NodeLimit: 1})
	if res.Status != Feasible && res.Status != Optimal {
		t.Fatalf("status=%v", res.Status)
	}
	if res.Obj > 0 {
		t.Fatalf("obj=%g", res.Obj)
	}
}

func TestFixVar(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", -1)
	m.FixVar(x, 0)
	res := m.Solve(Options{})
	if res.Status != Optimal || res.Obj != 0 {
		t.Fatalf("res=%+v", res)
	}
}

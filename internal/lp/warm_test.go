package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLP builds a feasible, bounded random LP (box-bounded variables,
// rows anchored at a known interior point), the same family the cold
// solver's property test uses.
func randomLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(6)
	m := 1 + rng.Intn(6)
	p := NewProblem(n)
	x0 := make([]float64, n)
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
		switch rng.Intn(3) {
		case 0:
			p.AddRow(coefs, LE, lhs+rng.Float64()*3)
		case 1:
			p.AddRow(coefs, GE, lhs-rng.Float64()*3)
		default:
			p.AddRow(coefs, EQ, lhs)
		}
	}
	return p
}

// TestSparseMatchesDenseRandom cross-checks the sparse solver against the
// preserved dense reference on random LPs: same status, and objectives
// within 1e-9 when both are optimal.
func TestSparseMatchesDenseRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		sp := Solve(p, Options{})
		dn := SolveDense(p, Options{})
		if sp.Status != dn.Status {
			t.Logf("seed %d: sparse=%v dense=%v", seed, sp.Status, dn.Status)
			return false
		}
		// Perturbation must be invisible in results: same status, same
		// objective, no shift residue in the reported point.
		spP := Solve(p, Options{Perturb: true, PerturbSeq: uint64(seed)})
		if spP.Status != dn.Status {
			t.Logf("seed %d: perturbed sparse=%v dense=%v", seed, spP.Status, dn.Status)
			return false
		}
		if sp.Status != Optimal {
			return true
		}
		if math.Abs(sp.Obj-dn.Obj) > 1e-9*(1+math.Abs(dn.Obj)) {
			t.Logf("seed %d: sparse obj=%g dense obj=%g", seed, sp.Obj, dn.Obj)
			return false
		}
		if math.Abs(spP.Obj-dn.Obj) > 1e-9*(1+math.Abs(dn.Obj)) {
			t.Logf("seed %d: perturbed sparse obj=%g dense obj=%g", seed, spP.Obj, dn.Obj)
			return false
		}
		for j := range spP.X {
			if spP.X[j] < p.Lb[j]-1e-9 || spP.X[j] > p.Ub[j]+1e-9 {
				t.Logf("seed %d: perturbed x[%d]=%g outside true bounds [%g,%g]",
					seed, j, spP.X[j], p.Lb[j], p.Ub[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveFromMatchesCold simulates branch-and-bound: solve cold, then
// repeatedly tighten a single bound and dual-reoptimize from the previous
// basis; every warm result must agree with an independent cold solve.
func TestSolveFromMatchesCold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		in := Prepare(p)
		lb := append([]float64(nil), p.Lb...)
		ub := append([]float64(nil), p.Ub...)
		res := in.Solve(lb, ub, Options{})
		if res.Status != Optimal {
			return true
		}
		basis := res.Basis
		for step := 0; step < 6 && basis != nil; step++ {
			j := rng.Intn(p.NumVars())
			v := res.X[j]
			if rng.Intn(2) == 0 {
				ub[j] = math.Floor(v) // branch down
			} else {
				lb[j] = math.Ceil(v) // branch up
			}
			if lb[j] > ub[j] {
				lb[j], ub[j] = ub[j], lb[j]
			}
			warm := in.SolveFrom(basis, lb, ub, Options{})
			cold := SolveDense(&Problem{Obj: p.Obj, Lb: lb, Ub: ub, Rows: p.Rows}, Options{})
			if warm.Status == IterLimit || cold.Status == IterLimit {
				return true // budget artifacts are not a disagreement
			}
			if (warm.Status == Optimal) != (cold.Status == Optimal) {
				t.Logf("seed %d step %d: warm=%v cold=%v", seed, step, warm.Status, cold.Status)
				return false
			}
			if warm.Status != Optimal {
				return true // both infeasible/unbounded: done with this chain
			}
			if math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
				t.Logf("seed %d step %d: warm obj=%g cold obj=%g (coldRestart=%v)",
					seed, step, warm.Obj, cold.Obj, warm.ColdRestart)
				return false
			}
			res, basis = warm, warm.Basis
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveFromHotPath pins the diving pattern: a SolveFrom immediately
// following the solve that produced the basis must succeed without a cold
// restart.
func TestSolveFromHotPath(t *testing.T) {
	// Knapsack relaxation: max 4a+5b+3c st 2a+3b+c ≤ 4 over [0,1]³.
	p := NewProblem(3)
	p.Obj = []float64{-4, -5, -3}
	for j := range p.Ub {
		p.Ub[j] = 1
	}
	p.AddRow([]Coef{{0, 2}, {1, 3}, {2, 1}}, LE, 4)
	in := Prepare(p)
	res := in.Solve(p.Lb, p.Ub, Options{})
	if res.Status != Optimal || res.Basis == nil {
		t.Fatalf("cold: %+v", res)
	}
	// b is fractional (1/3) at the optimum; branch it down to 0.
	lb := append([]float64(nil), p.Lb...)
	ub := append([]float64(nil), p.Ub...)
	ub[1] = 0
	warm := in.SolveFrom(res.Basis, lb, ub, Options{})
	if warm.Status != Optimal {
		t.Fatalf("warm: %+v", warm)
	}
	if warm.ColdRestart {
		t.Fatal("diving SolveFrom took the cold-restart path")
	}
	// a=1, c=1 → −7.
	if math.Abs(warm.Obj+7) > 1e-9 {
		t.Fatalf("warm obj=%g want −7", warm.Obj)
	}
	if warm.Iters >= res.Iters && res.Iters > 2 {
		t.Fatalf("warm solve took %d iters, cold took %d — no reuse benefit", warm.Iters, res.Iters)
	}
}

// TestSolveFromDetectsInfeasible: tightening a bound past the feasible
// region must be reported as Infeasible by the dual simplex.
func TestSolveFromDetectsInfeasible(t *testing.T) {
	// x + y ≥ 4 with x,y ≤ 3.
	p := NewProblem(2)
	p.Obj = []float64{1, 1}
	p.Ub[0], p.Ub[1] = 3, 3
	p.AddRow([]Coef{{0, 1}, {1, 1}}, GE, 4)
	in := Prepare(p)
	res := in.Solve(p.Lb, p.Ub, Options{})
	if res.Status != Optimal {
		t.Fatalf("cold: %+v", res)
	}
	lb := []float64{0, 0}
	ub := []float64{0, 3} // x fixed to 0 → y ≥ 4 > 3: infeasible
	warm := in.SolveFrom(res.Basis, lb, ub, Options{})
	if warm.Status != Infeasible {
		t.Fatalf("warm status=%v want infeasible", warm.Status)
	}
}

// TestPreparedReuse: one Instance must serve many independent bound sets
// without cross-talk.
func TestPreparedReuse(t *testing.T) {
	p := NewProblem(2)
	p.Obj = []float64{-1, -1}
	p.Ub[0], p.Ub[1] = 5, 5
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 6)
	in := Prepare(p)
	for i := 0; i < 4; i++ {
		ubv := float64(2 + i)
		res := in.Solve([]float64{0, 0}, []float64{ubv, 5}, Options{})
		want := -math.Min(ubv+5, 6)
		if res.Status != Optimal || math.Abs(res.Obj-want) > 1e-9 {
			t.Fatalf("i=%d: got %+v want obj %g", i, res, want)
		}
	}
}

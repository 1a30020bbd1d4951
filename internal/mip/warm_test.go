package mip

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mbsp/internal/lp"
)

// randomBinaryModel builds a random binary program (the same family the
// brute-force property test uses).
func randomBinaryModel(rng *rand.Rand) *Model {
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
	return m
}

// TestWarmMatchesColdAndReference: the warm-started tree search, the
// cold-start ablation, and the dense reference path must agree on status
// and optimal objective for random binary programs.
func TestWarmMatchesColdAndReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomBinaryModel(rng)
		warm := m.Solve(Options{})
		cold := m.Solve(Options{ColdStart: true})
		ref := m.Solve(Options{ReferenceLP: true})
		if warm.Status != cold.Status || warm.Status != ref.Status {
			t.Logf("seed %d: warm=%v cold=%v ref=%v", seed, warm.Status, cold.Status, ref.Status)
			return false
		}
		if warm.Status != Optimal {
			return true
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-9 || math.Abs(warm.Obj-ref.Obj) > 1e-9 {
			t.Logf("seed %d: warm obj=%g cold obj=%g ref obj=%g", seed, warm.Obj, cold.Obj, ref.Obj)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmMatchesColdLarger widens the cross-check to larger mixed
// binary/continuous models with equality rows — the shape that stresses
// the dual simplex (phase-1 bases, degenerate pivots, bound flips).
func TestWarmMatchesColdLarger(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(15)
		m := NewModel()
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				m.AddBinary("b", float64(rng.Intn(21)-10))
			} else {
				m.AddVar("c", 0, float64(1+rng.Intn(5)), float64(rng.Intn(11)-5))
			}
		}
		rows := 3 + rng.Intn(8)
		for i := 0; i < rows; i++ {
			var coefs []lp.Coef
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					v := float64(rng.Intn(9) - 4)
					if v != 0 {
						coefs = append(coefs, lp.Coef{Var: j, Val: v})
					}
				}
			}
			if len(coefs) == 0 {
				continue
			}
			rhs := float64(rng.Intn(13) - 3)
			switch rng.Intn(4) {
			case 0:
				m.AddRow(coefs, lp.EQ, rhs)
			case 1:
				m.AddRow(coefs, lp.GE, rhs)
			default:
				m.AddRow(coefs, lp.LE, rhs)
			}
		}
		warm := m.Solve(Options{})
		cold := m.Solve(Options{ColdStart: true})
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm=%v cold=%v", seed, warm.Status, cold.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-6 {
			t.Fatalf("seed %d: warm obj=%g cold obj=%g", seed, warm.Obj, cold.Obj)
		}
	}
}

// TestWarmSolvesDominate: on a tree deep enough to branch, most node
// relaxations must take the dual re-solve path, and the warm tree must
// need fewer total simplex iterations than the cold ablation.
func TestWarmSolvesDominate(t *testing.T) {
	// A knapsack-like model with a genuinely fractional relaxation.
	m := NewModel()
	var coefs []lp.Coef
	weights := []float64{3, 5, 7, 11, 13, 17, 19, 23}
	for j, w := range weights {
		m.AddBinary("b", -w-float64(j%3))
		coefs = append(coefs, lp.Coef{Var: j, Val: w})
	}
	m.AddRow(coefs, lp.LE, 37)
	warm := m.Solve(Options{})
	cold := m.Solve(Options{ColdStart: true})
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("warm=%v cold=%v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Fatalf("objectives differ: warm=%g cold=%g", warm.Obj, cold.Obj)
	}
	if warm.WarmLPs == 0 {
		t.Fatal("no node took the dual re-solve path")
	}
	if warm.WarmLPs < warm.ColdLPs {
		t.Fatalf("warm path minority: %d warm vs %d cold", warm.WarmLPs, warm.ColdLPs)
	}
	if warm.SimplexIters >= cold.SimplexIters {
		t.Fatalf("warm start saved nothing: %d iters warm vs %d cold", warm.SimplexIters, cold.SimplexIters)
	}
	t.Logf("simplex iters: warm=%d cold=%d (%.1fx), nodes=%d, warm/cold LPs=%d/%d",
		warm.SimplexIters, cold.SimplexIters,
		float64(cold.SimplexIters)/float64(warm.SimplexIters), warm.ILPNodes, warm.WarmLPs, warm.ColdLPs)
}

func TestIncumbentMonotoneAndSealed(t *testing.T) {
	inc := NewIncumbent()
	if !math.IsInf(inc.Get(), 1) {
		t.Fatalf("fresh incumbent = %g", inc.Get())
	}
	if !inc.Offer(10) || inc.Get() != 10 {
		t.Fatalf("offer 10: %g", inc.Get())
	}
	if inc.Offer(12) {
		t.Fatal("worse offer accepted")
	}
	if !inc.Offer(7) || inc.Get() != 7 {
		t.Fatalf("offer 7: %g", inc.Get())
	}
	inc.Seal()
	if inc.Offer(1) || inc.Get() != 7 {
		t.Fatalf("sealed incumbent moved: %g", inc.Get())
	}
	// Nil receivers are inert.
	var nilInc *Incumbent
	if !math.IsInf(nilInc.Get(), 1) || nilInc.Offer(1) {
		t.Fatal("nil incumbent misbehaves")
	}
	nilInc.Seal()
}

func TestIncumbentConcurrentOffers(t *testing.T) {
	inc := NewIncumbent()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 100; i >= 0; i-- {
				inc.Offer(float64(i + g))
			}
		}(g)
	}
	wg.Wait()
	if inc.Get() != 0 {
		t.Fatalf("want 0 after concurrent offers, got %g", inc.Get())
	}
}

// TestSharedIncumbentPrunes: a shared bound at the optimum makes the tree
// collapse immediately — and the outcome is NoSolution, not Infeasible.
func TestSharedIncumbentPrunes(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		var coefs []lp.Coef
		weights := []float64{3, 5, 7, 11, 13, 17, 19, 23}
		for j, w := range weights {
			m.AddBinary("b", -w-float64(j%3))
			coefs = append(coefs, lp.Coef{Var: j, Val: w})
		}
		m.AddRow(coefs, lp.LE, 37)
		return m
	}
	free := build().Solve(Options{})
	if free.Status != Optimal {
		t.Fatalf("baseline: %+v", free)
	}
	// A concurrent solver published a bound this model cannot beat: the
	// losing candidate must cut off early with NoSolution, not explore
	// the tree and not claim infeasibility.
	inc := NewIncumbent()
	inc.Offer(free.Obj - 2)
	pruned := build().Solve(Options{SharedIncumbent: inc})
	if pruned.Status != NoSolution {
		t.Fatalf("status=%v want no-solution", pruned.Status)
	}
	if pruned.ILPNodes >= free.ILPNodes {
		t.Fatalf("shared bound saved nothing: %d vs %d nodes", pruned.ILPNodes, free.ILPNodes)
	}
}

// TestSharedIncumbentKeepsStrictImprovements: a shared bound worse than
// the optimum must not cost us the optimum.
func TestSharedIncumbentKeepsStrictImprovements(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", -4)
	b := m.AddBinary("b", -5)
	c := m.AddBinary("c", -3)
	m.AddLE(4, lp.Coef{Var: a, Val: 2}, lp.Coef{Var: b, Val: 3}, lp.Coef{Var: c, Val: 1})
	inc := NewIncumbent()
	inc.Offer(-7.5)
	res := m.Solve(Options{SharedIncumbent: inc})
	if res.X == nil || math.Abs(res.Obj+8) > 1e-6 {
		t.Fatalf("lost the optimum under a weaker shared bound: %+v", res)
	}
}

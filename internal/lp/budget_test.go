package lp_test

import (
	"math"
	"slices"
	"testing"

	"mbsp/internal/ilpsched"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// kmeansBranch solves the root relaxation of the P=1 k-means scheduling
// ILP at r = rfactor·r0 cold, then branches variable j up to 1, as the
// tree's first node would. It returns the prepared instance, the root
// basis, the child's bounds and the row count.
func kmeansBranch(t *testing.T, rfactor float64, j int, opts lp.Options) (*lp.Instance, *lp.Basis, []float64, []float64, int) {
	t.Helper()
	inst, err := workloads.ByName("k-means")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: rfactor * inst.DAG.MinCache(), G: 1, L: 10}
	p, err := ilpsched.Relaxation(inst.DAG, arch, ilpsched.Options{Model: mbsp.Sync})
	if err != nil {
		t.Fatal(err)
	}
	in := lp.Prepare(p)
	root := in.Solve(p.Lb, p.Ub, opts)
	if root.Status != lp.Optimal || root.Basis == nil {
		t.Fatalf("root: %v", root.Status)
	}
	if x := root.X[j]; p.Ub[j] != 1 || x < 1e-6 || x > 1-1e-6 {
		t.Fatalf("fixture moved: x[%d] = %g at the root is not a fractional binary", j, x)
	}
	lb := slices.Clone(p.Lb)
	lb[j] = 1
	return in, root.Basis, lb, p.Ub, len(p.Rows)
}

// TestWarmDualPastQuarterBudgetFinishesWarm: a perturbed warm dual that
// needs more than 50 + m/4 iterations is making progress, not stalling,
// and finishes warm under the 50 + m budget, at a cold solve's status
// and objective and in fewer iterations than the cold solve. Under a
// 50 + m/4 budget this child (k-means r = 4·r0, m = 742) spent 235 warm
// iterations and then restarted cold.
func TestWarmDualPastQuarterBudgetFinishesWarm(t *testing.T) {
	opts := lp.Options{Perturb: true}
	in, basis, lb, ub, m := kmeansBranch(t, 4, 20, opts)
	opts.PerturbSeq = 42
	warm := in.SolveFrom(basis, lb, ub, opts)
	cold := in.Solve(lb, ub, opts)
	t.Logf("m=%d: warm %v in %d iterations (clean-up %d), cold %v in %d", m, warm.Status, warm.Iters, warm.CleanupIters, cold.Status, cold.Iters)
	if warm.ColdRestart {
		t.Fatalf("warm re-solve restarted cold after %d iterations", warm.Iters)
	}
	if warm.Iters <= 50+m/4 {
		t.Fatalf("fixture moved: the warm re-solve took %d iterations, within 50 + m/4 = %d", warm.Iters, 50+m/4)
	}
	if warm.Status != cold.Status || warm.Status != lp.Optimal {
		t.Fatalf("warm %v, cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
		t.Fatalf("warm objective %v, cold %v", warm.Obj, cold.Obj)
	}
	if warm.Iters >= cold.Iters {
		t.Fatalf("warm re-solve took %d iterations, the cold solve %d", warm.Iters, cold.Iters)
	}
}

// TestNoPerturbStallFallsBackCold: without perturbation, a warm dual on
// the degenerate k-means model (r = 3·r0, m = 903) stalls, spends
// exactly its 50 + m budget and falls back to the cold solve, whose
// status, objective and iterations the result reports on top of the
// warm ones.
func TestNoPerturbStallFallsBackCold(t *testing.T) {
	var opts lp.Options
	in, basis, lb, ub, m := kmeansBranch(t, 3, 0, opts)
	warm := in.SolveFrom(basis, lb, ub, opts)
	cold := in.Solve(lb, ub, opts)
	t.Logf("m=%d: warm %v in %d iterations, cold %v in %d", m, warm.Status, warm.Iters, cold.Status, cold.Iters)
	if !warm.ColdRestart {
		t.Fatalf("fixture moved: the NoPerturb warm re-solve finished warm in %d iterations", warm.Iters)
	}
	if warm.Status != cold.Status || warm.Obj != cold.Obj {
		t.Fatalf("fallback %v at %v, cold %v at %v", warm.Status, warm.Obj, cold.Status, cold.Obj)
	}
	if spent := warm.Iters - cold.Iters; spent != 50+m {
		t.Fatalf("warm dual spent %d iterations before the fallback, want the budget 50 + m = %d", spent, 50+m)
	}
}

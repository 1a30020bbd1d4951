package mip

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mbsp/internal/lp"
)

// solveSnapshot captures the full observable outcome of a solve —
// status, exact solution bits, bound and every counter — so two runs can
// be compared byte-for-byte.
func solveSnapshot(res Result) string {
	s := fmt.Sprintf("status=%v obj=%x bound=%x nodes=%d lps=%d iters=%d warm=%d cold=%d pert=%d clean=%d x=",
		res.Status, math.Float64bits(res.Obj), math.Float64bits(res.Bound),
		res.ILPNodes, res.ILPLPs, res.SimplexIters, res.WarmLPs, res.ColdLPs,
		res.PerturbedLPs, res.CleanupIters)
	for _, v := range res.X {
		s += fmt.Sprintf("%x,", math.Float64bits(v))
	}
	return s
}

// randomMixedModel builds the larger mixed binary/continuous family with
// equality rows (the shape that stresses the dual simplex).
func randomMixedModel(rng *rand.Rand) *Model {
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
	return m
}

// TestParallelDeterminismMatrix is the mip half of the parallel
// determinism matrix (the registry-partitioning half lives in
// internal/partition): on random MILPs — small binaries and the larger
// mixed family, run both to completion and under a truncating node limit
// — Workers ∈ {1, 2, 8} × GOMAXPROCS ∈ {1, 4} must produce identical
// incumbents, costs and node accounting, bit for bit. Run with -race
// (scripts/verify.sh does).
func TestParallelDeterminismMatrix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type fixture struct {
		name      string
		m         *Model
		nodeLimit int
		noPerturb bool
	}
	var fixtures []fixture
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixtures = append(fixtures, fixture{
			name: fmt.Sprintf("binary-%d", seed), m: randomBinaryModel(rng),
		})
	}
	for seed := int64(100); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixtures = append(fixtures,
			fixture{name: fmt.Sprintf("mixed-%d", seed), m: randomMixedModel(rng)},
			// The same model under a budget that truncates mid-tree: the
			// creation-sequence accounting, not luck, must decide which
			// nodes are in.
			fixture{name: fmt.Sprintf("mixed-%d-limit", seed), m: randomMixedModel(rng), nodeLimit: 25},
		)
	}
	// The matrix above runs with EXPAND perturbation on (the default), so
	// it already proves the perturbed path is worker-count independent; a
	// NoPerturb leg proves the unperturbed path stayed deterministic too.
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixtures = append(fixtures, fixture{
			name: fmt.Sprintf("mixed-%d-noperturb", seed), m: randomMixedModel(rng), noPerturb: true,
		})
	}

	for _, fx := range fixtures {
		var want string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 4, 8} {
				res := fx.m.Solve(Options{
					NodeLimit: fx.nodeLimit,
					Workers:   workers,
					NoPerturb: fx.noPerturb,
				})
				got := solveSnapshot(res)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: diverged at GOMAXPROCS=%d Workers=%d\nfirst: %s\nthis:  %s",
						fx.name, procs, workers, want, got)
				}
			}
		}
	}
}

// TestParallelSharedSealedIncumbent: a sealed shared incumbent is part of
// the deterministic contract — pruning against a frozen external bound
// must not reintroduce worker-count dependence.
func TestParallelSharedSealedIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomMixedModel(rng)
	base := m.Solve(Options{})
	if base.Status != Optimal {
		t.Skipf("fixture not solved to optimality: %v", base.Status)
	}
	inc := NewIncumbent()
	inc.Offer(base.Obj + 3)
	inc.Seal()
	var want string
	for _, workers := range []int{1, 2, 8} {
		res := m.Solve(Options{
			NodeLimit: 40, Workers: workers, SharedIncumbent: inc,
		})
		got := solveSnapshot(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d diverged under sealed shared incumbent\nfirst: %s\nthis:  %s", workers, want, got)
		}
	}
}

// TestParallelMatchesBruteForce: correctness of the parallel path itself —
// Workers=8 must still match exhaustive enumeration on random binary
// programs.
func TestParallelMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomBinaryModel(rng)
		want, feasible := bruteForceBinary(m, m.NumVars())
		res := m.Solve(Options{Workers: 8})
		if !feasible {
			if res.Status != Infeasible {
				t.Fatalf("seed %d: want infeasible, got %v", seed, res.Status)
			}
			continue
		}
		if res.Status != Optimal || math.Abs(res.Obj-want) > 1e-6 {
			t.Fatalf("seed %d: status=%v obj=%g want %g", seed, res.Status, res.Obj, want)
		}
	}
}

// TestWorkersOptionBounds: degenerate Workers values must not break the
// search (0 and negatives mean serial; huge values are capped).
func TestWorkersOptionBounds(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 1 << 20} {
		m := NewModel()
		a := m.AddBinary("a", -4)
		b := m.AddBinary("b", -5)
		c := m.AddBinary("c", -3)
		m.AddLE(4, lp.Coef{Var: a, Val: 2}, lp.Coef{Var: b, Val: 3}, lp.Coef{Var: c, Val: 1})
		res := m.Solve(Options{Workers: workers})
		if res.Status != Optimal || math.Abs(res.Obj+8) > 1e-6 {
			t.Fatalf("Workers=%d: %+v", workers, res)
		}
	}
}

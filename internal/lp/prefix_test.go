package lp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// packingLP builds a random packing LP: maximize Σ c_j·x_j (c_j > 0)
// over sparse rows Σ a_ij·x_j ≤ b_i (a_ij ∈ 1..4) and 0 ≤ x ≤ u. x = 0 is
// feasible, so the cold solve needs no artificial column and its recipe
// is replayable; each b_i is below its row's sum at the upper bounds, so
// fixing every column at its upper bound is infeasible.
func packingLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.Obj[j] = -float64(1 + rng.Intn(20))
		p.Ub[j] = float64(1 + rng.Intn(4))
	}
	for i := 0; i < m; i++ {
		var coefs []Coef
		full := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.15 {
				v := float64(1 + rng.Intn(4))
				coefs = append(coefs, Coef{j, v})
				full += v * p.Ub[j]
			}
		}
		if len(coefs) == 0 {
			continue
		}
		p.AddRow(coefs, LE, math.Floor(full*(0.2+0.4*rng.Float64())))
	}
	return p
}

// stubInjector injects a singular refactorization into every warm
// re-solve.
type stubInjector struct{}

func (stubInjector) ForceColdFallback(uint64, uint64) bool { return false }
func (stubInjector) SingularRefactor(uint64, uint64) bool  { return true }

// recipeBits renders a snapshot with its replay recipe (anchor contents,
// not identity).
func recipeBits(b *Basis) string {
	if b == nil {
		return "nil"
	}
	s := ""
	for _, v := range b.basic {
		s += "." + uintToHex(uint64(v))
	}
	s += "/"
	for _, v := range b.stat {
		s += uintToHex(uint64(v))[15:]
	}
	s += "/"
	if b.anchor == nil {
		s += "noanchor"
	}
	for _, v := range b.anchor {
		s += "." + uintToHex(uint64(v))
	}
	s += "/"
	for _, r := range b.script {
		s += "." + uintToHex(uint64(r.enter)) + ":" + uintToHex(uint64(r.leave))
	}
	return s
}

// TestSolveFromPrefixReuseBitwise solves in branch-and-bound order on
// one instance — root, child A, sibling B, A's child, then a cousin, with
// an intervening cold solve, an infeasible child, a context-aborted solve
// and an injected singular refactorization in between — and compares
// every result (status, X bits, objective, iterations, recipe) with the
// same solve on a fresh instance, which factors the snapshot's anchor and
// replays its whole script. The live instance instead keeps the common
// prefix of its own eta file, so this pins that reuse to bit identity.
// The fixture must reach every reconstruction case: another anchor, a
// kept prefix with replay, a truncated file, a whole match, and a warm
// solve whose pivots cross refactorEvery.
func TestSolveFromPrefixReuseBitwise(t *testing.T) {
	const (
		caseOtherAnchor = iota
		casePrefixReplay
		caseTruncated
		caseWhole
		caseCrossedCadence
		caseInfeasible
		nCases
	)
	var seen [nCases]int
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 12; trial++ {
		n, m := 60+rng.Intn(40), 40+rng.Intn(30)
		p := packingLP(rng, n, m)
		in := Prepare(p)
		step := 0
		// check runs one solve on the live instance and the same solve on
		// a fresh one, and classifies the live reconstruction.
		check := func(what string, basis *Basis, lb, ub []float64, opts Options) Result {
			t.Helper()
			step++
			opts.Perturb, opts.PerturbSeq = true, uint64(step)
			var live, fresh Result
			if basis == nil {
				live = in.Solve(lb, ub, opts)
				fresh = Prepare(p).Solve(lb, ub, opts)
			} else {
				if s := in.ws; s != nil && basis.anchor != nil && opts.Inject == nil {
					k := 0
					for k < len(s.script) && k < len(basis.script) && s.script[k] == basis.script[k] {
						k++
					}
					switch {
					case !s.factorOK || !sameAnchor(s.anchor, basis.anchor):
						seen[caseOtherAnchor]++
					case k < len(basis.script):
						seen[casePrefixReplay]++
					case k < len(s.script):
						seen[caseTruncated]++
					default:
						seen[caseWhole]++
					}
				}
				live = in.SolveFrom(basis, lb, ub, opts)
				fresh = Prepare(p).SolveFrom(basis, lb, ub, opts)
				if live.Basis != nil && basis.anchor != nil && !live.ColdRestart &&
					!slices.Equal(live.Basis.anchor, basis.anchor) {
					seen[caseCrossedCadence]++
				}
			}
			if live.Status == Infeasible {
				seen[caseInfeasible]++
			}
			if lb, fb := resultBits(live), resultBits(fresh); lb != fb {
				t.Fatalf("trial %d step %d (%s): live and fresh solves diverged\nlive:  %s\nfresh: %s", trial, step, what, lb, fb)
			}
			if lr, fr := recipeBits(live.Basis), recipeBits(fresh.Basis); lr != fr {
				t.Fatalf("trial %d step %d (%s): live and fresh recipes diverged\nlive:  %s\nfresh: %s", trial, step, what, lr, fr)
			}
			return live
		}
		// branch returns copies of (lb, ub) with a fractional column of x
		// (the first one from a random start) rounded down or up; ok is
		// false when x is integral.
		branch := func(x, lb, ub []float64, up bool) (nlb, nub []float64, ok bool) {
			nlb, nub = slices.Clone(lb), slices.Clone(ub)
			off := rng.Intn(n)
			for d := 0; d < n; d++ {
				j := (off + d) % n
				if f := x[j] - math.Floor(x[j]); f > 1e-6 && f < 1-1e-6 {
					if up {
						nlb[j] = math.Ceil(x[j])
					} else {
						nub[j] = math.Floor(x[j])
					}
					return nlb, nub, true
				}
			}
			return nlb, nub, false
		}
		root := check("root", nil, p.Lb, p.Ub, Options{})
		if root.Status != Optimal || root.Basis == nil {
			t.Fatalf("trial %d: root %v", trial, root.Status)
		}
		aLb, aUb, ok := branch(root.X, p.Lb, p.Ub, false)
		if !ok {
			continue
		}
		bLb, bUb := slices.Clone(p.Lb), slices.Clone(p.Ub)
		for j := range aUb {
			if aUb[j] != p.Ub[j] {
				bLb[j] = aUb[j] + 1
			}
		}
		a := check("child A", root.Basis, aLb, aUb, Options{})
		b := check("sibling B", root.Basis, bLb, bUb, Options{})
		// A dive under A and a jump to B's subtree, repeated: the dives
		// grow the live script, the jumps keep only a prefix of it.
		for depth := 0; depth < 8 && a.Basis != nil && b.Basis != nil; depth++ {
			caLb, caUb, okA := branch(a.X, aLb, aUb, depth%2 == 0)
			cbLb, cbUb, okB := branch(b.X, bLb, bUb, depth%2 == 1)
			if !okA || !okB {
				break
			}
			ca := check("A's child", a.Basis, caLb, caUb, Options{})
			cb := check("cousin", b.Basis, cbLb, cbUb, Options{})
			// Back to an ancestor's snapshot: the live file (cousin's
			// lineage) shares at most the root's prefix with it.
			check("A again", a.Basis, caLb, caUb, Options{})
			if ca.Status == Optimal && ca.Basis != nil {
				a, aLb, aUb = ca, caLb, caUb
			}
			if cb.Status == Optimal && cb.Basis != nil {
				b, bLb, bUb = cb, cbLb, cbUb
			}
		}
		// Every column fixed at its upper bound: infeasible.
		check("infeasible child", a.Basis, p.Ub, p.Ub, Options{})
		check("after infeasible", b.Basis, bLb, bUb, Options{})
		check("intervening cold solve", nil, aLb, aUb, Options{})
		check("after cold solve", a.Basis, aLb, aUb, Options{})
		if r := check("aborted", b.Basis, bLb, bUb, Options{Context: cancelled}); r.Status != IterLimit {
			t.Fatalf("trial %d: aborted solve returned %v", trial, r.Status)
		}
		check("after abort", a.Basis, aLb, aUb, Options{})
		if r := check("injected singular", b.Basis, bLb, bUb, Options{Inject: stubInjector{}}); !r.Injected || !r.ColdRestart {
			t.Fatalf("trial %d: injected singular refactorization did not fall back cold", trial)
		}
		check("after singular", root.Basis, p.Lb, p.Ub, Options{})
		check("sibling after singular", a.Basis, aLb, aUb, Options{})
	}
	names := [nCases]string{"another anchor", "kept prefix + replay", "truncated file", "whole match", "crossed refactorEvery", "infeasible"}
	for c, k := range seen {
		if k == 0 {
			t.Errorf("fixture never reached case %q (seen %v)", names[c], seen)
		}
	}
}

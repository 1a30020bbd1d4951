package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// walkProblem returns a random LP for the column-walk tests: a
// randomPriceProblem with fixed, boxed and free columns, and a few
// columns that duplicate another one (coefficients, cost and bounds), so
// pricing scores and pivot-row entries tie.
func walkProblem(rng *rand.Rand) *Problem {
	p := randomPriceProblem(rng)
	n := p.NumVars()
	for j := 0; j < n; j++ {
		switch rng.Intn(5) {
		case 0:
			v := float64(rng.Intn(3))
			p.Lb[j], p.Ub[j] = v, v
		case 1:
			p.Ub[j] = float64(1 + rng.Intn(3))
		case 2:
			p.Lb[j], p.Ub[j] = math.Inf(-1), math.Inf(1)
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		for i := range p.Rows {
			var cs []Coef
			for _, c := range p.Rows[i].Coefs {
				if c.Var != b {
					cs = append(cs, c)
				}
				if c.Var == a {
					cs = append(cs, Coef{Var: b, Val: c.Val})
				}
			}
			p.Rows[i].Coefs = cs
		}
		p.Obj[b], p.Lb[b], p.Ub[b] = p.Obj[a], p.Lb[a], p.Ub[a]
	}
	return p
}

// eligCols returns the columns whose elig bit is set, ascending.
func eligCols(s *spx) []int {
	var cols []int
	for j := 0; j < s.n; j++ {
		if s.eligible(j) {
			cols = append(cols, j)
		}
	}
	return cols
}

// TestColumnWalksMatchFullScans: on random LPs (fixed columns,
// EXPAND-perturbed boxes, phase-1 artificials, duplicated columns), the
// bitmap walks of pricing, the Devex update and the dual's entering scan
// give what the full scans over every column give — the same entering
// column and direction (Devex and Bland), the same weights bit for bit
// and the same reset decision, the same breakpoints bit for bit — and
// leave touched clear. The elig bitmap that primal and dual maintain
// across their pivots equals one built afresh.
func TestColumnWalksMatchFullScans(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var pivots, dualPivots, arts, ties, blandPicks, resets, pendResets, keeps, rowDevex, colDevex, multiCand int
	for trial := 0; trial < 300; trial++ {
		p := walkProblem(rng)
		opts := Options{Perturb: trial%2 == 1, PerturbSeq: uint64(trial)}
		s := Prepare(p).workspace(&opts)
		if !s.resetBounds(p.Lb, p.Ub) {
			continue
		}
		s.coldStart()
		s.buildElig()
		arts += s.nArt
		c := make([]float64, s.n)
		for j := s.nTot; j < s.n; j++ {
			c[j] = 1
		}
		if s.nArt == 0 {
			copy(c, s.obj2)
		}
		checkTouched := func(what string) {
			t.Helper()
			if i := slices.IndexFunc(s.touched, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("trial %d: %s left touched word %d set", trial, what, i)
			}
		}
		for round := 0; round < 6; round++ {
			// Move the basis: primal on c, or dual on the phase-2
			// objective after raising a basic column's lower bound past
			// its value, for a few iterations.
			before := slices.Clone(s.basis)
			if round%2 == 0 {
				s.primal(c, rng.Intn(6))
			} else {
				if bi := s.basis[rng.Intn(s.m)]; bi < s.nTot {
					s.lb[bi] = s.x[bi] + 1
					s.ub[bi] = math.Max(s.ub[bi], s.lb[bi])
				}
				s.dual(rng.Intn(4))
			}
			if !slices.Equal(before, s.basis) {
				pivots++
				if round%2 == 1 {
					dualPivots++
				}
			}
			if !slices.Equal(s.elig, s.eligFull()) {
				t.Fatalf("trial %d round %d: elig %x, want %x", trial, round, s.elig, s.eligFull())
			}
			checkTouched("primal or dual")
			cols := eligCols(s)

			// Pricing. Weights from a small set, so scores tie.
			for j := 0; j < s.n; j++ {
				s.gamma[j] = float64(1 + rng.Intn(3))
			}
			copy(s.y, priceVector(rng, s.m))
			for _, bland := range []bool{false, true} {
				wantJ, wantDir := s.priceFull(c, bland)
				gotJ, gotDir := s.price(c, bland)
				if gotJ != wantJ || gotDir != wantDir {
					t.Fatalf("trial %d round %d bland %v: price picks %d (%v), full scan %d (%v)", trial, round, bland, gotJ, gotDir, wantJ, wantDir)
				}
				if bland && wantJ >= 0 {
					blandPicks++
				}
				if !bland && wantJ >= 0 {
					best := priceScore(s, c, wantJ)
					n := 0
					for _, j := range cols {
						if priceScore(s, c, j) == best {
							n++
						}
					}
					if n > 1 {
						ties++
					}
				}
			}
			checkTouched("price")
			if len(cols) == 0 {
				continue
			}

			// Devex. Every eligible weight but pend's is at most 1e10, as
			// the caller guarantees; pend's may be above.
			copy(s.rho, priceVector(rng, s.m))
			lv := cols[rng.Intn(len(cols))]
			pend := -1
			if rng.Intn(2) == 0 {
				pend = cols[rng.Intn(len(cols))]
				if rng.Intn(2) == 0 {
					s.gamma[pend] = 1e11
				}
			}
			ratio2 := math.Pow(10, float64(rng.Intn(16)-3))
			g0 := slices.Clone(s.gamma[:s.n])
			wantReset := s.devexFull(lv, ratio2)
			want := slices.Clone(s.gamma[:s.n])
			copy(s.gamma, g0)
			if s.priceByRow(s.rho) {
				rowDevex++
			} else {
				colDevex++
			}
			gotReset := s.devexUpdate(lv, ratio2, pend)
			if gotReset != wantReset {
				t.Fatalf("trial %d round %d: devexUpdate resets %v, full scan %v (lv %d, pend %d)", trial, round, gotReset, wantReset, lv, pend)
			}
			for j, g := range s.gamma[:s.n] {
				if math.Float64bits(g) != math.Float64bits(want[j]) {
					t.Fatalf("trial %d round %d column %d: γ = %v, full scan %v", trial, round, j, g, want[j])
				}
			}
			switch {
			case !wantReset:
				keeps++
			case pend >= 0 && pend != lv && g0[pend] > 1e10:
				pendResets++
			default:
				resets++
			}
			checkTouched("devexUpdate")

			// Entering scan.
			copy(s.y, priceVector(rng, s.m))
			rho := priceVector(rng, s.m)
			below := rng.Intn(2) == 0
			wantNaN := s.enteringScanFull(rho, below)
			wantJ, wantA, wantR := slices.Clone(s.candJ), slices.Clone(s.candA), slices.Clone(s.candR)
			gotNaN := s.enteringScan(rho, below)
			if gotNaN != wantNaN || !slices.Equal(s.candJ, wantJ) || !sameBits(s.candA, wantA) || !sameBits(s.candR, wantR) {
				t.Fatalf("trial %d round %d: entering scan %v %v %v (NaN %v), full scan %v %v %v (NaN %v)",
					trial, round, s.candJ, s.candA, s.candR, gotNaN, wantJ, wantA, wantR, wantNaN)
			}
			if len(wantJ) > 1 {
				multiCand++
			}
			checkTouched("enteringScan")
		}
	}
	t.Logf("%d rounds moved the basis (%d by the dual), %d artificial columns, %d pricing ties, %d Bland picks; Devex: %d by row, %d by column, %d kept, %d reset by a touched column, %d by pend; %d scans with several breakpoints",
		pivots, dualPivots, arts, ties, blandPicks, rowDevex, colDevex, keeps, resets, pendResets, multiCand)
	for _, n := range []int{pivots, dualPivots, arts, ties, blandPicks, rowDevex, colDevex, keeps, resets, pendResets, multiCand} {
		if n == 0 {
			t.Fatal("the generator lost one of its cases")
		}
	}
}

// priceScore is column j's Devex pricing score d_j²/γ_j.
func priceScore(s *spx, c []float64, j int) float64 {
	d := s.reducedCost(c, j)
	return d * d / s.gamma[j]
}

// blandChain is an LP on which the primal enters Bland mode and
// recovers. One row holds a chain of 60 columns whose coefficients fall
// geometrically: each pivot's most attractive column is the next one,
// and every pivot is degenerate, at the origin, so the 57th exceeds the
// 3m+50 = 56 degenerate pivots after which primal prices by Bland's
// rule. The 12 boxed columns after the chain have no row entries and
// small costs: each flips to its upper bound, nondegenerately, and the
// 8th flip returns pricing to Devex. Column 72 then enters in the second
// row, a Devex pivot.
func blandChain() *Problem {
	const chain, boxed = 60, 12
	p := NewProblem(chain + boxed + 2)
	var row RowDef
	for j := 0; j < chain; j++ {
		a := math.Pow(2.5, float64(chain-1-j))
		p.Obj[j] = -float64(j+1) * a
		row.Coefs = append(row.Coefs, Coef{Var: j, Val: a})
	}
	p.Rows = append(p.Rows, row)
	for k := chain; k < chain+boxed; k++ {
		p.Obj[k], p.Ub[k] = -0.1, 1
	}
	q := chain + boxed
	p.Obj[q], p.Obj[q+1] = -0.5, -0.4
	p.Rows = append(p.Rows, RowDef{Coefs: []Coef{{Var: q, Val: 0.5}, {Var: q + 1, Val: 1}}, Sense: LE, RHS: 1})
	return p
}

// TestBlandModeRecovers: on blandChain the primal enters Bland mode,
// picks through the labelled exit of the pricing walk, recovers after 8
// nondegenerate steps with every Devex weight reset to 1, and then
// prices by Devex again. The solve reaches the optimum, iteration count
// and point that the full-scan pricing reached (pinned from it).
func TestBlandModeRecovers(t *testing.T) {
	p := blandChain()
	res := Prepare(p).Solve(p.Lb, p.Ub, Options{})
	if res.Status != Optimal || res.Iters != 73 || math.Float64bits(res.Obj) != 0xc00199999999999a {
		t.Fatalf("status %v, %d iterations, objective %v (%#x); the full scans reached optimal in 73, -2.2 (0xc00199999999999a)",
			res.Status, res.Iters, res.Obj, math.Float64bits(res.Obj))
	}
	for j, x := range res.X {
		want := 0.0
		switch {
		case j >= 60 && j < 72:
			want = 1
		case j == 72:
			want = 2
		}
		if math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("x[%d] = %v, want %v", j, x, want)
		}
	}
	// Stop the primal right after the recovery (60 pivots and 8 flips),
	// then after the Devex pivot that follows it.
	s := Prepare(p).workspace(&Options{})
	for _, tc := range []struct {
		iters int
		basis []int
		gamma map[int]float64 // weights other than 1
	}{
		{68, []int{59, 75}, nil},
		// Column 72 replaces the slack of row 2 (column 75) with α = 0.5:
		// the leaving column's weight is 1/0.5², and column 73 (α = 1 in
		// the pivot row) takes 1²·4.
		{69, []int{59, 72}, map[int]float64{73: 4, 75: 4}},
	} {
		s.resetBounds(p.Lb, p.Ub)
		s.coldStart()
		if st, it := s.primal(s.obj2, tc.iters); st != IterLimit || it != tc.iters {
			t.Fatalf("primal(%d): %v after %d iterations", tc.iters, st, it)
		}
		if !slices.Equal(s.basis, tc.basis) {
			t.Fatalf("after %d iterations: basis %v, want %v", tc.iters, s.basis, tc.basis)
		}
		for j, g := range s.gamma[:s.n] {
			want, ok := tc.gamma[j]
			if !ok {
				want = 1
			}
			if g != want {
				t.Fatalf("after %d iterations: γ[%d] = %v, want %v", tc.iters, j, g, want)
			}
		}
	}
}

package lp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// ftranRef and btranRef are the textbook FTRAN/BTRAN loops, indexing the
// factor fields directly. The production kernels reslice into locals to
// drop bounds checks and fuse two right-hand sides; they must apply the
// same floating-point operations in the same order, so they are checked
// against these bit for bit.
func ftranRef(f *luFactor, b, w []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		bk := b[f.prow[k]]
		if bk == 0 {
			continue
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			b[f.lRow[t]] -= f.lVal[t] * bk
		}
	}
	for k := m - 1; k >= 0; k-- {
		v := b[f.prow[k]]
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			v -= f.uVal[t] * w[f.uCol[t]]
		}
		w[f.pcol[k]] = v / f.upiv[k]
	}
	for e := 0; e < len(f.eLeave); e++ {
		lv := f.eLeave[e]
		t := w[lv]
		if t == 0 {
			continue
		}
		t /= f.ePiv[e]
		for q := f.ePtr[e]; q < f.ePtr[e+1]; q++ {
			w[f.eIdx[q]] -= f.eVal[q] * t
		}
		w[lv] = t
	}
}

func btranRef(f *luFactor, c, y []float64) {
	m := f.m
	for e := len(f.eLeave) - 1; e >= 0; e-- {
		lv := f.eLeave[e]
		v := c[lv]
		for q := f.ePtr[e]; q < f.ePtr[e+1]; q++ {
			v -= f.eVal[q] * c[f.eIdx[q]]
		}
		c[lv] = v / f.ePiv[e]
	}
	zs := make([]float64, m)
	for k := 0; k < m; k++ {
		cpos := f.pcol[k]
		v := c[cpos]
		for q := f.ucPtr[cpos]; q < f.ucPtr[cpos+1]; q++ {
			v -= f.ucVal[q] * zs[f.ucStage[q]]
		}
		zs[k] = v / f.upiv[k]
	}
	for k := 0; k < m; k++ {
		y[f.prow[k]] = zs[k]
	}
	for k := m - 1; k >= 0; k-- {
		v := y[f.prow[k]]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			v -= f.lVal[t] * y[f.lRow[t]]
		}
		y[f.prow[k]] = v
	}
}

// sameBits reports whether a and b agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelRHS returns a right-hand side for the kernel tests: a unit
// vector (the leaving-row BTRAN) or a dense vector of mixed-scale
// values (the duals BTRAN and the flip FTRAN).
func kernelRHS(rng *rand.Rand, m int, unit bool) []float64 {
	c := make([]float64, m)
	if unit {
		c[rng.Intn(m)] = 1
		return c
	}
	for i := range c {
		if rng.Float64() < 0.7 {
			c[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return c
}

// appendRandomEta replaces a random basis position with a random sparse
// column, retrying until its FTRAN image has a usable pivot.
func appendRandomEta(rng *rand.Rand, f *luFactor) {
	m := f.m
	w := make([]float64, m)
	for {
		col := make([]float64, m)
		for i := range col {
			if rng.Float64() < 0.3 {
				col[i] = float64(rng.Intn(9)-4) + rng.Float64()
			}
		}
		leave := rng.Intn(m)
		f.ftran(col, w, nzOf(col))
		if math.Abs(w[leave]) >= 1e-3 {
			f.appendEta(leave, w)
			return
		}
	}
}

// withInf returns col with one entry of one column replaced by +Inf.
func withInf(rng *rand.Rand, m int, col func(int) ([]int32, []float64)) func(int) ([]int32, []float64) {
	pos := rng.Intn(m)
	idx, vals := col(pos)
	vals = slices.Clone(vals)
	vals[rng.Intn(len(vals))] = math.Inf(1)
	return func(p int) ([]int32, []float64) {
		if p == pos {
			return idx, vals
		}
		return col(p)
	}
}

// refReach returns the number of stages a U pass must run for a
// right-hand side: FTRAN's for one nonzero only at rows nz, through the
// L pass, or BTRAN's for one nonzero only at positions nz after the eta
// pass. A stage must run when it is a seed or reads a stage that runs,
// whatever the values.
func refReach(f *luFactor, nz []int32, ftran bool) int {
	m := f.m
	live := make([]bool, m)
	n := 0
	if ftran {
		row := make([]bool, m)
		for _, r := range nz {
			row[r] = true
		}
		for k := 0; k < m; k++ {
			if row[f.prow[k]] {
				for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
					row[f.lRow[t]] = true
				}
			}
		}
		stageOfPos := make([]int, m)
		for k := 0; k < m; k++ {
			stageOfPos[f.pcol[k]] = k
		}
		for k := m - 1; k >= 0; k-- {
			live[k] = row[f.prow[k]]
			for t := f.uPtr[k]; t < f.uPtr[k+1] && !live[k]; t++ {
				live[k] = live[stageOfPos[f.uCol[t]]]
			}
		}
	} else {
		pos := make([]bool, m)
		for _, p := range nz {
			pos[p] = true
		}
		for k := 0; k < m; k++ {
			c := f.pcol[k]
			live[k] = pos[c]
			for q := f.ucPtr[c]; q < f.ucPtr[c+1] && !live[k]; q++ {
				live[k] = live[f.ucStage[q]]
			}
		}
	}
	for _, l := range live {
		if l {
			n++
		}
	}
	return n
}

// kernelCheck counts the right-hand sides TestKernelsMatchReferenceBitwise
// saw reach each side of the U passes' cut-offs.
type kernelCheck struct {
	sparseF, fullF, sparseB, fullB int
	nonFinite                      int // factors holding a non-finite value
}

// check compares ftran and btran on b with the textbook loops: their
// full passes (no FTRAN pattern, a BTRAN pattern of every position) bit
// for bit, their sparse passes (b's own pattern) on every nonzero bit for
// bit and on every zero as a zero. A factor holding a non-finite value
// must take the full U passes, so its sparse FTRAN (whose eta pass is
// always full) matches bit for bit too.
func (kc *kernelCheck) check(f *luFactor, b []float64) error {
	m := f.m
	want, full, got := make([]float64, m), make([]float64, m), make([]float64, m)
	sparseMatches := matchesFull
	if f.luNonFinite {
		sparseMatches = sameBits
	}
	ftranRef(f, slices.Clone(b), want)
	f.ftran(slices.Clone(b), full, nil)
	f.ftran(slices.Clone(b), got, nzOf(b))
	if !sameBits(full, want) || !sparseMatches(got, want) {
		return fmt.Errorf("ftran differs from the reference (full pass %v)", sameBits(full, want))
	}
	if refReach(f, nzOf(b), true) <= m/ftranReachDiv {
		kc.sparseF++
	} else {
		kc.fullF++
	}
	btranRef(f, slices.Clone(b), want)
	f.btran(slices.Clone(b), full, allPositions(m))
	f.btran(slices.Clone(b), got, nzOf(b))
	if !sameBits(full, want) || !matchesFull(got, want) {
		return fmt.Errorf("btran differs from the reference (full pass %v)", sameBits(full, want))
	}
	if refReach(f, f.btranEtas(slices.Clone(b), nzOf(b), 0, f.nEtas()), false) <= m/btranReachDiv {
		kc.sparseB++
	} else {
		kc.fullB++
	}
	return nil
}

// TestKernelsMatchReferenceBitwise: on random sparse bases carrying etas,
// ftran and btran equal the textbook loops (see kernelCheck.check) on
// right-hand sides from one entry to dense, and btran2 equals two btran
// calls: with lag 0 on the same factor, with lag 1 on the factor before
// the newest eta for the first right-hand side, bit for bit on the full
// passes and up to the sign of a zero on the sparse ones. The factors
// come in three kinds: small and 15% dense with 0 to refactorEvery etas
// (most reaches pass the cut-off), larger with about two entries per
// column and 0 to 24 etas (most reaches stay under it), and the latter
// with a +Inf entry, whose factor takes the full passes.
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var kc kernelCheck
	for trial := 0; trial < 36; trial++ {
		kind := trial % 3
		m, density, maxEtas := 5+rng.Intn(40), 0.15, refactorEvery
		if kind > 0 {
			m, maxEtas = 40+rng.Intn(160), 24
			density = 2 / float64(m)
		}
		_, col := randomSparseMatrix(rng, m, density)
		if kind == 2 {
			col = withInf(rng, m, col)
		}
		f := newLUFactor(m)
		if !f.factor(col) {
			continue
		}
		if f.luNonFinite != (kind == 2) {
			t.Fatalf("trial %d: non-finite flag %v on a factor of kind %d", trial, f.luNonFinite, kind)
		}
		if kind == 2 {
			kc.nonFinite++
		}
		// pre holds btran of the previous factor state for the lag check,
		// per right-hand side.
		var preC [2][]float64
		var preY, preFull [2][]float64
		for ne := 0; ne <= maxEtas; ne++ {
			if ne > 0 {
				for s := range preC {
					preC[s] = kernelRHS(rng, m, s == 0)
					preY[s], preFull[s] = make([]float64, m), make([]float64, m)
					f.btran(slices.Clone(preC[s]), preY[s], nzOf(preC[s]))
					f.btran(slices.Clone(preC[s]), preFull[s], allPositions(m))
				}
				appendRandomEta(rng, f)
			}
			for _, b := range [][]float64{kernelRHS(rng, m, true), fewRHS(rng, m), sparseRHS(rng, m), kernelRHS(rng, m, false)} {
				if err := kc.check(f, b); err != nil {
					t.Fatalf("trial %d m=%d etas=%d: %v", trial, m, ne, err)
				}
			}
			c1, c2 := kernelRHS(rng, m, true), kernelRHS(rng, m, false)
			if rng.Intn(2) == 0 {
				c2 = fewRHS(rng, m)
			}
			want1, want2 := make([]float64, m), make([]float64, m)
			full1, full2 := make([]float64, m), make([]float64, m)
			f.btran(slices.Clone(c1), want1, nzOf(c1))
			f.btran(slices.Clone(c2), want2, nzOf(c2))
			f.btran(slices.Clone(c1), full1, allPositions(m))
			f.btran(slices.Clone(c2), full2, allPositions(m))
			y1, y2 := make([]float64, m), make([]float64, m)
			f.btran2(slices.Clone(c1), y1, slices.Clone(c2), y2, 0, allPositions(m))
			if !sameBits(y1, full1) || !sameBits(y2, full2) {
				t.Fatalf("trial %d m=%d etas=%d: btran2's full passes differ from two btran calls", trial, m, ne)
			}
			f.btran2(slices.Clone(c1), y1, slices.Clone(c2), y2, 0, nzOf(c1, c2))
			if !matchesFull(y1, want1) || !matchesFull(y2, want2) {
				t.Fatalf("trial %d m=%d etas=%d: btran2 differs from two btran calls", trial, m, ne)
			}
			if ne == 0 {
				continue
			}
			// Lag 1: the first side sees the factor before the newest eta.
			for s := range preC {
				f.btran2(slices.Clone(preC[s]), y1, slices.Clone(c2), y2, 1, allPositions(m))
				if !sameBits(y1, preFull[s]) || !sameBits(y2, full2) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: lagged btran2's full passes differ from btran on the pre- and post-pivot factors", trial, m, ne, s == 0)
				}
				f.btran2(slices.Clone(preC[s]), y1, slices.Clone(c2), y2, 1, nzOf(preC[s], c2))
				if !matchesFull(y1, preY[s]) || !matchesFull(y2, want2) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: lagged btran2 differs from btran on the pre- and post-pivot factors", trial, m, ne, s == 0)
				}
			}
		}
	}
	t.Logf("right-hand sides reaching under/over the cut-off: FTRAN %d/%d, BTRAN %d/%d", kc.sparseF, kc.fullF, kc.sparseB, kc.fullB)
	if kc.sparseF < 100 || kc.fullF < 100 || kc.sparseB < 100 || kc.fullB < 100 || kc.nonFinite < 5 {
		t.Fatalf("generator lost its cases: FTRAN %d/%d, BTRAN %d/%d, %d non-finite factors",
			kc.sparseF, kc.fullF, kc.sparseB, kc.fullB, kc.nonFinite)
	}
}

// fewRHS returns a right-hand side with two to five nonzeros of both
// signs, and a −0 entry.
func fewRHS(rng *rand.Rand, m int) []float64 {
	c := make([]float64, m)
	for k := 2 + rng.Intn(4); k > 0; k-- {
		c[rng.Intn(m)] = rng.NormFloat64()
	}
	c[rng.Intn(m)] = math.Copysign(0, -1)
	return c
}

// ratioTestTwoPassRef is the Harris two-pass primal ratio test at band
// zero, the form ratioTest collapses: pass 1 takes the smallest ratio
// with every blocking bound widened by band·max(1,|bound|), pass 2 the
// largest |α| among rows whose exact ratio fits under that limit. It also
// reports the unbounded verdict, which it takes from the pass-1 limit.
func ratioTestTwoPassRef(s *spx, w []float64, dir, tFlip float64) (tMax float64, leave int, toUpper, unbounded bool) {
	band := 0.0
	tMax, leave = tFlip, -1
	tLim := tFlip
	for i := range w {
		delta := -dir * w[i]
		if delta > eps {
			bi := s.basis[i]
			if ub := s.ub[bi]; !math.IsInf(ub, 1) {
				if t := (ub - s.x[bi] + band*boundScale(ub)) / delta; t < tLim {
					tLim = t
				}
			}
		} else if delta < -eps {
			bi := s.basis[i]
			if lb := s.lb[bi]; !math.IsInf(lb, -1) {
				if t := (lb - s.x[bi] - band*boundScale(lb)) / delta; t < tLim {
					tLim = t
				}
			}
		}
	}
	if math.IsInf(tLim, 1) {
		return tMax, leave, toUpper, true
	}
	bestPiv := 0.0
	for i := range w {
		delta := -dir * w[i]
		if delta > eps {
			bi := s.basis[i]
			if ub := s.ub[bi]; !math.IsInf(ub, 1) {
				if t := (ub - s.x[bi]) / delta; t <= tLim && delta > bestPiv {
					bestPiv, tMax, leave, toUpper = delta, t, i, true
				}
			}
		} else if delta < -eps {
			bi := s.basis[i]
			if lb := s.lb[bi]; !math.IsInf(lb, -1) {
				if t := (lb - s.x[bi]) / delta; t <= tLim && -delta > bestPiv {
					bestPiv, tMax, leave, toUpper = -delta, t, i, false
				}
			}
		}
	}
	if leave < 0 {
		tMax = tFlip
	}
	return tMax, leave, toUpper, math.IsInf(tMax, 1)
}

// TestRatioTestMatchesTwoPassBitwise pins the one-pass primal ratio test
// to the two-pass zero-band reference on inputs built to hit its edge
// cases: exact ratio ties at different |α| (power-of-two gaps and
// pivots), ±0 ratios (bounds and values of both zero signs), rows whose
// ratio equals the bound-flip distance, infinite bounds and flips, and
// pivots at exactly ±eps (ineligible) or one ulp above it.
func TestRatioTestMatchesTwoPassBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	zeros := []float64{0, negZero}
	pivots := []float64{0, eps, math.Nextafter(eps, 1), 0.25, 0.5, 1, 2, 4}
	gaps := []float64{0, 0.5, 1, 2, 4, 8}
	pick := func(vals []float64) float64 { return vals[rng.Intn(len(vals))] }
	ties, flipTies, negZeroRatios, flips := 0, 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		m := 1 + rng.Intn(10)
		s := &spx{
			m: m, basis: make([]int, m),
			x: make([]float64, m), lb: make([]float64, m), ub: make([]float64, m),
		}
		w := make([]float64, m)
		for i := 0; i < m; i++ {
			s.basis[i] = m - 1 - i // basis position ≠ column index
			bi := s.basis[i]
			x := pick(zeros)
			if rng.Intn(3) == 0 {
				x = float64(rng.Intn(5) - 2)
			}
			s.x[bi] = x
			s.lb[bi], s.ub[bi] = x-pick(gaps), x+pick(gaps)
			if s.lb[bi] == 0 {
				s.lb[bi] = pick(zeros)
			}
			if s.ub[bi] == 0 {
				s.ub[bi] = pick(zeros)
			}
			switch rng.Intn(5) {
			case 0:
				s.lb[bi] = math.Inf(-1)
			case 1:
				s.ub[bi] = math.Inf(1)
			}
			w[i] = pick(pivots)
			if rng.Intn(2) == 0 {
				w[i] = -w[i]
			}
		}
		dir := 1.0
		if rng.Intn(2) == 0 {
			dir = -1
		}
		tFlip := pick(gaps) / pick(pivots[3:])
		switch rng.Intn(4) {
		case 0:
			tFlip = math.Inf(1)
		case 1:
			tFlip = pick(zeros)
		}

		gotT, gotLeave, gotUp := s.ratioTest(w, dir, tFlip)
		wantT, wantLeave, wantUp, wantUnb := ratioTestTwoPassRef(s, w, dir, tFlip)
		if gotUnb := math.IsInf(gotT, 1); gotUnb != wantUnb {
			t.Fatalf("trial %d: unbounded=%v want %v (w=%v dir=%v tFlip=%v)", trial, gotUnb, wantUnb, w, dir, tFlip)
		}
		if wantUnb {
			continue // the caller returns Unbounded; the step is unused
		}
		if math.Float64bits(gotT) != math.Float64bits(wantT) || gotLeave != wantLeave || gotUp != wantUp {
			t.Fatalf("trial %d: got (t=%v leave=%d up=%v) want (t=%v leave=%d up=%v)\nw=%v dir=%v tFlip=%v x=%v lb=%v ub=%v",
				trial, gotT, gotLeave, gotUp, wantT, wantLeave, wantUp, w, dir, tFlip, s.x, s.lb, s.ub)
		}
		// Coverage of the edge cases the generator exists for.
		if wantLeave < 0 {
			flips++
		} else {
			if wantT == tFlip {
				flipTies++
			}
			if wantT == 0 && math.Signbit(wantT) {
				negZeroRatios++
			}
			for i := range w {
				if i != wantLeave && math.Abs(w[i]) != math.Abs(w[wantLeave]) && rowBlocksAt(s, w, dir, i, wantT) {
					ties++
					break
				}
			}
		}
	}
	t.Logf("%d |α| ties, %d flip ties, %d −0 ratios, %d bound flips", ties, flipTies, negZeroRatios, flips)
	if ties < 500 || flipTies < 100 || negZeroRatios < 100 || flips < 500 {
		t.Fatalf("generator lost its edge cases: %d |α| ties, %d flip ties, %d −0 ratios, %d bound flips",
			ties, flipTies, negZeroRatios, flips)
	}
}

// rowBlocksAt reports whether row i blocks the move at exactly ratio t.
func rowBlocksAt(s *spx, w []float64, dir float64, i int, t float64) bool {
	bi := s.basis[i]
	switch delta := -dir * w[i]; {
	case delta > eps && !math.IsInf(s.ub[bi], 1):
		return (s.ub[bi]-s.x[bi])/delta == t
	case delta < -eps && !math.IsInf(s.lb[bi], -1):
		return (s.lb[bi]-s.x[bi])/delta == t
	}
	return false
}

// sparseRHS returns a BTRAN right-hand side of density 0–5% whose zeros
// include about as many −0 entries as there are nonzeros: a −0 is not in
// the pattern, so the sparse pass skips its products.
func sparseRHS(rng *rand.Rand, m int) []float64 {
	c := make([]float64, m)
	density := 0.05 * rng.Float64()
	for i := range c {
		switch u := rng.Float64(); {
		case u < density:
			c[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		case u < 2*density:
			c[i] = math.Copysign(0, -1)
		}
	}
	return c
}

// matchesFull reports whether got equals want, the full eta pass's
// output, as the sparse pass promises: every nonzero (NaN included) bit
// for bit, every zero as a zero of either sign.
func matchesFull(got, want []float64) bool {
	for i, w := range want {
		if w != 0 && math.Float64bits(got[i]) != math.Float64bits(w) || w == 0 && got[i] != 0 {
			return false
		}
	}
	return true
}

// sparseEtaCheck accumulates what checkSparseEtaPass saw.
type sparseEtaCheck struct {
	terms, fullTerms int64 // eta entries the sparse pass visited, and the full pass's count
	nanOutputs       int   // solves whose reference output holds a NaN
}

// check solves c1 with btran and (c1, c2) with btran2 at lag 0 and, when
// f has an eta, lag 1, and compares each with the full-pass reference.
func (sc *sparseEtaCheck) check(f *luFactor, c1, c2 []float64) error {
	m := f.m
	ne := f.nEtas()
	y, want := make([]float64, m), make([]float64, m)
	before := f.etaTerms
	f.btran(slices.Clone(c1), y, nzOf(c1))
	sc.terms += f.etaTerms - before
	sc.fullTerms += int64(f.ePtr[ne])
	f.btranFull(slices.Clone(c1), want)
	if !matchesFull(y, want) {
		return fmt.Errorf("btran differs from the full pass (m=%d, %d etas)", m, ne)
	}
	if slices.ContainsFunc(want, math.IsNaN) {
		sc.nanOutputs++
	}
	for lag := 0; lag <= min(1, ne); lag++ {
		y1, y2 := make([]float64, m), make([]float64, m)
		want1, want2 := make([]float64, m), make([]float64, m)
		before := f.etaTerms
		f.btran2(slices.Clone(c1), y1, slices.Clone(c2), y2, lag, nzOf(c1, c2))
		sc.terms += f.etaTerms - before
		sc.fullTerms += int64(f.ePtr[ne])
		f.btran2Full(slices.Clone(c1), want1, slices.Clone(c2), want2, lag)
		if !matchesFull(y1, want1) || !matchesFull(y2, want2) {
			return fmt.Errorf("btran2 at lag %d differs from the full pass (m=%d, %d etas)", lag, m, ne)
		}
	}
	return nil
}

// TestSparseEtaPassMatchesFullPass: on random sparse factors carrying 0
// to 40 etas, btran and btran2 (lags 0 and 1) on right-hand sides of
// density 0–5% with −0 entries equal the full eta pass up to the sign of
// a zero. Every third factor gets one eta holding +Inf, −Inf or NaN,
// whose products at zero positions are NaN and must not be skipped.
func TestSparseEtaPassMatchesFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sc sparseEtaCheck
	for trial := 0; trial < 30; trial++ {
		m := 20 + rng.Intn(120)
		_, col := randomSparseMatrix(rng, m, 2/float64(m))
		f := newLUFactor(m)
		if !f.factor(col) {
			continue
		}
		bad := -1
		if trial%3 == 0 {
			bad = rng.Intn(40)
		}
		for ne := 0; ne <= 40; ne++ {
			if ne > 0 {
				appendRandomEta(rng, f)
			}
			if ne == bad {
				// Replace the newest eta's first entry by a non-finite value.
				nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
				if ne == 0 {
					appendRandomEta(rng, f)
				}
				e := f.nEtas() - 1
				f.eVal[f.ePtr[e]] = nonFinite[rng.Intn(3)]
				f.eNonFinite[e] = true
			}
			for _, unit := range []bool{true, false} {
				c1 := sparseRHS(rng, m)
				if unit {
					c1 = kernelRHS(rng, m, true)
				}
				if err := sc.check(f, c1, sparseRHS(rng, m)); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
	}
	t.Logf("sparse pass visited %d of %d eta entries; %d solves had a NaN output", sc.terms, sc.fullTerms, sc.nanOutputs)
	if sc.terms*2 > sc.fullTerms || sc.nanOutputs == 0 {
		t.Fatalf("generator lost its cases: %d of %d eta entries visited, %d NaN outputs", sc.terms, sc.fullTerms, sc.nanOutputs)
	}
}

// TestAppendEtaPatternIndex: the pattern index finds every eta entry by
// position, and flags exactly the etas holding a non-finite value.
func TestAppendEtaPatternIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := 150 // spans three index words, the last one partial
	f := newLUFactor(m)
	for e := 0; e < 20; e++ {
		w := make([]float64, m)
		for i := range w {
			if rng.Float64() < 0.3 {
				w[i] = rng.NormFloat64()
			}
		}
		leave := rng.Intn(m)
		w[leave] = 1
		if e%5 == 4 {
			w[(leave+1+rng.Intn(m-1))%m] = math.Inf(1)
		}
		f.appendEta(leave, w)
		words, rank := f.etaAt(e)
		for i, v := range w {
			wd, bit := words[i>>6], uint64(1)<<(i&63)
			set := wd&bit != 0
			if set != (v != 0 && i != leave) {
				t.Fatalf("eta %d position %d: bit %v for value %g (leave %d)", e, i, set, v, leave)
			}
			if set {
				if got := f.eVal[rank[i>>6]+int32(bits.OnesCount64(wd&(bit-1)))]; got != v {
					t.Fatalf("eta %d position %d: index finds %g, want %g", e, i, got, v)
				}
			}
		}
		if f.eNonFinite[e] != (e%5 == 4) {
			t.Fatalf("eta %d: non-finite flag %v", e, f.eNonFinite[e])
		}
	}
	f.truncateEtas(7)
	if len(f.eBits) != 7*f.nw || len(f.eRank) != 7*f.nw || len(f.eNonFinite) != 7 {
		t.Fatalf("truncateEtas(7) left %d words, %d ranks, %d flags", len(f.eBits), len(f.eRank), len(f.eNonFinite))
	}
}

// bfrtGroupsRef is the BFRT order the lazy one replaces: a stable sort
// of the candidates by ratio, cut into groups wherever the ratio rises.
func bfrtGroupsRef(ratio []float64) [][]int {
	idx := make([]int, len(ratio))
	for k := range idx {
		idx[k] = k
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch ra, rb := ratio[a], ratio[b]; {
		case ra < rb:
			return -1
		case ra > rb:
			return 1
		}
		return 0
	})
	var groups [][]int
	for pos := 0; pos < len(idx); {
		lim := ratio[idx[pos]]
		end := pos + 1
		for end < len(idx) && ratio[idx[end]] <= lim {
			end++
		}
		groups = append(groups, idx[pos:end])
		pos = end
	}
	return groups
}

// TestBFRTOrderMatchesStableSort: the lazy BFRT order hands out exactly
// the groups of the stable sort, in order, while the walk overwrites
// each group it was given; a NaN ratio takes the sort itself.
func TestBFRTOrderMatchesStableSort(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		name  string
		ratio []float64
	}{
		{"empty", nil},
		{"one", []float64{3}},
		{"distinct", []float64{3, 1, 2, 0.5, 4}},
		{"ties", []float64{1, 0.5, 1, 0.5, 2, 1, 0.5}},
		{"all tied", []float64{2, 2, 2, 2}},
		{"−0 next to +0", []float64{1, 0, negZero, 0, negZero, 1}},
		{"+Inf", []float64{inf, 1, inf, 0, inf}},
		{"NaN", []float64{1, nan, 0.5, 0.5, 0}},
		{"NaN first and tied", []float64{nan, 0, 0, nan, 1, 0}},
	}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 40; n++ {
		vals := []float64{0, negZero, 0.25, 0.5, 1, inf}
		r := make([]float64, 1+rng.Intn(200))
		for i := range r {
			r[i] = vals[rng.Intn(len(vals))]
		}
		if n%4 == 3 {
			r[rng.Intn(len(r))] = nan
		}
		cases = append(cases, struct {
			name  string
			ratio []float64
		}{fmt.Sprintf("random %d", n), r})
	}
	var o bfrtOrder
	for _, tc := range cases {
		want := bfrtGroupsRef(tc.ratio)
		hasNaN := slices.ContainsFunc(tc.ratio, math.IsNaN)
		o.reset(tc.ratio, hasNaN)
		if o.sorted != hasNaN {
			t.Fatalf("%s: sorted=%v with NaN=%v", tc.name, o.sorted, hasNaN)
		}
		for gi := 0; ; gi++ {
			g := o.next()
			if gi == len(want) {
				if g != nil {
					t.Fatalf("%s: extra group %v", tc.name, g)
				}
				break
			}
			if !slices.Equal(g, want[gi]) {
				t.Fatalf("%s: group %d = %v, want %v", tc.name, gi, g, want[gi])
			}
			for q := range g {
				g[q] = -1 // the walk marks flipped members
			}
		}
	}
}

// randomPriceProblem returns a random sparse LP whose rows may repeat a
// variable and whose equality rows with a nonzero right-hand side give
// the cold start artificial columns.
func randomPriceProblem(rng *rand.Rand) *Problem {
	n, m := 5+rng.Intn(60), 3+rng.Intn(40)
	p := NewProblem(n)
	for j := range p.Obj {
		p.Obj[j] = float64(rng.Intn(7) - 3)
	}
	for i := 0; i < m; i++ {
		var row RowDef
		for k := 1 + rng.Intn(6); k > 0; k-- {
			row.Coefs = append(row.Coefs, Coef{Var: rng.Intn(n), Val: rng.NormFloat64()})
		}
		if rng.Intn(3) == 0 { // a variable repeated in the row
			row.Coefs = append(row.Coefs, Coef{Var: row.Coefs[0].Var, Val: rng.NormFloat64()})
		}
		row.Sense = Sense(rng.Intn(3))
		row.RHS = float64(rng.Intn(5) - 2)
		p.Rows = append(p.Rows, row)
	}
	return p
}

// priceVector returns a PRICE input over m rows: a unit vector, a
// vector 0–30% dense with −0 entries, or a dense one.
func priceVector(rng *rand.Rand, m int) []float64 {
	switch rng.Intn(3) {
	case 0:
		return kernelRHS(rng, m, true)
	case 1:
		v := make([]float64, m)
		density := 0.3 * rng.Float64()
		for i := range v {
			switch u := rng.Float64(); {
			case u < density:
				v[i] = rng.NormFloat64()
			case u < 2*density:
				v[i] = math.Copysign(0, -1)
			}
		}
		return v
	}
	return kernelRHS(rng, m, false)
}

// TestRowPriceMatchesColumnPrice: on random LPs after a cold start,
// artificial columns included, row-wise PRICE over a vector's nonzero
// rows equals the column-wise products for every column: reduced costs
// on every nonzero bit for bit and on every zero as a zero, pivot-row
// entries bit for bit. An instance with a non-finite coefficient never
// prices by row.
func TestRowPriceMatchesColumnPrice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	arts, repeats, byRow := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		p := randomPriceProblem(rng)
		in := Prepare(p)
		s := in.workspace(&Options{})
		if !s.resetBounds(p.Lb, p.Ub) {
			t.Fatalf("trial %d: empty bounds", trial)
		}
		s.coldStart()
		arts += s.nArt
		for _, row := range p.Rows {
			if len(row.Coefs) > 1 && row.Coefs[len(row.Coefs)-1].Var == row.Coefs[0].Var {
				repeats++
			}
		}
		c := make([]float64, s.n)
		for j := range c {
			switch rng.Intn(4) {
			case 0:
			case 1:
				c[j] = math.Copysign(0, -1)
			default:
				c[j] = rng.NormFloat64()
			}
		}
		for round := 0; round < 4; round++ {
			y, rho := priceVector(rng, s.m), priceVector(rng, s.m)
			copy(s.y, y)
			if s.priceByRow(y) {
				byRow++
			}
			s.priceRows = nzOf(y)
			s.rowReducedCosts(c)
			for j := 0; j < s.n; j++ {
				if want := s.reducedCost(c, j); !matchesFull(s.dj[j:j+1], []float64{want}) {
					t.Fatalf("trial %d column %d of %d: row-wise d = %v, column-wise %v", trial, j, s.n, s.dj[j], want)
				}
			}
			s.priceRows = nzOf(rho)
			s.rowAlphas(rho)
			for j := 0; j < s.n; j++ {
				if want := s.alpha(rho, j); math.Float64bits(s.dj[j]) != math.Float64bits(want) {
					t.Fatalf("trial %d column %d of %d: row-wise α = %v, column-wise %v", trial, j, s.n, s.dj[j], want)
				}
				// Every artificial column is marked touched, and every
				// other column that is not holds +0.
				if s.touched[j>>6]>>(j&63)&1 == 0 && (j >= s.nTot || math.Float64bits(s.dj[j]) != 0) {
					t.Fatalf("trial %d column %d of %d: α = %v but not marked touched", trial, j, s.n, s.dj[j])
				}
			}
			clear(s.touched)
		}
		p.Rows[0].Coefs[0].Val = math.Inf(1)
		if s := Prepare(p).workspace(&Options{}); s.priceByRow(kernelRHS(rng, s.m, true)) {
			t.Fatalf("trial %d: an instance with an Inf coefficient prices by row", trial)
		}
	}
	t.Logf("%d artificial columns, %d rows repeating a variable, %d of 800 inputs priced by row", arts, repeats, byRow)
	if arts == 0 || repeats == 0 || byRow == 0 || byRow == 800 {
		t.Fatalf("generator lost its cases: %d artificial columns, %d repeated variables, %d inputs priced by row", arts, repeats, byRow)
	}
}

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
		f.ftran(col, w)
		if math.Abs(w[leave]) >= 1e-3 {
			f.appendEta(leave, w)
			return
		}
	}
}

// TestKernelsMatchReferenceBitwise: on random sparse bases carrying 0 to
// refactorEvery etas, ftran and btran equal the textbook loops
// bit for bit; btran2 with lag 0 equals two btran calls; and btran2 with
// lag 1 gives btran on the factor before the newest eta for the first
// right-hand side and btran on the current factor for the second.
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 12; trial++ {
		m := 5 + rng.Intn(40)
		_, col := randomSparseMatrix(rng, m, 0.15)
		f := newLUFactor(m)
		if !f.factor(col) {
			continue
		}
		// pre holds btran of the previous factor state for the lag check,
		// per right-hand side.
		var preC [2][]float64
		var preY [2][]float64
		for ne := 0; ne <= refactorEvery; ne++ {
			if ne > 0 {
				for s := range preC {
					preC[s] = kernelRHS(rng, m, s == 0)
					preY[s] = make([]float64, m)
					f.btran(append([]float64(nil), preC[s]...), preY[s], nzOf(preC[s]))
				}
				appendRandomEta(rng, f)
			}
			for _, unit := range []bool{true, false} {
				b := kernelRHS(rng, m, unit)
				got, want := make([]float64, m), make([]float64, m)
				f.ftran(append([]float64(nil), b...), got)
				ftranRef(f, append([]float64(nil), b...), want)
				if !sameBits(got, want) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: ftran differs from the reference", trial, m, ne, unit)
				}
				f.btran(append([]float64(nil), b...), got, nzOf(b))
				btranRef(f, append([]float64(nil), b...), want)
				if !sameBits(got, want) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: btran differs from the reference", trial, m, ne, unit)
				}
			}
			c1, c2 := kernelRHS(rng, m, true), kernelRHS(rng, m, false)
			want1, want2 := make([]float64, m), make([]float64, m)
			f.btran(append([]float64(nil), c1...), want1, nzOf(c1))
			f.btran(append([]float64(nil), c2...), want2, nzOf(c2))
			y1, y2 := make([]float64, m), make([]float64, m)
			f.btran2(append([]float64(nil), c1...), y1, append([]float64(nil), c2...), y2, 0, nzOf(c1, c2))
			if !sameBits(y1, want1) || !sameBits(y2, want2) {
				t.Fatalf("trial %d m=%d etas=%d: btran2 differs from two btran calls", trial, m, ne)
			}
			if ne == 0 {
				continue
			}
			// Lag 1: the first side sees the factor before the newest eta.
			for s := range preC {
				y1, y2 := make([]float64, m), make([]float64, m)
				f.btran2(append([]float64(nil), preC[s]...), y1, append([]float64(nil), c2...), y2, 1, nzOf(preC[s], c2))
				if !sameBits(y1, preY[s]) || !sameBits(y2, want2) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: lagged btran2 differs from btran on the pre- and post-pivot factors", trial, m, ne, s == 0)
				}
			}
		}
	}
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

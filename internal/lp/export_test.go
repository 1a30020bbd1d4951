package lp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// KernelFixture is a factor for the LU kernel and PRICE benchmarks: the
// optimal basis of a problem's LP, freshly factored, plus product-form
// etas from entering nonbasic columns, with one right-hand side of each
// kind the simplex solves (an entering column, a slack column or unit
// row, the phase-2 duals) and a dense one, and two PRICE inputs: the
// pivot row B⁻ᵀ·e_r and a dense vector.
type KernelFixture struct {
	s         *spx
	f         *luFactor
	col       []float64 // entering column, scattered by row
	unit      []float64 // e_r for a mid-range position r
	unit2     []float64 // e_r for r three quarters of the way
	cb        []float64 // phase-2 objective by basis position
	dense     []float64 // 70% dense, mixed scales
	rho       []float64 // B⁻ᵀ·e_r, by row
	c1, c2    []float64 // destroyed right-hand sides
	out, out2 []float64
	sink      float64

	// FTRAN patterns of col and dense, BTRAN patterns of unit, of cb, of
	// unit and unit2, of unit and cb and of dense, and the pattern the
	// solve grows (capacity m).
	colNZ, denseNZ, unitNZ, cbNZ, unitsNZ, bothNZ, nz []int32
}

// NewKernelFixture solves p, refactors its optimal basis and appends up
// to etas eta updates, each from the next nonbasic structural column
// (in index order) whose FTRAN image has a pivot of magnitude ≥ 1e-3,
// taking the largest such position as the leaving one.
func NewKernelFixture(p *Problem, etas int) (*KernelFixture, error) {
	in := Prepare(p)
	res := in.Solve(p.Lb, p.Ub, Options{})
	if res.Status != Optimal {
		return nil, fmt.Errorf("fixture LP: %v", res.Status)
	}
	s := in.ws
	if !s.refactor() {
		return nil, fmt.Errorf("fixture LP: optimal basis is singular")
	}
	m := s.m
	w := make([]float64, m)
	var entering int
	for j := 0; j < in.nStruct && s.lu.nEtas() < etas; j++ {
		if s.stat[j] == basic {
			continue
		}
		s.ftran(j, w)
		leave, best := -1, 1e-3
		for i, v := range w {
			if a := math.Abs(v); a >= best {
				leave, best = i, a
			}
		}
		if leave >= 0 {
			s.lu.appendEta(leave, w)
			entering = j
		}
	}
	k := &KernelFixture{
		s: s, f: s.lu, col: make([]float64, m), unit: make([]float64, m), unit2: make([]float64, m), cb: make([]float64, m),
		dense: kernelRHS(rand.New(rand.NewSource(1)), m, false), rho: make([]float64, m),
		c1: make([]float64, m), c2: make([]float64, m), out: make([]float64, m), out2: make([]float64, m),
	}
	idx, vals := s.col(entering)
	for t, r := range idx {
		k.col[r] += vals[t]
	}
	k.unit[m/2], k.unit2[3*m/4] = 1, 1
	for i, b := range s.basis {
		k.cb[i] = s.obj2[b]
	}
	k.colNZ, k.denseNZ, k.unitNZ, k.cbNZ = nzOf(k.col), nzOf(k.dense), nzOf(k.unit), nzOf(k.cb)
	k.unitsNZ, k.bothNZ = nzOf(k.unit, k.unit2), nzOf(k.unit, k.cb)
	k.nz = make([]int32, 0, m)
	s.buildElig()
	k.f.btran(slices.Clone(k.unit), k.rho, nzOf(k.unit))
	k.f.etaTerms, k.f.triTerms, in.stats.PriceTerms = 0, 0, 0
	return k, nil
}

// Size reports the basis dimension, the eta count and nnz(L)+nnz(U).
func (k *KernelFixture) Size() (m, etas, fill int) {
	return k.f.m, k.f.nEtas(), k.f.nnzFactor
}

// Ftran solves for the entering column.
func (k *KernelFixture) Ftran() {
	copy(k.c1, k.col)
	k.f.ftran(k.c1, k.out, k.colNZ)
}

// FtranSlack solves for the slack column of row m/2.
func (k *KernelFixture) FtranSlack() {
	copy(k.c1, k.unit)
	k.f.ftran(k.c1, k.out, k.unitNZ)
}

// FtranDense solves for the dense right-hand side.
func (k *KernelFixture) FtranDense() {
	copy(k.c1, k.dense)
	k.f.ftran(k.c1, k.out, k.denseNZ)
}

// BtranUnit solves for the unit row.
func (k *KernelFixture) BtranUnit() {
	copy(k.c1, k.unit)
	k.f.btran(k.c1, k.out, append(k.nz[:0], k.unitNZ...))
}

// Btran solves for the duals.
func (k *KernelFixture) Btran() {
	copy(k.c1, k.cb)
	k.f.btran(k.c1, k.out, append(k.nz[:0], k.cbNZ...))
}

// Btran2Units solves for two unit rows in one fused pass.
func (k *KernelFixture) Btran2Units() {
	copy(k.c1, k.unit)
	copy(k.c2, k.unit2)
	k.f.btran2(k.c1, k.out, k.c2, k.out2, 0, append(k.nz[:0], k.unitsNZ...))
}

// Btran2 solves for the unit row and the duals in one fused pass.
func (k *KernelFixture) Btran2() {
	copy(k.c1, k.unit)
	copy(k.c2, k.cb)
	k.f.btran2(k.c1, k.out, k.c2, k.out2, 0, append(k.nz[:0], k.bothNZ...))
}

// Btran2Dense solves for the dense right-hand side on both sides of one
// fused pass.
func (k *KernelFixture) Btran2Dense() {
	copy(k.c1, k.dense)
	copy(k.c2, k.dense)
	k.f.btran2(k.c1, k.out, k.c2, k.out2, 0, append(k.nz[:0], k.denseNZ...))
}

// Price computes the pivot-row entries α_j = v·a_j of every column the
// dual's entering scan reads, for v the pivot row or the dense vector,
// as the scan does: by row when priceByRow says so, then over the
// eligible columns it touched, else over every eligible column.
func (k *KernelFixture) Price(dense bool) {
	s, v := k.s, k.rho
	if dense {
		v = k.dense
	}
	byRow := s.priceByRow(v)
	if byRow {
		s.rowAlphas(v)
	}
	sum := 0.0
	for wi, wd := range s.walkWords() {
		if byRow {
			wd &= s.touched[wi]
			s.touched[wi] = 0
		}
		for ; wd != 0; wd &= wd - 1 {
			j := wi<<6 | bits.TrailingZeros64(wd)
			alpha := 0.0
			if byRow {
				alpha = s.dj[j]
			} else {
				idx, vals := s.col(j)
				for k, row := range idx {
					alpha += float64(v[row] * vals[k])
				}
				s.in.stats.PriceTerms += int64(len(idx))
			}
			sum += alpha
		}
	}
	k.sink = sum
}

// Terms returns the work counts of the fixture's solves and PRICE calls
// since it was built: FactorStats.EtaTerms, TriTerms and PriceTerms.
func (k *KernelFixture) Terms() (eta, tri, price int64) {
	return k.f.etaTerms, k.f.triTerms, k.s.in.stats.PriceTerms
}

// CheckSparseEtaPass compares the fixture's btran and btran2 with the
// full eta pass on its unit row and duals and on rounds random right-hand
// sides of density 0–5% with −0 entries; it reports the eta entries the
// sparse pass visited and the full pass would have.
func (k *KernelFixture) CheckSparseEtaPass(seed int64, rounds int) (terms, fullTerms int64, err error) {
	rng := rand.New(rand.NewSource(seed))
	var sc sparseEtaCheck
	if err := sc.check(k.f, k.unit, k.cb); err != nil {
		return 0, 0, err
	}
	for r := 0; r < rounds; r++ {
		if err := sc.check(k.f, sparseRHS(rng, k.f.m), sparseRHS(rng, k.f.m)); err != nil {
			return 0, 0, err
		}
	}
	return sc.terms, sc.fullTerms, nil
}

// nzOf returns the ascending positions where any of cs is nonzero: the
// BTRAN pattern of those right-hand sides, with capacity for growth.
func nzOf(cs ...[]float64) []int32 {
	m := len(cs[0])
	nz := make([]int32, 0, m)
	for i := 0; i < m; i++ {
		for _, c := range cs {
			if c[i] != 0 {
				nz = append(nz, int32(i))
				break
			}
		}
	}
	return nz
}

// allPositions returns the pattern 0..m-1, which makes every pass of a
// solve take its full loop.
func allPositions(m int) []int32 {
	nz := make([]int32, m)
	for i := range nz {
		nz[i] = int32(i)
	}
	return nz
}

// btranFull and btran2Full are btran and btran2 with the full eta pass
// the sparse one replaced: every eta's products over all of its own
// entries, and the full U passes. TestSparseEtaPassMatchesFullPass
// checks the kernels against them.
func (f *luFactor) btranFull(c, y []float64) {
	m := f.m
	c, y = c[:m], y[:m]
	f.btranEtasFull(c, 0, len(f.eLeave))
	f.btranLU(c, y, allPositions(m))
}

func (f *luFactor) btranEtasFull(c []float64, first, end int) {
	eLeave := f.eLeave[:end]
	ePtr, eIdx, eVal, ePiv := f.ePtr[:end+1], f.eIdx, f.eVal, f.ePiv[:end]
	for e := end - 1; e >= first; e-- {
		lv := eLeave[e]
		v := c[lv]
		lo, hi := ePtr[e], ePtr[e+1]
		idx, vals := eIdx[lo:hi], eVal[lo:hi]
		vals = vals[:len(idx)]
		for q, i := range idx {
			v -= float64(vals[q] * c[i])
		}
		c[lv] = v / ePiv[e]
	}
}

func (f *luFactor) btran2Full(c1, y1, c2, y2 []float64, lag int) {
	m := f.m
	c1, y1, c2, y2 = c1[:m], y1[:m], c2[:m], y2[:m]
	ne := len(f.eLeave) - lag
	f.btranEtasFull(c2, ne, ne+lag)
	eLeave := f.eLeave[:ne]
	ePtr, eIdx, eVal, ePiv := f.ePtr[:ne+1], f.eIdx, f.eVal, f.ePiv[:ne]
	for e := ne - 1; e >= 0; e-- {
		lv := eLeave[e]
		v1, v2 := c1[lv], c2[lv]
		lo, hi := ePtr[e], ePtr[e+1]
		idx, vals := eIdx[lo:hi], eVal[lo:hi]
		vals = vals[:len(idx)]
		for q, i := range idx {
			x := vals[q]
			v1 -= float64(x * c1[i])
			v2 -= float64(x * c2[i])
		}
		piv := ePiv[e]
		c1[lv], c2[lv] = v1/piv, v2/piv
	}
	f.btranLU2(c1, y1, c2, y2, allPositions(m))
}

// priceFull, devexFull and enteringScanFull are the loops that the
// column walks replaced: each visits every column and skips the basic
// and entryFixed ones, with column-wise products.
// TestColumnWalksMatchFullScans checks the walks against them.
func (s *spx) priceFull(c []float64, useBland bool) (enter int, dir float64) {
	enter = -1
	bestScore := 0.0
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic || s.entryFixed(j) {
			continue
		}
		d := s.reducedCost(c, j)
		var viol, dd float64
		switch {
		case s.stat[j] == atLower && d < -eps:
			viol, dd = -d, 1
		case s.stat[j] == atLower && d > eps && math.IsInf(s.lb[j], -1):
			viol, dd = d, -1
		case s.stat[j] == atUpper && d > eps:
			viol, dd = d, -1
		default:
			continue
		}
		if useBland {
			return j, dd
		}
		if score := viol * viol / s.gamma[j]; score > bestScore {
			bestScore, enter, dir = score, j, dd
		}
	}
	return enter, dir
}

// devexFull reports the reset decision as the full scan made it: the
// largest weight of an eligible column but lv, at least 1, above 1e10.
func (s *spx) devexFull(lv int, ratio2 float64) bool {
	maxGamma := 1.0
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic || j == lv || s.entryFixed(j) {
			continue
		}
		if alpha := s.alpha(s.rho, j); alpha != 0 {
			if cand := alpha * alpha * ratio2; cand > s.gamma[j] {
				s.gamma[j] = cand
			}
		}
		if s.gamma[j] > maxGamma {
			maxGamma = s.gamma[j]
		}
	}
	return maxGamma > 1e10
}

func (s *spx) enteringScanFull(rho []float64, below bool) (nanRatio bool) {
	s.candJ, s.candA, s.candR = s.candJ[:0], s.candA[:0], s.candR[:0]
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic || s.entryFixed(j) {
			continue
		}
		alpha := s.alpha(rho, j)
		aAbs := math.Abs(alpha)
		if aAbs <= alphaTol {
			continue
		}
		if !(math.IsInf(s.lb[j], -1) && math.IsInf(s.ub[j], 1)) {
			if below && (s.stat[j] == atLower && alpha >= 0 || s.stat[j] == atUpper && alpha <= 0) ||
				!below && (s.stat[j] == atLower && alpha <= 0 || s.stat[j] == atUpper && alpha >= 0) {
				continue
			}
		}
		ratio := math.Abs(s.reducedCost(s.obj2, j)) / aAbs
		nanRatio = nanRatio || ratio != ratio
		s.candJ = append(s.candJ, int32(j))
		s.candA = append(s.candA, aAbs)
		s.candR = append(s.candR, ratio)
	}
	return nanRatio
}

// eligFull returns the elig bitmap that buildElig would build now.
func (s *spx) eligFull() []uint64 {
	e := make([]uint64, len(s.elig))
	for j := 0; j < s.n; j++ {
		if s.stat[j] != basic && !s.entryFixed(j) {
			e[j>>6] |= 1 << (j & 63)
		}
	}
	return e
}

package lp

import (
	"fmt"
	"math"
	"math/rand"
)

// KernelFixture is a factor for the LU kernel benchmarks: the optimal
// basis of a problem's LP, freshly factored, plus product-form etas from
// entering nonbasic columns, with one right-hand side of each kind the
// simplex solves (an entering column, a unit row, the phase-2 duals).
type KernelFixture struct {
	f         *luFactor
	col       []float64 // entering column, scattered by row
	unit      []float64 // e_r for a mid-range position r
	cb        []float64 // phase-2 objective by basis position
	c1, c2    []float64 // destroyed right-hand sides
	out, out2 []float64

	// BTRAN patterns of cb and of unit and cb together, and the pattern
	// the solve grows (capacity m).
	cbNZ, bothNZ, nz []int32
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
		f: s.lu, col: make([]float64, m), unit: make([]float64, m), cb: make([]float64, m),
		c1: make([]float64, m), c2: make([]float64, m), out: make([]float64, m), out2: make([]float64, m),
	}
	idx, vals := s.col(entering)
	for t, r := range idx {
		k.col[r] += vals[t]
	}
	k.unit[m/2] = 1
	for i, b := range s.basis {
		k.cb[i] = s.obj2[b]
	}
	k.cbNZ, k.bothNZ = nzOf(k.cb), nzOf(k.unit, k.cb)
	k.nz = make([]int32, 0, m)
	k.f.etaTerms = 0
	return k, nil
}

// Size reports the basis dimension, the eta count and nnz(L)+nnz(U).
func (k *KernelFixture) Size() (m, etas, fill int) {
	return k.f.m, k.f.nEtas(), k.f.nnzFactor
}

// Ftran solves for the entering column.
func (k *KernelFixture) Ftran() {
	copy(k.c1, k.col)
	k.f.ftran(k.c1, k.out)
}

// Btran solves for the duals.
func (k *KernelFixture) Btran() {
	copy(k.c1, k.cb)
	k.f.btran(k.c1, k.out, append(k.nz[:0], k.cbNZ...))
}

// Btran2 solves for the unit row and the duals in one fused pass.
func (k *KernelFixture) Btran2() {
	copy(k.c1, k.unit)
	copy(k.c2, k.cb)
	k.f.btran2(k.c1, k.out, k.c2, k.out2, 0, append(k.nz[:0], k.bothNZ...))
}

// EtaTerms returns the eta entries the fixture's solves have visited
// (FactorStats.EtaTerms) since it was built.
func (k *KernelFixture) EtaTerms() int64 { return k.f.etaTerms }

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

// btranFull and btran2Full are btran and btran2 with the full eta pass
// the sparse one replaced: every eta's products over all of its own
// entries. TestSparseEtaPassMatchesFullPass checks the kernels against
// them.
func (f *luFactor) btranFull(c, y []float64) {
	m := f.m
	c, y = c[:m], y[:m]
	f.btranEtasFull(c, 0, len(f.eLeave))
	f.btranLU(c, y)
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
	f.btranLU2(c1, y1, c2, y2)
}

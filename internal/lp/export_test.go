package lp

import (
	"fmt"
	"math"
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
	k.f.btran(k.c1, k.out)
}

// Btran2 solves for the unit row and the duals in one fused pass.
func (k *KernelFixture) Btran2() {
	copy(k.c1, k.unit)
	copy(k.c2, k.cb)
	k.f.btran2(k.c1, k.out, k.c2, k.out2, 0)
}

package lp

import "math"

// SolveDense minimizes the problem with the original dense-inverse primal
// simplex: phase-1 artificial start, explicit dense basis inverse updated
// in place on every pivot, Dantzig pricing with a Bland anti-cycling
// fallback. It is kept verbatim as the reference implementation: the
// cross-check tests assert that the sparse solver (Solve, SolveFrom)
// reproduces its objectives, and the solver benchmarks use it as the
// ablation baseline. New code should call Solve or Prepare/SolveFrom.
func SolveDense(p *Problem, opts Options) Result {
	m := len(p.Rows)
	n := p.NumVars()
	budget := iterBudget(m, n)
	s := &denseSimplex{m: m, nOrig: n, done: doneChan(opts.Context)}

	// Assemble columns: structural, then one slack per row, then
	// artificials added on demand.
	total := n + m
	s.cols = make([][]Coef, total, total+m)
	s.obj = make([]float64, total, total+m)
	s.lb = make([]float64, total, total+m)
	s.ub = make([]float64, total, total+m)
	copy(s.obj, p.Obj)
	copy(s.lb, p.Lb)
	copy(s.ub, p.Ub)
	for j := 0; j < n; j++ {
		if s.lb[j] > s.ub[j]+eps {
			return Result{Status: Infeasible}
		}
	}
	s.b = make([]float64, m)
	for i, row := range p.Rows {
		s.b[i] = row.RHS
		for _, c := range row.Coefs {
			if c.Val == 0 {
				continue
			}
			s.cols[c.Var] = append(s.cols[c.Var], Coef{Var: i, Val: c.Val})
		}
		sj := n + i
		s.cols[sj] = []Coef{{Var: i, Val: 1}}
		switch row.Sense {
		case LE:
			s.lb[sj], s.ub[sj] = 0, Inf
		case GE:
			s.lb[sj], s.ub[sj] = math.Inf(-1), 0
		case EQ:
			s.lb[sj], s.ub[sj] = 0, 0
		}
	}
	s.n = total

	// Nonbasic start: every column at its bound nearest zero (0 for free
	// variables).
	s.stat = make([]vstat, s.n, s.n+m)
	s.x = make([]float64, s.n, s.n+m)
	for j := 0; j < s.n; j++ {
		s.x[j] = startValue(s.lb[j], s.ub[j])
		if s.x[j] == s.ub[j] && !math.IsInf(s.ub[j], 1) && s.x[j] != s.lb[j] {
			s.stat[j] = atUpper
		} else {
			s.stat[j] = atLower
		}
	}

	// Residuals r = b − A·x determine which rows need an artificial.
	r := make([]float64, m)
	copy(r, s.b)
	for j := 0; j < s.n; j++ {
		if s.x[j] != 0 {
			for _, c := range s.cols[j] {
				r[c.Var] -= float64(c.Val * s.x[j])
			}
		}
	}
	s.basis = make([]int, m)
	s.binv = make([][]float64, m)
	needPhase1 := false
	for i := 0; i < m; i++ {
		s.binv[i] = make([]float64, m)
		sj := n + i
		// Try absorbing the residual into the slack.
		v := s.x[sj] + r[i]
		if v >= s.lb[sj]-eps && v <= s.ub[sj]+eps {
			s.x[sj] = clamp(v, s.lb[sj], s.ub[sj])
			s.basis[i] = sj
			s.stat[sj] = basic
			s.binv[i][i] = 1
			continue
		}
		// Artificial column with sign matching the residual.
		resid := r[i] - (s.x[sj] - startValue(s.lb[sj], s.ub[sj])) // residual with slack at start value
		s.x[sj] = startValue(s.lb[sj], s.ub[sj])
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		aj := s.n
		s.cols = append(s.cols, []Coef{{Var: i, Val: sign}})
		s.obj = append(s.obj, 0)
		s.lb = append(s.lb, 0)
		s.ub = append(s.ub, Inf)
		s.stat = append(s.stat, basic)
		s.x = append(s.x, math.Abs(resid))
		s.n++
		s.basis[i] = aj
		s.binv[i][i] = sign
		needPhase1 = true
	}

	iters := 0
	if needPhase1 {
		// Phase 1: minimize sum of artificials.
		c1 := make([]float64, s.n)
		for j := total; j < s.n; j++ {
			c1[j] = 1
		}
		st, it := s.iterate(c1, budget)
		iters += it
		if st == IterLimit {
			return Result{Status: IterLimit, Iters: iters}
		}
		sum := 0.0
		for j := total; j < s.n; j++ {
			sum += s.x[j]
		}
		if sum > 1e-6 {
			return Result{Status: Infeasible, Iters: iters}
		}
		// Freeze artificials at zero for phase 2.
		for j := total; j < s.n; j++ {
			s.ub[j] = 0
			s.x[j] = 0
		}
	}

	c2 := make([]float64, s.n)
	copy(c2, s.obj)
	st, it := s.iterate(c2, budget-iters)
	iters += it
	res := Result{Status: st, Iters: iters}
	res.X = make([]float64, n)
	copy(res.X, s.x[:n])
	for j := 0; j < n; j++ {
		res.Obj += float64(p.Obj[j] * res.X[j])
	}
	return res
}

type denseSimplex struct {
	m, n  int // rows, total columns (structural + slack + artificial)
	nOrig int
	cols  [][]Coef // column-wise matrix rows entries
	obj   []float64
	lb    []float64
	ub    []float64
	b     []float64

	binv  [][]float64 // m×m basis inverse
	basis []int       // basic variable per row
	stat  []vstat
	x     []float64
	done  <-chan struct{}
}

// iterate runs primal simplex iterations for objective c until optimal,
// unbounded or the iteration budget runs out.
func (s *denseSimplex) iterate(c []float64, maxIters int) (Status, int) {
	if maxIters <= 0 {
		return IterLimit, 0
	}
	m := s.m
	y := make([]float64, m)
	w := make([]float64, m)
	degenerate := 0
	useBland := false
	for it := 0; it < maxIters; it++ {
		if it%64 == 0 && isDone(s.done) {
			return IterLimit, it
		}
		// Duals y = c_B · B⁻¹.
		for i := 0; i < m; i++ {
			y[i] = 0
		}
		for i := 0; i < m; i++ {
			cb := c[s.basis[i]]
			if cb == 0 {
				continue
			}
			row := s.binv[i]
			for k := 0; k < m; k++ {
				y[k] += float64(cb * row[k])
			}
		}
		// Pricing.
		enter := -1
		bestViol := eps
		var dir float64 // +1 entering increases, −1 decreases
		for j := 0; j < s.n; j++ {
			if s.stat[j] == basic {
				continue
			}
			if s.lb[j] == s.ub[j] {
				continue // fixed
			}
			d := c[j]
			for _, cf := range s.cols[j] {
				d -= float64(y[cf.Var] * cf.Val)
			}
			var viol float64
			var dd float64
			switch {
			case s.stat[j] == atLower && d < -eps:
				viol, dd = -d, 1
			case s.stat[j] == atLower && d > eps && math.IsInf(s.lb[j], -1):
				// Free variable parked at 0 can also decrease.
				viol, dd = d, -1
			case s.stat[j] == atUpper && d > eps:
				viol, dd = d, -1
			default:
				continue
			}
			if useBland {
				enter, dir = j, dd
				break
			}
			if viol > bestViol {
				bestViol, enter, dir = viol, j, dd
			}
		}
		if enter < 0 {
			return Optimal, it
		}
		// Direction w = B⁻¹ A_enter.
		for i := 0; i < m; i++ {
			w[i] = 0
		}
		for _, cf := range s.cols[enter] {
			for i := 0; i < m; i++ {
				w[i] += float64(s.binv[i][cf.Var] * cf.Val)
			}
		}
		// Ratio test: entering moves by t·dir ≥ 0; basic i changes by
		// −dir·t·w[i].
		tMax := s.ub[enter] - s.lb[enter] // bound flip distance
		leave := -1
		leaveToUpper := false
		for i := 0; i < m; i++ {
			delta := -dir * w[i]
			if delta > eps { // basic increases toward ub
				bi := s.basis[i]
				if !math.IsInf(s.ub[bi], 1) {
					t := (s.ub[bi] - s.x[bi]) / delta
					if t < tMax-1e-12 {
						tMax, leave, leaveToUpper = t, i, true
					}
				}
			} else if delta < -eps { // basic decreases toward lb
				bi := s.basis[i]
				if !math.IsInf(s.lb[bi], -1) {
					t := (s.lb[bi] - s.x[bi]) / delta
					if t < tMax-1e-12 {
						tMax, leave, leaveToUpper = t, i, false
					}
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded, it
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax < 1e-12 {
			degenerate++
			if degenerate > 3*m+50 {
				useBland = true
			}
		} else {
			degenerate = 0
		}
		// Apply step.
		s.x[enter] += float64(dir * tMax)
		for i := 0; i < m; i++ {
			s.x[s.basis[i]] -= float64(dir * tMax * w[i])
		}
		if leave < 0 {
			// Bound flip: entering just switches bound.
			if dir > 0 {
				s.stat[enter] = atUpper
				s.x[enter] = s.ub[enter]
			} else {
				s.stat[enter] = atLower
				s.x[enter] = s.lb[enter]
			}
			continue
		}
		// Basis change: leave row `leave`, variable s.basis[leave] goes
		// to a bound, enter becomes basic.
		lv := s.basis[leave]
		if leaveToUpper {
			s.stat[lv] = atUpper
			s.x[lv] = s.ub[lv]
		} else {
			s.stat[lv] = atLower
			s.x[lv] = s.lb[lv]
		}
		s.stat[enter] = basic
		s.basis[leave] = enter
		// Pivot B⁻¹: eliminate w in all rows except `leave`.
		piv := w[leave]
		if math.Abs(piv) < 1e-12 {
			return IterLimit, it // numerically stuck
		}
		rowL := s.binv[leave]
		inv := 1 / piv
		for k := 0; k < m; k++ {
			rowL[k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == leave || w[i] == 0 {
				continue
			}
			f := w[i]
			ri := s.binv[i]
			for k := 0; k < m; k++ {
				ri[k] -= float64(f * rowL[k])
			}
		}
	}
	return IterLimit, maxIters
}

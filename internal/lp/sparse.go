package lp

import (
	"math"
	"sort"
	"time"
)

// Instance is a prepared LP: the rows assembled once into sparse
// column-major (CSC) storage, with bounds supplied per solve. It is the
// re-solve engine of branch-and-bound, where thousands of bound
// variations share one constraint matrix. An Instance owns a reusable
// solver workspace and is therefore NOT safe for concurrent use; separate
// goroutines must Prepare separate instances.
type Instance struct {
	m       int       // rows
	nStruct int       // structural variables
	obj     []float64 // length nStruct
	rhs     []float64 // length m

	// CSC over nStruct+m columns: structural columns then one slack per
	// row (slack j = nStruct+i has the single entry (i, 1)).
	colPtr []int32
	rowIdx []int32
	vals   []float64

	slackLb, slackUb []float64 // per row, fixed by the row sense

	// fprint is a content hash of the assembled instance, the per-matrix
	// half of the EXPAND perturbation seed (see perturb.go).
	fprint uint64

	ws *spx // lazily allocated, reused across sequential solves

	stats FactorStats // cumulative factorization counters (see Stats)
}

// FactorStats counts the factorization work an Instance has performed
// since Prepare. The counters are workspace-level bookkeeping: hot-path
// reuse and refactorization cadence depend on which solves ran on this
// instance, so they are deliberately NOT part of Result (whose fields
// must stay byte-identical across worker schedules) — callers aggregate
// them out of band (mip.Options.LUStats, the solver benchmark's LU leg).
type FactorStats struct {
	Refactors int64 // Markowitz factorizations (cold starts, reconstructions, cadence rebuilds)
	Replays   int64 // recipe reconstructions that re-applied a nonempty eta script
	HotSolves int64 // SolveFrom calls that reused the live factorization unchanged
	EtaPivots int64 // product-form updates appended across all solves
	Ftrans    int64 // sparse triangular FTRAN solves
	Btrans    int64 // sparse triangular BTRAN solves
	// FactorNanos and SolveNanos split the time spent inside the LU
	// kernel: factorizations vs triangular solves (the benchmark's "FTRAN
	// time share" reads SolveNanos against the whole solve wall clock).
	FactorNanos int64
	SolveNanos  int64
	// FillNnz and BasisNnz describe the most recent factorization:
	// nnz(L)+nnz(U) against nnz(B). Their ratio is the fill-in factor the
	// benchmark gates on.
	FillNnz  int64
	BasisNnz int64
}

// Add accumulates o into st (aggregation across worker instances).
func (st *FactorStats) Add(o FactorStats) {
	st.Refactors += o.Refactors
	st.Replays += o.Replays
	st.HotSolves += o.HotSolves
	st.EtaPivots += o.EtaPivots
	st.Ftrans += o.Ftrans
	st.Btrans += o.Btrans
	st.FactorNanos += o.FactorNanos
	st.SolveNanos += o.SolveNanos
	if o.FillNnz > 0 {
		st.FillNnz, st.BasisNnz = o.FillNnz, o.BasisNnz
	}
}

// Stats returns the instance's cumulative factorization counters.
func (in *Instance) Stats() FactorStats { return in.stats }

// Prepare assembles p's rows into an Instance. Subsequent bound changes
// are passed to Solve/SolveFrom; changes to p itself are not observed.
func Prepare(p *Problem) *Instance {
	m, n := len(p.Rows), p.NumVars()
	in := &Instance{
		m:       m,
		nStruct: n,
		obj:     append([]float64(nil), p.Obj...),
		rhs:     make([]float64, m),
		slackLb: make([]float64, m),
		slackUb: make([]float64, m),
	}
	nTot := n + m
	count := make([]int32, nTot)
	nnz := 0
	for _, row := range p.Rows {
		for _, c := range row.Coefs {
			if c.Val != 0 {
				count[c.Var]++
				nnz++
			}
		}
	}
	in.colPtr = make([]int32, nTot+1)
	for j := 0; j < n; j++ {
		in.colPtr[j+1] = in.colPtr[j] + count[j]
	}
	for i := 0; i < m; i++ { // slack columns: one entry each
		in.colPtr[n+i+1] = in.colPtr[n+i] + 1
	}
	in.rowIdx = make([]int32, nnz+m)
	in.vals = make([]float64, nnz+m)
	next := make([]int32, nTot)
	copy(next, in.colPtr[:nTot])
	for i, row := range p.Rows {
		in.rhs[i] = row.RHS
		for _, c := range row.Coefs {
			if c.Val == 0 {
				continue
			}
			k := next[c.Var]
			in.rowIdx[k] = int32(i)
			in.vals[k] = c.Val
			next[c.Var] = k + 1
		}
		k := next[n+i]
		in.rowIdx[k] = int32(i)
		in.vals[k] = 1
		switch row.Sense {
		case LE:
			in.slackLb[i], in.slackUb[i] = 0, Inf
		case GE:
			in.slackLb[i], in.slackUb[i] = math.Inf(-1), 0
		case EQ:
			in.slackLb[i], in.slackUb[i] = 0, 0
		}
	}
	in.fprint = in.fingerprint()
	return in
}

// Fingerprint returns the instance's content hash: the per-matrix half of
// the key under which the EXPAND perturbation and fault injection make
// their deterministic decisions.
func (in *Instance) Fingerprint() uint64 { return in.fprint }

// Solve cold-solves the instance under the given structural bounds:
// phase-1 artificial start, then primal simplex on the true objective.
func (in *Instance) Solve(lb, ub []float64, opts Options) Result {
	s := in.workspace(&opts)
	s.liveBasis = nil // the live factorization is about to be overwritten
	if !s.resetBounds(lb, ub) {
		return Result{Status: Infeasible}
	}
	s.coldStart()

	iters := 0
	if s.nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		c1 := make([]float64, s.n)
		for j := s.nTot; j < s.n; j++ {
			c1[j] = 1
		}
		st, it := s.primal(c1, opts.MaxIters)
		iters += it
		if st == IterLimit {
			return s.result(IterLimit, iters, false)
		}
		sum := 0.0
		for j := s.nTot; j < s.n; j++ {
			sum += s.x[j]
		}
		if sum > 1e-6 {
			return Result{Status: Infeasible, Iters: iters}
		}
		// Freeze artificials at zero for phase 2.
		for j := s.nTot; j < s.n; j++ {
			s.ub[j] = 0
			s.x[j] = 0
		}
	}
	st, it := s.primal(s.obj2, opts.MaxIters-iters)
	iters += it
	if st == Optimal {
		st, it = s.finish(opts.MaxIters - iters)
		iters += it
		s.cleanupIters += it
	}
	return s.result(st, iters, false)
}

// SolveFrom reoptimizes from a previously returned basis after bound
// changes, using the bounded-variable dual simplex: the supplied basis
// stays dual feasible when only bounds moved (the branch-and-bound case),
// so a handful of dual pivots restore primal feasibility where a cold
// solve would replay phases 1 and 2 from scratch. When the basis is the
// instance's most recent one, the live factorization is reused; otherwise
// the basis inverse is refactorized from the snapshot. On numerical
// trouble or a stalled dual it transparently falls back to a cold solve
// (Result.ColdRestart reports this).
func (in *Instance) SolveFrom(basis *Basis, lb, ub []float64, opts Options) Result {
	if basis == nil || len(basis.basic) != in.m || len(basis.stat) != in.nStruct+in.m {
		res := in.Solve(lb, ub, opts)
		res.ColdRestart = true
		return res
	}
	if opts.Inject != nil && opts.Inject.ForceColdFallback(in.fprint, opts.PerturbSeq) {
		// Injected fault: pretend the supplied basis was unusable and take
		// the cold-restart path. Decided purely from (fprint, PerturbSeq),
		// so the same solve injects on every run and worker.
		res := in.Solve(lb, ub, opts)
		res.ColdRestart = true
		res.Injected = true
		return res
	}
	s := in.workspace(&opts)
	// Hot path: the supplied snapshot is the instance's most recent
	// capture and the live factorization still matches it — skip
	// reconstruction entirely. Results are unchanged either way: the live
	// state is bitwise equal to what reconstruct() would rebuild from the
	// snapshot's recipe, so hot reuse is purely a speed decision and the
	// relaxation stays a pure function of (matrix, basis, bounds, seq).
	hot := !opts.FreshFactor && basis == s.liveBasis && s.factorOK
	s.liveBasis = nil
	if !s.resetBounds(lb, ub) {
		return Result{Status: Infeasible}
	}
	s.installBasis(basis)
	if opts.Perturb {
		s.perturbCosts()
	}
	// Injected fault: treat refactorization of this basis as singular,
	// exercising the same numerical-failure fallback a real singular basis
	// would take.
	singular := opts.Inject != nil && opts.Inject.SingularRefactor(in.fprint, opts.PerturbSeq)
	if singular || (!hot && !s.reconstruct(basis)) {
		res := in.Solve(lb, ub, opts)
		res.ColdRestart = true
		res.Injected = singular
		return res
	}
	if hot {
		in.stats.HotSolves++
	}
	s.computeXB()

	// Dual reoptimization with a deliberately tight budget: a dual that
	// has not finished within ~m/4 iterations is almost always stalling,
	// and every additional iteration it burns comes on top of the cold
	// solve it will fall back to anyway — failing fast keeps the warm path
	// a strict win. With perturbation on (the default), warm re-solves on
	// the degenerate scheduling models were measured to finish well inside
	// this budget once the BFRT pivots at every crossing breakpoint; the
	// budget is the backstop for NoPerturb runs and pathological handoffs.
	dualBudget := 50 + s.m/4
	if opts.MaxIters < dualBudget {
		dualBudget = opts.MaxIters
	}
	st, it := s.dual(dualBudget)
	iters := it
	switch st {
	case Infeasible:
		// The perturbed feasible region contains the true one (bounds only
		// ever expand), so infeasibility on the working bounds is
		// infeasibility on the exact bounds too.
		return Result{Status: Infeasible, Iters: iters, Perturbed: s.didPerturb}
	case IterLimit:
		if s.aborted() {
			return s.result(IterLimit, iters, false)
		}
		res := in.Solve(lb, ub, opts)
		res.ColdRestart = true
		res.Iters += iters
		return res
	}
	// Primal cleanup: a no-op when the dual finished cleanly, and the
	// safety net when reduced costs drifted across the basis handoff.
	st, it = s.primal(s.obj2, opts.MaxIters-iters)
	iters += it
	if st == Optimal {
		st, it = s.finish(opts.MaxIters - iters)
		iters += it
		s.cleanupIters += it
		switch st {
		case Infeasible:
			return Result{Status: Infeasible, Iters: iters, Perturbed: s.didPerturb}
		case IterLimit:
			if s.aborted() {
				return s.result(IterLimit, iters, false)
			}
			// The clean-up stalled on this basis: cold-restart against the
			// exact bounds rather than report a point that still carries
			// shift residuals.
			res := in.Solve(lb, ub, opts)
			res.ColdRestart = true
			res.Iters += iters
			return res
		}
	}
	return s.result(st, iters, false)
}

// spx is the solver workspace: sparse simplex state reused across
// sequential solves of one Instance.
type spx struct {
	in   *Instance
	m    int // rows
	nTot int // structural + slack columns
	n    int // nTot + live artificials
	nArt int

	lb, ub []float64
	// lbTrue/ubTrue hold the exact caller bounds while lb/ub carry the
	// EXPAND-perturbed working bounds; finish() restores them. perturbed
	// is live state (shifts currently applied), didPerturb records that
	// the solve perturbed at all (reported as Result.Perturbed).
	lbTrue, ubTrue        []float64
	perturbed, didPerturb bool
	costPerturbed         bool
	cleanupIters          int
	obj2                  []float64 // phase-2 objective (structural costs, zeros elsewhere)
	x                     []float64
	stat                  []vstat
	basis                 []int
	lu                    *luFactor // sparse LU of the basis + product-form eta file

	artRow  []int32 // artificial j = nTot+k sits in row artRow[k]
	artSign []float64

	y, w, rho, resid []float64
	gamma            []float64 // Devex reference weights
	fscratch         []float64 // FTRAN/BTRAN right-hand-side scratch, length m
	bscratch         []float64 // second BTRAN right-hand side (rowAndDuals), length m
	xb               []float64 // computeXB solution scratch, length m

	// Dual ratio-test candidate scratch (Harris pass 2 re-reads what pass
	// 1 computed instead of re-scanning the columns).
	candJ   []int32
	candA   []float64 // |alpha| per candidate
	candR   []float64 // strict ratio per candidate
	candIdx []int     // candidate order scratch for the BFRT ratio sort
	acc     []float64 // accumulated flipped-column updates (dense m-vector)

	// Live-factorization identity and the replay recipe. The recipe is
	// the determinism device: the live factor state is always exactly
	// factor(anchor) followed by the eta script, each script eta
	// recomputed as the FTRAN of its entering column at replay time — so
	// a workspace that reconstructs a captured (anchor, script) recipe
	// reaches bit-for-bit the same factor state the live path holds, and
	// hot reuse (skipping reconstruction entirely) cannot change a single
	// bit of any subsequent result. See DESIGN.md ("Sparse LU core").
	liveBasis  *Basis // snapshot matching the live factorization, if any
	factorOK   bool
	anchor     []int32    // basis at the factorization anchor; immutable once set
	script     []pivotRec // pivots applied since the anchor, in order
	replayable bool       // false when the anchor or script references artificial columns
	pivots     int        // eta updates since the last refactorization (= len(script))

	opts     *Options
	eps      float64
	deadline time.Time
	cancel   <-chan struct{}
	abortSet bool

	// Tolerances derived from Options.Eps in workspace(); see their uses
	// for the roles.
	pivotTol   float64 // unusable-pivot cutoff (was hard-coded 1e-12)
	alphaTol   float64 // dual ratio-test pivot eligibility (was 1e-9)
	primalBand float64 // Harris primal band: per-bound flex in ratio pass 1
	dualBand   float64 // Harris dual band: allowed dual-feasibility slack
	dualTol    float64 // primal-feasibility threshold of the dual's leaving row
}

// workspace returns the reusable solver state, (re)allocating on first
// use, and applies option defaults.
func (in *Instance) workspace(opts *Options) *spx {
	if opts.Eps == 0 {
		opts.Eps = defaultEps
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 50*(in.m+in.nStruct) + 1000
	}
	if opts.RefactorEvery == 0 {
		opts.RefactorEvery = defaultRefactorEvery
	}
	if in.ws == nil {
		m, nTot := in.m, in.nStruct+in.m
		total := nTot + m // artificials at most one per row
		in.ws = &spx{
			in: in, m: m, nTot: nTot,
			lb: make([]float64, total), ub: make([]float64, total),
			lbTrue: make([]float64, nTot), ubTrue: make([]float64, nTot),
			obj2: make([]float64, total), x: make([]float64, total),
			stat: make([]vstat, total), basis: make([]int, m),
			lu:     newLUFactor(m),
			artRow: make([]int32, 0, m), artSign: make([]float64, 0, m),
			y: make([]float64, m), w: make([]float64, m),
			rho: make([]float64, m), resid: make([]float64, m),
			fscratch: make([]float64, m), bscratch: make([]float64, m),
			xb:    make([]float64, m),
			gamma: make([]float64, total),
			candJ: make([]int32, 0, total), candA: make([]float64, 0, total),
			candR: make([]float64, 0, total), candIdx: make([]int, 0, total),
			acc: make([]float64, m),
		}
	}
	s := in.ws
	s.opts = opts
	s.eps = opts.Eps
	s.deadline = opts.Deadline
	s.cancel = opts.Cancel
	s.abortSet = false
	s.perturbed, s.didPerturb, s.costPerturbed = false, false, false
	s.cleanupIters = 0
	// Tolerances derive from Options.Eps instead of hard-coded absolute
	// constants, so a caller loosening or tightening Eps moves the whole
	// tolerance stack coherently. At the default Eps=1e-7 they reduce to
	// the former constants 1e-12 and 1e-9. Row/bound magnitudes enter
	// through the *relative* Harris bands (eps·max(1,|bound|) in the
	// primal, see boundScale) rather than by inflating the pivot cutoffs:
	// scaling cutoffs by the matrix norm was measured to misclassify
	// usable pivots on the scheduling models (max |coefficient| ≈ 1.3e3
	// would put alphaTol above genuine pivot magnitudes and stall the
	// dual).
	s.pivotTol = 1e-5 * opts.Eps
	s.alphaTol = 1e-2 * opts.Eps
	s.primalBand = 0 * opts.Eps
	s.dualBand = 0 * opts.Eps
	s.dualTol = opts.Eps
	// liveBasis, factorOK, the anchor/script recipe and the pivot count
	// survive between solves so that SolveFrom can reuse a still-live
	// factorization (the hot path). The refactorization cadence stays
	// deterministic because pivots always equals the live script length,
	// which a reconstructing workspace restores identically.
	return s
}

// resetBounds loads structural bounds from the caller and slack bounds
// from the instance; reports false if a structural bound pair is empty.
func (s *spx) resetBounds(lb, ub []float64) bool {
	in := s.in
	s.n = s.nTot
	s.nArt = 0
	s.artRow = s.artRow[:0]
	s.artSign = s.artSign[:0]
	copy(s.lb[:in.nStruct], lb)
	copy(s.ub[:in.nStruct], ub)
	copy(s.lb[in.nStruct:s.nTot], in.slackLb)
	copy(s.ub[in.nStruct:s.nTot], in.slackUb)
	for j := range s.obj2[:s.nTot] {
		s.obj2[j] = 0
	}
	copy(s.obj2[:in.nStruct], in.obj)
	for j := 0; j < in.nStruct; j++ {
		if s.lb[j] > s.ub[j]+s.eps {
			return false
		}
	}
	// Perturbation expands bounds outward, so it can never manufacture an
	// empty box; it runs after the feasibility check on the true bounds.
	if s.opts.Perturb {
		s.perturbBounds()
	}
	return true
}

// col returns the sparse pattern of column j (structural, slack or
// artificial).
func (s *spx) col(j int) ([]int32, []float64) {
	if j < s.nTot {
		a, b := s.in.colPtr[j], s.in.colPtr[j+1]
		return s.in.rowIdx[a:b], s.in.vals[a:b]
	}
	k := j - s.nTot
	return s.artRow[k : k+1], s.artSign[k : k+1]
}

// coldStart places every column nonbasic at its start value and builds
// the initial basis from slacks, adding artificials where a slack cannot
// absorb the row residual (the classical phase-1 start).
func (s *spx) coldStart() {
	in := s.in
	m := s.m
	for j := 0; j < s.nTot; j++ {
		s.x[j] = startValue(s.lb[j], s.ub[j])
		if s.x[j] == s.ub[j] && !math.IsInf(s.ub[j], 1) && s.x[j] != s.lb[j] {
			s.stat[j] = atUpper
		} else {
			s.stat[j] = atLower
		}
	}
	r := s.resid[:m]
	copy(r, in.rhs)
	for j := 0; j < s.nTot; j++ {
		if s.x[j] != 0 {
			idx, vals := s.col(j)
			for k, row := range idx {
				r[row] -= vals[k] * s.x[j]
			}
		}
	}
	for i := 0; i < m; i++ {
		sj := in.nStruct + i
		v := s.x[sj] + r[i]
		if v >= s.lb[sj]-s.eps && v <= s.ub[sj]+s.eps {
			s.x[sj] = clamp(v, s.lb[sj], s.ub[sj])
			s.basis[i] = sj
			s.stat[sj] = basic
			continue
		}
		resid := r[i] - (s.x[sj] - startValue(s.lb[sj], s.ub[sj]))
		s.x[sj] = startValue(s.lb[sj], s.ub[sj])
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		aj := s.n
		s.artRow = append(s.artRow, int32(i))
		s.artSign = append(s.artSign, sign)
		s.lb[aj] = 0
		s.ub[aj] = Inf
		s.obj2[aj] = 0
		s.stat[aj] = basic
		s.x[aj] = math.Abs(resid)
		s.n++
		s.nArt++
		s.basis[i] = aj
	}
	// The slack/artificial start basis is a ±1 diagonal: its Markowitz
	// factorization is trivial (m singleton pivots) and can never be
	// singular.
	s.refactor()
}

// installBasis loads statuses and the basic set from a snapshot and snaps
// every nonbasic column to its (possibly changed) bound.
func (s *spx) installBasis(b *Basis) {
	for i := 0; i < s.m; i++ {
		s.basis[i] = int(b.basic[i])
	}
	copy(s.stat[:s.nTot], b.stat)
	for j := 0; j < s.nTot; j++ {
		switch {
		case s.stat[j] == basic:
			// computeXB fills these.
		case s.lb[j] == s.ub[j]:
			s.stat[j] = atLower
			s.x[j] = s.lb[j]
		case s.stat[j] == atLower:
			if !math.IsInf(s.lb[j], -1) {
				s.x[j] = s.lb[j]
			} else if !math.IsInf(s.ub[j], 1) {
				s.stat[j] = atUpper
				s.x[j] = s.ub[j]
			} else {
				s.x[j] = 0 // free column parks at 0
			}
		default: // atUpper
			if !math.IsInf(s.ub[j], 1) {
				s.x[j] = s.ub[j]
			} else if !math.IsInf(s.lb[j], -1) {
				s.stat[j] = atLower
				s.x[j] = s.lb[j]
			} else {
				s.stat[j] = atLower
				s.x[j] = 0
			}
		}
	}
}

// factorize runs the sparse LU factorization over the basis columns
// given by basisOf (position → column index), with timing and counter
// bookkeeping. It does NOT touch the anchor/script recipe — refactor and
// reconstruct layer that on top.
func (s *spx) factorize(basisOf func(int) int) bool {
	t0 := time.Now()
	ok := s.lu.factor(func(p int) ([]int32, []float64) { return s.col(basisOf(p)) })
	st := &s.in.stats
	st.Refactors++
	st.FactorNanos += int64(time.Since(t0))
	if ok {
		st.FillNnz = int64(s.lu.nnzFactor)
		st.BasisNnz = int64(s.lu.nnzBasis)
	}
	s.factorOK = ok
	return ok
}

// refactor rebuilds the sparse LU factorization of the current basis
// matrix, making it the new replay anchor (empty script); reports false
// when the basis is singular.
func (s *spx) refactor() bool {
	m := s.m
	if m == 0 {
		s.factorOK = true
		s.pivots = 0
		s.script = s.script[:0]
		s.anchor = emptyAnchor
		s.replayable = true
		return true
	}
	if !s.factorize(func(p int) int { return s.basis[p] }) {
		return false
	}
	// Fresh anchor: a new slice every time, so captured recipes may alias
	// it without copying (it is never mutated again).
	anchor := make([]int32, m)
	art := false
	for i, b := range s.basis {
		anchor[i] = int32(b)
		if b >= s.nTot {
			art = true
		}
	}
	s.anchor = anchor
	s.replayable = !art
	s.script = s.script[:0]
	s.pivots = 0
	return true
}

var emptyAnchor = []int32{}

// reconstruct rebuilds the workspace factorization for a snapshot basis
// after installBasis. With a recipe it factorizes the snapshot's anchor
// and replays the eta script — each eta recomputed as the FTRAN of its
// entering column, which reproduces the capturing workspace's live
// factor state bit for bit (see the spx field comments). Without a
// recipe it factorizes the snapshot basis directly. Reports false on a
// singular basis (the caller falls back to a cold solve).
func (s *spx) reconstruct(b *Basis) bool {
	if b.anchor == nil {
		return s.refactor()
	}
	if !s.factorize(func(p int) int { return int(b.anchor[p]) }) {
		return false
	}
	m := s.m
	for _, rec := range b.script {
		s.ftran(int(rec.enter), s.w[:m])
		// No pivot-magnitude check on replay: the capturing workspace
		// already validated this exact (bitwise-identical) pivot.
		s.lu.appendEta(int(rec.leave), s.w[:m])
	}
	s.anchor = b.anchor // immutable; aliasing is safe
	s.script = append(s.script[:0], b.script...)
	s.replayable = true
	s.pivots = len(b.script)
	if len(b.script) > 0 {
		s.in.stats.Replays++
	}
	return true
}

// computeXB recomputes the basic values x_B = B⁻¹(b − N·x_N).
func (s *spx) computeXB() {
	m := s.m
	r := s.resid[:m]
	copy(r, s.in.rhs)
	for j := 0; j < s.n; j++ {
		if s.stat[j] != basic && s.x[j] != 0 {
			idx, vals := s.col(j)
			for k, row := range idx {
				r[row] -= vals[k] * s.x[j]
			}
		}
	}
	s.luFtran(r, s.xb)
	for i := 0; i < m; i++ {
		s.x[s.basis[i]] = s.xb[i]
	}
}

// luFtran solves B·w = b (b indexed by row, destroyed; w by basis
// position) against the live factorization, with stats bookkeeping.
func (s *spx) luFtran(b, w []float64) {
	t0 := time.Now()
	s.lu.ftran(b, w)
	s.in.stats.Ftrans++
	s.in.stats.SolveNanos += int64(time.Since(t0))
}

// luBtran solves Bᵀ·y = c (c indexed by basis position, destroyed; y by
// row) against the live factorization, with stats bookkeeping.
func (s *spx) luBtran(c, y []float64) {
	t0 := time.Now()
	s.lu.btran(c, y)
	s.in.stats.Btrans++
	s.in.stats.SolveNanos += int64(time.Since(t0))
}

// ftran computes w = B⁻¹·a_j.
func (s *spx) ftran(j int, w []float64) {
	m := s.m
	b := s.fscratch[:m]
	for i := range b {
		b[i] = 0
	}
	idx, vals := s.col(j)
	for k, row := range idx {
		b[row] += vals[k]
	}
	s.luFtran(b, w)
}

// ftranDense computes w = B⁻¹·a for a dense right-hand side a (a is the
// sparse accumulation of the BFRT's flipped columns; it is destroyed).
func (s *spx) ftranDense(a, w []float64) {
	s.luFtran(a, w)
}

// duals computes y = c_B·B⁻¹ for the objective c.
func (s *spx) duals(c []float64) {
	m := s.m
	b := s.fscratch[:m]
	for i := 0; i < m; i++ {
		b[i] = c[s.basis[i]]
	}
	s.luBtran(b, s.y[:m])
}

// btranRow computes y = (B⁻¹ row r)ᵀ = B⁻ᵀ·e_r — the leaving-row vector
// the dual ratio test and the Devex update read.
func (s *spx) btranRow(r int, y []float64) {
	m := s.m
	b := s.fscratch[:m]
	for i := range b {
		b[i] = 0
	}
	b[r] = 1
	s.luBtran(b, y)
}

// rowAndDuals computes the leaving-row vector rho = B⁻ᵀ·e_r and the
// duals y = c_B·B⁻¹ in one fused BTRAN (luFactor.btran2). With lag = 1
// the row is taken against the factor before the newest eta — the
// pre-pivot row of a primal iteration — while the duals see the whole
// eta file and the updated basis. Both halves are bit-identical to
// btranRow and duals on their factors. Only the row is counted in
// Btrans; the caller counts the duals when it reads them.
func (s *spx) rowAndDuals(r int, rho, c []float64, lag int) {
	m := s.m
	er, cb := s.fscratch[:m], s.bscratch[:m]
	for i := range er {
		er[i] = 0
		cb[i] = c[s.basis[i]]
	}
	er[r] = 1
	t0 := time.Now()
	s.lu.btran2(er, rho, cb, s.y[:m], lag)
	s.in.stats.Btrans++
	s.in.stats.SolveNanos += int64(time.Since(t0))
}

// reducedCost returns c_j − y·a_j.
func (s *spx) reducedCost(c []float64, j int) float64 {
	d := c[j]
	idx, vals := s.col(j)
	for k, row := range idx {
		d -= s.y[row] * vals[k]
	}
	return d
}

// pivotUpdate appends a product-form eta to the live factorization after
// `enter` replaces the basic variable of position `leave`; w = B⁻¹·a_enter.
// The pivot is also recorded on the replay script so captured bases can
// reconstruct the exact factor state. Reports false when the pivot
// element is numerically unusable.
func (s *spx) pivotUpdate(enter, leave int, w []float64) bool {
	if math.Abs(w[leave]) < s.pivotTol {
		return false
	}
	s.lu.appendEta(leave, w)
	s.script = append(s.script, pivotRec{enter: int32(enter), leave: int32(leave)})
	if enter >= s.nTot {
		// An artificial column entered (phase 1): the script is not
		// replayable in another workspace, whose artificial layout is
		// rebuilt per solve.
		s.replayable = false
	}
	s.pivots++
	s.in.stats.EtaPivots++
	return true
}

// checkAbort reports whether the deadline passed or the cancel channel
// closed.
func (s *spx) checkAbort() bool {
	if s.abortSet {
		return true
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.abortSet = true
		return true
	}
	if s.cancel != nil {
		select {
		case <-s.cancel:
			s.abortSet = true
			return true
		default:
		}
	}
	return false
}

func (s *spx) aborted() bool { return s.abortSet }

// blandRecovery is the number of consecutive nondegenerate steps after
// which Bland-mode pricing reverts to Devex: Bland's rule is an
// anti-cycling device, not a pricing strategy, and once the solve escapes
// the degenerate plateau that triggered it, staying on Bland degrades
// every remaining iteration. The Devex reference weights are
// re-initialized on recovery (the old frame is stale after Bland pivots).
const blandRecovery = 8

// primal runs bounded-variable primal simplex iterations for objective c
// until optimal, unbounded, or the budget runs out. Pricing is Devex by
// default (Dantzig under Options.Pricing), with Bland's rule under
// prolonged degeneracy (reverting to Devex after a nondegenerate run).
// The ratio test is a Harris-style two-pass test: pass 1 finds the
// smallest step attainable when every bound may flex by its feasibility
// band, pass 2 takes the largest-magnitude pivot whose exact ratio fits
// under that limit — on degenerate vertices this trades a zero-length
// step on a tiny pivot for a (possibly still zero) step on a stable one,
// and combined with the EXPAND shifts it turns exact ties into strictly
// positive progress.
func (s *spx) primal(c []float64, maxIters int) (Status, int) {
	if maxIters <= 0 {
		return IterLimit, 0
	}
	m := s.m
	w := s.w[:m]
	devex := s.opts.Pricing == PricingDevex
	for j := 0; j < s.n; j++ {
		s.gamma[j] = 1
	}
	degenerate := 0
	nondegenRun := 0
	useBland := false
	// yReady: s.y already holds this iteration's duals — carried over a
	// bound flip (basis, factor and c unchanged, so a recomputation would
	// give the same bits) or computed by the previous pivot's fused
	// BTRAN. Either way its BTRAN is counted here, where it is consumed.
	yReady := false
	for it := 0; it < maxIters; it++ {
		if it%64 == 0 && s.checkAbort() {
			return IterLimit, it
		}
		if yReady {
			s.in.stats.Btrans++
			yReady = false
		} else {
			s.duals(c)
		}
		// Pricing.
		enter := -1
		bestScore := 0.0
		var dir float64 // +1 entering increases, −1 decreases
		for j := 0; j < s.n; j++ {
			if s.stat[j] == basic || s.entryFixed(j) {
				continue
			}
			d := s.reducedCost(c, j)
			var viol, dd float64
			switch {
			case s.stat[j] == atLower && d < -s.eps:
				viol, dd = -d, 1
			case s.stat[j] == atLower && d > s.eps && math.IsInf(s.lb[j], -1):
				// Free column parked at 0 can also decrease.
				viol, dd = d, -1
			case s.stat[j] == atUpper && d > s.eps:
				viol, dd = d, -1
			default:
				continue
			}
			if useBland {
				enter, dir = j, dd
				break
			}
			score := viol
			if devex {
				score = viol * viol / s.gamma[j]
			}
			if score > bestScore {
				bestScore, enter, dir = score, j, dd
			}
		}
		if enter < 0 {
			return Optimal, it
		}
		s.ftran(enter, w)
		// Ratio test: entering moves by t·dir ≥ 0; basic i changes by
		// −dir·t·w[i]. tFlip is the bound-flip distance, measured from the
		// entering variable's current value, NOT as ub−lb: a column can be
		// parked strictly between its bounds (a semi-free column sitting at
		// 0, e.g. a ≥-row slack whose zero upper bound was perturbed away
		// from the parking spot), and bound-to-bound distance would let it
		// blow straight through the near bound.
		var tFlip float64
		if dir > 0 {
			tFlip = s.ub[enter] - s.x[enter]
		} else {
			tFlip = s.x[enter] - s.lb[enter]
		}
		tMax := tFlip
		leave := -1
		leaveToUpper := false
		if useBland {
			// Bland mode keeps the strict textbook single-pass test (its
			// anti-cycling argument needs exact minimal ratios; the slack
			// scales with the pivot tolerance, not a magic 1e-12).
			for i := 0; i < m; i++ {
				delta := -dir * w[i]
				if delta > s.eps { // basic increases toward ub
					bi := s.basis[i]
					if !math.IsInf(s.ub[bi], 1) {
						t := (s.ub[bi] - s.x[bi]) / delta
						if t < tMax-s.pivotTol {
							tMax, leave, leaveToUpper = t, i, true
						}
					}
				} else if delta < -s.eps { // basic decreases toward lb
					bi := s.basis[i]
					if !math.IsInf(s.lb[bi], -1) {
						t := (s.lb[bi] - s.x[bi]) / delta
						if t < tMax-s.pivotTol {
							tMax, leave, leaveToUpper = t, i, false
						}
					}
				}
			}
			if math.IsInf(tMax, 1) {
				return Unbounded, it
			}
		} else {
			// Harris pass 1: the smallest step when every blocking bound
			// may flex by its feasibility band eps·max(1,|bound|).
			tLim := tFlip
			for i := 0; i < m; i++ {
				delta := -dir * w[i]
				if delta > s.eps {
					bi := s.basis[i]
					if ub := s.ub[bi]; !math.IsInf(ub, 1) {
						if t := (ub - s.x[bi] + s.primalBand*boundScale(ub)) / delta; t < tLim {
							tLim = t
						}
					}
				} else if delta < -s.eps {
					bi := s.basis[i]
					if lb := s.lb[bi]; !math.IsInf(lb, -1) {
						if t := (lb - s.x[bi] - s.primalBand*boundScale(lb)) / delta; t < tLim {
							tLim = t
						}
					}
				}
			}
			if math.IsInf(tLim, 1) {
				return Unbounded, it
			}
			// Harris pass 2: among rows whose exact ratio fits under the
			// relaxed limit, take the largest-magnitude pivot. The row
			// that set tLim always qualifies (its exact ratio is below its
			// own relaxed one), so leave < 0 means no row blocks before
			// the bound-flip distance.
			bestPiv := 0.0
			for i := 0; i < m; i++ {
				delta := -dir * w[i]
				if delta > s.eps {
					bi := s.basis[i]
					if ub := s.ub[bi]; !math.IsInf(ub, 1) {
						if t := (ub - s.x[bi]) / delta; t <= tLim && delta > bestPiv {
							bestPiv, tMax, leave, leaveToUpper = delta, t, i, true
						}
					}
				} else if delta < -s.eps {
					bi := s.basis[i]
					if lb := s.lb[bi]; !math.IsInf(lb, -1) {
						if t := (lb - s.x[bi]) / delta; t <= tLim && -delta > bestPiv {
							bestPiv, tMax, leave, leaveToUpper = -delta, t, i, false
						}
					}
				}
			}
			if leave < 0 {
				tMax = tFlip
			}
			if math.IsInf(tMax, 1) {
				return Unbounded, it
			}
		}
		if leave >= 0 && math.Abs(w[leave]) < s.pivotTol {
			// Numerically unusable pivot. With a fresh factorization the
			// basis is genuinely stuck; otherwise rebuild and re-derive
			// the direction next iteration.
			if s.pivots == 0 {
				return IterLimit, it
			}
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
			continue
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax < s.pivotTol {
			degenerate++
			nondegenRun = 0
			if degenerate > 3*m+50 {
				useBland = true
			}
		} else {
			degenerate = 0
			if useBland {
				// Bland recovery (the fallback used to be sticky): a run
				// of nondegenerate steps means the plateau is behind us —
				// return to Devex with a fresh reference frame.
				if nondegenRun++; nondegenRun >= blandRecovery {
					useBland = false
					nondegenRun = 0
					for j := 0; j < s.n; j++ {
						s.gamma[j] = 1
					}
				}
			}
		}
		// Apply the step.
		s.x[enter] += dir * tMax
		for i := 0; i < m; i++ {
			s.x[s.basis[i]] -= dir * tMax * w[i]
		}
		if leave < 0 {
			// Bound flip: entering switches bound, basis unchanged.
			if dir > 0 {
				s.stat[enter] = atUpper
				s.x[enter] = s.ub[enter]
			} else {
				s.stat[enter] = atLower
				s.x[enter] = s.lb[enter]
			}
			yReady = true
			continue
		}
		lv := s.basis[leave]
		if leaveToUpper {
			s.stat[lv] = atUpper
			s.x[lv] = s.ub[lv]
		} else {
			s.stat[lv] = atLower
			s.x[lv] = s.lb[lv]
		}
		gammaEnter := s.gamma[enter]
		alphaE := w[leave]
		// Devex needs the pre-pivot row. Unless a refactorization follows
		// this pivot, it is fused with the next iteration's duals: append
		// the eta first, then btran2 with lag 1 (see rowAndDuals).
		needRow := devex && !useBland
		fuse := needRow && s.pivots+1 < s.opts.RefactorEvery
		if needRow && !fuse {
			s.btranRow(leave, s.rho[:m]) // pre-pivot row
		}
		s.stat[enter] = basic
		s.basis[leave] = enter
		if !s.pivotUpdate(enter, leave, w) {
			return IterLimit, it // excluded by the pre-pivot magnitude check
		}
		if fuse {
			s.rowAndDuals(leave, s.rho[:m], c, 1)
			yReady = true
		}
		if needRow {
			// Devex reference-weight update from the pre-pivot row.
			s.gamma[lv] = math.Max(gammaEnter/(alphaE*alphaE), 1)
			ratio2 := gammaEnter / (alphaE * alphaE)
			maxGamma := 1.0
			for j := 0; j < s.n; j++ {
				if s.stat[j] == basic || j == lv || s.entryFixed(j) {
					continue
				}
				idx, vals := s.col(j)
				alpha := 0.0
				for k, row := range idx {
					alpha += s.rho[row] * vals[k]
				}
				if alpha != 0 {
					if cand := alpha * alpha * ratio2; cand > s.gamma[j] {
						s.gamma[j] = cand
					}
				}
				if s.gamma[j] > maxGamma {
					maxGamma = s.gamma[j]
				}
			}
			if maxGamma > 1e10 {
				for j := 0; j < s.n; j++ {
					s.gamma[j] = 1
				}
			}
		}
		if s.pivots >= s.opts.RefactorEvery {
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
		}
	}
	return IterLimit, maxIters
}

// dual runs bounded-variable dual simplex iterations on the phase-2
// objective until primal feasibility is restored (Optimal), primal
// infeasibility is proven (Infeasible), or the budget runs out
// (IterLimit — the caller then falls back to a cold solve).
func (s *spx) dual(maxIters int) (Status, int) {
	if maxIters <= 0 {
		return IterLimit, 0
	}
	m := s.m
	w := s.w[:m]
	rho := s.rho[:m]
	for it := 0; it < maxIters; it++ {
		if it%64 == 0 && s.checkAbort() {
			return IterLimit, it
		}
		// Leaving row: the most primal-infeasible basic variable, measured
		// relative to the bound's magnitude. The relative test matters under
		// per-node perturbation: two seeds shift a bound b by amounts that
		// differ by up to perturbScaleFactor·eps·(1+|b|), so an absolute
		// test would chase sub-tolerance "violations" on large bounds after
		// every warm handoff; scaling by boundScale keeps those invisible.
		r := -1
		worst := s.dualTol
		below := false
		for i := 0; i < m; i++ {
			bi := s.basis[i]
			if v := (s.lb[bi] - s.x[bi]) / boundScale(s.lb[bi]); v > worst {
				worst, r, below = v, i, true
			}
			if v := (s.x[bi] - s.ub[bi]) / boundScale(s.ub[bi]); v > worst {
				worst, r, below = v, i, false
			}
		}
		if r < 0 {
			return Optimal, it
		}
		s.rowAndDuals(r, rho, s.obj2, 0)
		s.in.stats.Btrans++ // the duals half, read by the entering scan
		// Entering scan: record every admissible nonbasic as a breakpoint
		// (column, |α|, strict ratio |d|/|α|) for the bound-flipping ratio
		// test below. An empty candidate set means no column can repair
		// row r at all.
		s.candJ, s.candA, s.candR = s.candJ[:0], s.candA[:0], s.candR[:0]
		for j := 0; j < s.n; j++ {
			if s.stat[j] == basic || s.entryFixed(j) {
				continue
			}
			idx, vals := s.col(j)
			alpha := 0.0
			for k, row := range idx {
				alpha += rho[row] * vals[k]
			}
			aAbs := math.Abs(alpha)
			if aAbs <= s.alphaTol {
				continue
			}
			free := math.IsInf(s.lb[j], -1) && math.IsInf(s.ub[j], 1)
			// Moving x_j by δ changes x_B[r] by −α·δ; we need it to
			// increase (below) or decrease (above), within j's one
			// admissible direction.
			if !free {
				if below {
					if s.stat[j] == atLower && alpha >= 0 {
						continue
					}
					if s.stat[j] == atUpper && alpha <= 0 {
						continue
					}
				} else {
					if s.stat[j] == atLower && alpha <= 0 {
						continue
					}
					if s.stat[j] == atUpper && alpha >= 0 {
						continue
					}
				}
			}
			d := math.Abs(s.reducedCost(s.obj2, j))
			s.candJ = append(s.candJ, int32(j))
			s.candA = append(s.candA, aAbs)
			s.candR = append(s.candR, d/aAbs)
		}
		// Bound-flipping ratio test (BFRT), Harris-banded. The previous
		// scheme picked ONE entering column per iteration and, when the
		// repair step overshot its box, flipped it and returned to the
		// outer loop without a basis change. On the scheduling models that
		// two-cycles forever: with every reduced cost at zero, the same
		// column is the min-ratio repair for two rows that it alternately
		// fixes and re-violates, and a flip changes no basis, prices, or
		// weights, so nothing ever breaks the tie — the degenerate-
		// scheduling stall. The BFRT instead walks ALL breakpoints of the
		// leaving row in ratio order inside the iteration: a candidate
		// whose box capacity |α|·span cannot absorb the remaining
		// infeasibility is flipped and the walk continues, and the
		// iteration ends in an actual pivot (or a fully repaired row), so
		// flip-only iterations — the raw material of the cycle — no longer
		// exist. Breakpoints within the Harris dual band of each other are
		// treated as one group and the largest-|α| group member that can
		// absorb the rest pivots, keeping pivots numerically sound.
		bi := s.basis[r]
		target := s.ub[bi]
		if below {
			target = s.lb[bi]
		}
		idx := s.candIdx[:0]
		for k := range s.candJ {
			idx = append(idx, k)
		}
		sort.SliceStable(idx, func(a, b int) bool { return s.candR[idx[a]] < s.candR[idx[b]] })
		s.candIdx = idx
		rem := math.Abs(s.x[bi] - target)
		remTol := s.dualTol * boundScale(target)
		for i := 0; i < m; i++ {
			s.acc[i] = 0
		}
		enter, nFlip := -1, 0
		for pos := 0; pos < len(idx) && enter < 0 && rem > remTol; {
			// Band group: breakpoints within dualBand of the smallest
			// unprocessed ratio are dual-feasibility-equivalent choices.
			lim := s.candR[idx[pos]] + s.dualBand
			end := pos
			for end < len(idx) && s.candR[idx[end]] <= lim {
				end++
			}
			for pos < end && enter < 0 && rem > remTol {
				pivotQ, flipQ := -1, -1
				pivotAlpha, flipCap := 0.0, 0.0
				for q := pos; q < end; q++ {
					k := idx[q]
					if k < 0 {
						continue // flipped earlier in this group
					}
					j := int(s.candJ[k])
					cap := s.candA[k] * (s.ub[j] - s.lb[j])
					// A candidate that can absorb the rest — even only up to
					// the repair tolerance — is the crossing breakpoint and
					// must PIVOT, not flip: a flip that zeroes the row
					// without a basis change leaves the column dual-
					// infeasible (no dual step crossed its ratio), and it
					// flips straight back next iteration, forever.
					if cap >= rem-remTol {
						if pivotQ < 0 || s.candA[k] > pivotAlpha {
							pivotQ, pivotAlpha = q, s.candA[k]
						}
					} else if flipQ < 0 || cap > flipCap {
						flipQ, flipCap = q, cap
					}
				}
				if pivotQ >= 0 {
					enter = int(s.candJ[idx[pivotQ]])
					break
				}
				if flipQ < 0 {
					break // group exhausted by flips; next band
				}
				// No group member absorbs the rest: flip the one with the
				// largest capacity and keep walking.
				k := idx[flipQ]
				j := int(s.candJ[k])
				span := s.ub[j] - s.lb[j]
				f := span
				if s.stat[j] == atUpper {
					f = -span
					s.stat[j] = atLower
					s.x[j] = s.lb[j]
				} else {
					s.stat[j] = atUpper
					s.x[j] = s.ub[j]
				}
				cidx, cvals := s.col(j)
				for t, row := range cidx {
					s.acc[row] += f * cvals[t]
				}
				rem -= flipCap
				nFlip++
				idx[flipQ] = -1
			}
			pos = end
		}
		if nFlip > 0 {
			// One combined FTRAN applies every flip to the basic values:
			// x_B -= B⁻¹·Σ f_j·A_j.
			s.ftranDense(s.acc, w)
			for i := 0; i < m; i++ {
				s.x[s.basis[i]] -= w[i]
			}
		}
		if enter < 0 {
			if rem > remTol {
				// Every breakpoint is exhausted and row r is still
				// infeasible: the dual is unbounded — the bound change made
				// the LP primally infeasible. (Applied flips are valid
				// bound-to-bound moves; the status discards the point.)
				return Infeasible, it
			}
			// The flips alone repaired the row; no basis change needed
			// (kept as a safety valve: the crossing-breakpoint rule above
			// makes this branch unreachable in practice).
			continue
		}
		s.ftran(enter, w)
		alphaE := w[r]
		if math.Abs(alphaE) < s.alphaTol {
			// Factorization drift: rebuild and retry the iteration. With
			// a fresh factorization the pivot is genuinely degenerate —
			// bail out to the cold path. (Flips stay applied: they are
			// consistent bound moves regardless of the factorization.)
			if s.pivots == 0 {
				return IterLimit, it
			}
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
			continue
		}
		delta := (s.x[bi] - target) / alphaE
		s.x[enter] += delta
		for i := 0; i < m; i++ {
			s.x[s.basis[i]] -= delta * w[i]
		}
		s.x[bi] = target
		if below || s.lb[bi] == s.ub[bi] {
			s.stat[bi] = atLower
		} else {
			s.stat[bi] = atUpper
		}
		s.stat[enter] = basic
		s.basis[r] = enter
		if !s.pivotUpdate(enter, r, w) {
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
			continue
		}
		if s.pivots >= s.opts.RefactorEvery {
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
		}
	}
	return IterLimit, maxIters
}

// entryFixed reports whether column j has no usable span as an entering
// column: truly fixed by the caller (lb == ub), or fixed up to the tiny
// box the EXPAND perturbation opened around a fixed value. Perturbed
// boxes exist to give *basic* degenerate variables room for nonzero-length
// steps; entering a ~1e-9-wide box repairs nothing and burns the iteration
// budget, so pricing and the dual entering scan still treat those columns
// as fixed.
func (s *spx) entryFixed(j int) bool {
	if s.perturbed && j < s.nTot {
		return s.lbTrue[j] == s.ubTrue[j]
	}
	return s.lb[j] == s.ub[j]
}

// boundScale is the relative scaling of the Harris feasibility band for a
// bound b: bands are eps·max(1,|b|), so the flex a bound is allowed
// matches the relative feasibility test instead of being absolute.
func boundScale(b float64) float64 {
	if a := math.Abs(b); a > 1 {
		return a
	}
	return 1
}

// maxViolation returns the largest bound violation over the basic
// variables (nonbasics sit exactly on bounds by construction).
func (s *spx) maxViolation() float64 {
	worst := 0.0
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		if v := s.lb[bi] - s.x[bi]; v > worst {
			worst = v
		}
		if v := s.x[bi] - s.ub[bi]; v > worst {
			worst = v
		}
	}
	return worst
}

// finish runs after a solve reaches optimality on the working bounds: it
// removes the EXPAND shifts (restore the exact bounds, snap nonbasics to
// the exact bounds, recompute basics from them) and then re-solves the
// residuals away — a dual pass repairs bound violations beyond the
// feasibility tolerance left by the shifts or the Harris bands, and a
// primal pass repairs any dual infeasibility the dual band allowed. The
// loop runs until the primal confirms optimality without pivoting (or a
// small round cap). The shifts are ~1e-2·Eps, so in the common case the
// restored basis is already feasible at the reporting tolerance and both
// passes confirm in zero pivots; the reported point has nonbasics exactly
// on the true bounds and basics solved exactly from them, bit-for-bit
// reproducible for a given (matrix, basis, bounds, PerturbSeq).
//
// On Infeasible/IterLimit from the clean-up passes the point is accepted
// as Optimal anyway when every bound violation is within the reporting
// tolerance — tolerance-skipped pivot columns must not flip an optimal
// node to infeasible over residual noise.
func (s *spx) finish(budget int) (Status, int) {
	if s.perturbed {
		copy(s.lb[:s.nTot], s.lbTrue)
		copy(s.ub[:s.nTot], s.ubTrue)
		s.perturbed = false
		for j := 0; j < s.nTot; j++ {
			switch s.stat[j] {
			case atLower:
				if !math.IsInf(s.lb[j], -1) {
					s.x[j] = s.lb[j]
				}
			case atUpper:
				if !math.IsInf(s.ub[j], 1) {
					s.x[j] = s.ub[j]
				}
			}
		}
		s.computeXB()
	}
	if s.costPerturbed {
		for j := range s.obj2[:s.nTot] {
			s.obj2[j] = 0
		}
		copy(s.obj2[:s.in.nStruct], s.in.obj)
		s.costPerturbed = false
	}
	total := 0
	for round := 0; round < 3; round++ {
		st, it := s.dual(budget - total)
		total += it
		if st == Infeasible || st == IterLimit {
			if s.aborted() || s.maxViolation() > s.eps {
				return st, total
			}
			// Residuals below the reporting tolerance: accept.
		}
		st, it = s.primal(s.obj2, budget-total)
		total += it
		if st != Optimal {
			return st, total
		}
		if it == 0 {
			return Optimal, total
		}
	}
	return Optimal, total
}

// result packages the current point, capturing the basis on optimality.
func (s *spx) result(st Status, iters int, coldRestart bool) Result {
	in := s.in
	res := Result{
		Status: st, Iters: iters, ColdRestart: coldRestart,
		Perturbed: s.didPerturb, CleanupIters: s.cleanupIters,
	}
	res.X = make([]float64, in.nStruct)
	copy(res.X, s.x[:in.nStruct])
	for j := 0; j < in.nStruct; j++ {
		res.Obj += in.obj[j] * res.X[j]
	}
	if st == Optimal {
		res.Basis = s.captureBasis()
	}
	return res
}

// captureBasis snapshots the final basis for SolveFrom. Basic artificials
// (always at zero after a successful phase 1) are swapped for their row's
// slack so the snapshot only references structural and slack columns;
// when the slack is itself basic elsewhere the basis is not capturable
// and nil is returned (the caller then cold-starts descendants).
//
// The snapshot carries the live factorization's replay recipe
// (anchor basis + eta script) whenever that recipe is expressible in
// matrix columns alone. When it is not — artificial columns in the
// anchor or script, or an artificial swap just now — the workspace
// re-anchors by refactorizing the swapped (clean) basis, which both
// restores a valid live factorization and gives the snapshot an
// empty-script recipe. Either way the captured recipe is a pure function
// of the solve's inputs, so descendants reconstruct identical factor
// bits on any workspace.
func (s *spx) captureBasis() *Basis {
	m := s.m
	swapped := false
	for i := 0; i < m; i++ {
		if s.basis[i] < s.nTot {
			continue
		}
		k := s.basis[i] - s.nTot
		sj := s.in.nStruct + int(s.artRow[k])
		if s.stat[sj] == basic {
			return nil
		}
		// The artificial sits at zero, so relabeling the row's slack as
		// basic keeps the same point.
		s.basis[i] = sj
		s.stat[sj] = basic
		swapped = true
	}
	b := &Basis{basic: make([]int32, m), stat: make([]vstat, s.nTot)}
	for i := 0; i < m; i++ {
		b.basic[i] = int32(s.basis[i])
	}
	copy(b.stat, s.stat[:s.nTot])
	if swapped || !s.replayable {
		if !s.refactor() {
			// Singular after the swap: hand out the snapshot without a
			// recipe (SolveFrom will fall back to a cold solve) and keep
			// the hot path off.
			s.liveBasis = nil
			return b
		}
	}
	b.anchor = s.anchor // immutable once created; aliasing is safe
	b.script = append([]pivotRec(nil), s.script...)
	s.liveBasis = b
	return b
}

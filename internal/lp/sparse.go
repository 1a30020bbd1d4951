package lp

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// This file is the bounded-variable simplex over the sparse LU of lu.go:
// a cold primal (phase 1 on artificials, then phase 2) and a warm dual
// re-solve from a replayable basis snapshot.
//
// Every BTRAN goes through spx.btran, which fills the leaving row e_r,
// the duals' c_B or both, with their pattern, and runs lu.go's one BTRAN
// kernel on them; a primal pivot's row and the next duals share a call.
//
// Each iteration's loops cost what can change their result, not m and
// n. PRICE runs row by row over the nonzeros of y or ρ while they are
// few (priceByRow). Pricing, the Devex update and the dual's entering
// scan walk a bitmap of the eligible columns, the nonbasic ones that
// are not entryFixed, and after a row-wise PRICE the last two walk only
// the columns it touched (walkWords); the Devex reset test stays exact
// because a skipped column's weight is bounded (devexUpdate). Every
// result keeps its bits but for the signs of zeros, which nothing reads
// (DESIGN.md, "Sparse LU core").

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

	// The same matrix by rows, for row-wise PRICE: row i holds its
	// entries in ascending column order, so each column meets its terms
	// in its CSC order when rows are taken in ascending order. finite
	// reports that every coefficient is finite.
	rowPtr []int32
	rowCol []int32
	rowVal []float64
	finite bool

	slackLb, slackUb []float64 // per row, fixed by the row sense

	// fprint is a content hash of the assembled instance, the per-matrix
	// half of the EXPAND perturbation seed (see perturb.go).
	fprint uint64

	ws *spx // lazily allocated, reused across sequential solves

	stats FactorStats // cumulative factorization counters (see Stats)
}

// FactorStats counts the factorization work an Instance has performed
// since Prepare. The counters are workspace-level bookkeeping: live-factor
// reuse and refactorization cadence depend on which solves ran on this
// instance, so they are deliberately NOT part of Result (whose fields
// must stay byte-identical across worker schedules) — callers aggregate
// them out of band (mip.Options.LUStats, the solver benchmark's LU leg).
type FactorStats struct {
	Refactors int64 // Markowitz factorizations (cold starts, reconstructions from another anchor, cadence rebuilds)
	Replays   int64 // SolveFrom reconstructions that recomputed at least one snapshot eta
	HotSolves int64 // those that recomputed none: same anchor, whole script already in the live eta file
	EtaPivots int64 // product-form updates appended across all solves
	Ftrans    int64 // sparse triangular FTRAN solves
	Btrans    int64 // sparse triangular BTRAN solves
	// EtaTerms counts the eta-file entries the FTRAN and BTRAN eta passes
	// visit: an FTRAN eta's entries when its pivot value is nonzero, a
	// BTRAN eta's entries, or the right-hand side's nonzero positions
	// when those are fewer (one visit serves both halves of a fused
	// BTRAN). Like the solve counts it is a deterministic work count.
	EtaTerms int64
	// TriTerms counts the stages and factor entries the L and U passes
	// of FTRAN and BTRAN visit, a mark a sparse U pass sets counting as
	// one; PriceTerms counts the matrix entries PRICE visits (reduced
	// costs and pivot-row products). Both are deterministic work counts.
	TriTerms   int64
	PriceTerms int64
	// ScanCols counts the columns that primal pricing, the Devex update
	// and the dual's entering scan visit, a deterministic work count like
	// the others.
	ScanCols int64
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
	st.EtaTerms += o.EtaTerms
	st.TriTerms += o.TriTerms
	st.PriceTerms += o.PriceTerms
	st.ScanCols += o.ScanCols
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
	in.buildRows()
	in.fprint = in.fingerprint()
	return in
}

// buildRows fills the row-major copy of the CSC matrix and the finite
// flag.
func (in *Instance) buildRows() {
	m, nTot := in.m, in.nStruct+in.m
	in.rowPtr = make([]int32, m+1)
	for _, i := range in.rowIdx {
		in.rowPtr[i+1]++
	}
	for i := 0; i < m; i++ {
		in.rowPtr[i+1] += in.rowPtr[i]
	}
	in.rowCol = make([]int32, len(in.rowIdx))
	in.rowVal = make([]float64, len(in.vals))
	next := slices.Clone(in.rowPtr[:m])
	in.finite = true
	for j := 0; j < nTot; j++ {
		for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
			i, v := in.rowIdx[k], in.vals[k]
			in.rowCol[next[i]] = int32(j)
			in.rowVal[next[i]] = v
			next[i]++
			// v−v is 0 for every finite v and NaN for ±Inf and NaN.
			in.finite = in.finite && v-v == 0
		}
	}
}

// Fingerprint returns the instance's content hash: the per-matrix half of
// the key under which the EXPAND perturbation and fault injection make
// their deterministic decisions.
func (in *Instance) Fingerprint() uint64 { return in.fprint }

// Solve cold-solves the instance under the given structural bounds:
// phase-1 artificial start, then primal simplex on the true objective.
func (in *Instance) Solve(lb, ub []float64, opts Options) Result {
	s := in.workspace(&opts)
	if !s.resetBounds(lb, ub) {
		return Result{Status: Infeasible}
	}
	s.coldStart()

	budget := iterBudget(in.m, in.nStruct)
	iters := 0
	if s.nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		c1 := make([]float64, s.n)
		for j := s.nTot; j < s.n; j++ {
			c1[j] = 1
		}
		st, it := s.primal(c1, budget)
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
	st, it := s.primal(s.obj2, budget-iters)
	iters += it
	if st == Optimal {
		st, it = s.finish(budget - iters)
		iters += it
		s.cleanupIters += it
	}
	return s.result(st, iters, false)
}

// SolveFrom reoptimizes from a previously returned basis after bound
// changes, using the bounded-variable dual simplex: the supplied basis
// stays dual feasible when only bounds moved (the branch-and-bound case),
// so a handful of dual pivots restore primal feasibility where a cold
// solve would replay phases 1 and 2 from scratch. The basis inverse is
// rebuilt from the snapshot's recipe, keeping what the live factor
// shares with it (see reconstruct). On an unusable basis, numerical
// trouble, or a stalled dual, primal clean-up or shift removal it
// transparently falls back to a cold solve (Result.ColdRestart reports
// this); only a solve cut short by its context returns IterLimit without
// one.
func (in *Instance) SolveFrom(basis *Basis, lb, ub []float64, opts Options) Result {
	if basis == nil || len(basis.basic) != in.m || len(basis.stat) != in.nStruct+in.m {
		return in.coldFallback(lb, ub, opts, 0)
	}
	if opts.Inject != nil && opts.Inject.ForceColdFallback(in.fprint, opts.PerturbSeq) {
		// Injected fault: pretend the supplied basis was unusable and take
		// the cold-restart path. Decided purely from (fprint, PerturbSeq),
		// so the same solve injects on every run and worker.
		res := in.coldFallback(lb, ub, opts, 0)
		res.Injected = true
		return res
	}
	s := in.workspace(&opts)
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
	if singular || !s.reconstruct(basis) {
		res := in.coldFallback(lb, ub, opts, 0)
		res.Injected = singular
		return res
	}
	s.computeXB()

	// Dual reoptimization with a ski-rental budget: about what the cold
	// restart that replaces it would cost. A cold root of the holistic
	// scheduling models takes 0.43–1.34·m iterations (mean 0.85·m over
	// solve-ilp's 17), so a dual abandoned at 50 + m has spent about its
	// restart's price, and a re-solve costs at most about twice the better
	// of the two paths. The warm duals that outgrow a tighter m/4 are not
	// stalling: on the solve-ilp trees and the solver bench's LU leg they
	// finish at 0.31–0.41·m with a strictly positive dual ratio at every
	// pivot, while each cold restart paid 583–2,022 iterations. The budget
	// is the backstop for NoPerturb runs and pathological handoffs.
	st, it := s.dual(50 + s.m)
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
		return in.coldFallback(lb, ub, opts, iters)
	}
	// Primal cleanup: a no-op when the dual finished cleanly, and the
	// safety net when reduced costs drifted across the basis handoff.
	budget := iterBudget(in.m, in.nStruct)
	st, it = s.primal(s.obj2, budget-iters)
	iters += it
	if st == Optimal {
		st, it = s.finish(budget - iters)
		iters += it
		s.cleanupIters += it
		if st == Infeasible {
			return Result{Status: Infeasible, Iters: iters, Perturbed: s.didPerturb}
		}
	}
	if st == IterLimit && !s.aborted() && !isDone(s.done) {
		// The primal clean-up or the shift removal stalled on this basis:
		// cold-restart against the exact bounds rather than report a
		// point that is not optimal or still carries shift residuals.
		return in.coldFallback(lb, ub, opts, iters)
	}
	return s.result(st, iters, false)
}

// coldFallback is SolveFrom's way out of a warm re-solve it cannot
// finish: a cold solve, marked ColdRestart, that also counts the warm
// iters already spent.
func (in *Instance) coldFallback(lb, ub []float64, opts Options, iters int) Result {
	res := in.Solve(lb, ub, opts)
	res.ColdRestart = true
	res.Iters += iters
	return res
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
	bscratch         []float64 // second BTRAN right-hand side (spx.btran), length m
	nz               []int32   // BTRAN right-hand-side pattern, capacity m
	xb               []float64 // computeXB solution scratch, length m
	dj               []float64 // row-wise PRICE output, per column
	priceRows        []int32   // row-wise PRICE's rows, capacity m

	// Column walks (see walkWords): elig has bit j set while column j
	// is nonbasic and not entryFixed, the only columns pricing, the
	// Devex update and the dual's entering scan read; primal and dual
	// build it on entry, and every pivot updates it. touched has bit j
	// set for each column rowAlphas wrote; the walk that reads them
	// clears it.
	elig, touched []uint64

	// Dual ratio-test candidate scratch (the BFRT walk re-reads what the
	// entering scan computed instead of re-scanning the columns).
	candJ []int32
	candA []float64 // |alpha| per candidate
	candR []float64 // strict ratio per candidate
	bfrt  bfrtOrder // the BFRT walk's breakpoint order over candR
	acc   []float64 // accumulated flipped-column updates (dense m-vector)

	// The replay recipe of the live factorization, the determinism
	// device: while factorOK holds, the live factor state is exactly
	// factor(anchor) followed by one eta per script pivot, each the FTRAN
	// of its entering column against the state before it — so
	// reconstructing a captured recipe, or keeping a common prefix of the
	// live etas, reaches the live path's factor bit for bit. len(script)
	// is the eta count the refactorization cadence reads. See DESIGN.md
	// ("Sparse LU core").
	factorOK   bool
	anchor     []int32    // basis at the factorization anchor; immutable once set
	script     []pivotRec // pivots applied since the anchor, in order
	replayable bool       // false when the anchor or script references artificial columns

	opts     *Options
	done     <-chan struct{} // Options.Context.Done(), captured once per solve
	abortSet bool
}

// Tolerances derived from eps; see their uses for the roles. Row and
// bound magnitudes enter through relative tests (boundScale) rather than
// by inflating the pivot cutoffs: scaling cutoffs by the matrix norm was
// measured to misclassify usable pivots on the scheduling models (max
// |coefficient| ≈ 1.3e3 would put alphaTol above genuine pivot magnitudes
// and stall the dual).
const (
	pivotTol = 1e-5 * eps // unusable-pivot cutoff
	alphaTol = 1e-2 * eps // dual ratio-test pivot eligibility
	dualTol  = eps        // primal-feasibility threshold of the dual's leaving row
)

// workspace returns the reusable solver state, (re)allocating on first
// use.
func (in *Instance) workspace(opts *Options) *spx {
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
			nz: make([]int32, 0, m),
			xb: make([]float64, m),
			dj: make([]float64, total), priceRows: make([]int32, 0, m),
			gamma: make([]float64, total),
			elig:  make([]uint64, (total+63)/64), touched: make([]uint64, (total+63)/64),
			candJ: make([]int32, 0, total), candA: make([]float64, 0, total),
			candR: make([]float64, 0, total),
			acc:   make([]float64, m),
		}
	}
	s := in.ws
	s.opts = opts
	s.done = doneChan(opts.Context)
	s.abortSet = false
	s.perturbed, s.didPerturb, s.costPerturbed = false, false, false
	s.cleanupIters = 0
	// factorOK and the anchor/script recipe survive between solves so
	// that SolveFrom can reuse the live factorization's common prefix
	// with a snapshot's recipe. The refactorization cadence stays
	// deterministic because it reads the script length, which a
	// reconstructing workspace restores identically.
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
		if s.lb[j] > s.ub[j]+eps {
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
				r[row] -= float64(vals[k] * s.x[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		sj := in.nStruct + i
		v := s.x[sj] + r[i]
		if v >= s.lb[sj]-eps && v <= s.ub[sj]+eps {
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
	return true
}

var emptyAnchor = []int32{}

// sameAnchor reports whether a and b are the same anchor slice.
func sameAnchor(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// reconstruct rebuilds the workspace factorization for a snapshot basis
// after installBasis: factor(anchor) followed by the snapshot's eta
// script, bit for bit the capturing workspace's state. If the live factor
// has the same anchor (identity: anchors are never reused), its eta file
// is cut to the two scripts' longest common prefix, exact because etas
// are append-only; otherwise the anchor is factorized. The rest of the
// script is replayed. Without a recipe it factorizes the snapshot basis.
// Reports false on a singular basis (the caller falls back to cold).
func (s *spx) reconstruct(b *Basis) bool {
	if b.anchor == nil {
		return s.refactor()
	}
	k := 0
	if s.factorOK && sameAnchor(s.anchor, b.anchor) {
		for k < len(s.script) && k < len(b.script) && s.script[k] == b.script[k] {
			k++
		}
		s.lu.truncateEtas(k)
		if k == len(b.script) {
			s.in.stats.HotSolves++
		}
	} else if !s.factorize(func(p int) int { return int(b.anchor[p]) }) {
		return false
	}
	m := s.m
	for _, rec := range b.script[k:] {
		s.ftran(int(rec.enter), s.w[:m])
		// No pivot-magnitude check on replay: the capturing workspace
		// already validated this exact (bitwise-identical) pivot.
		s.lu.appendEta(int(rec.leave), s.w[:m])
	}
	if k < len(b.script) {
		s.in.stats.Replays++
	}
	s.anchor = b.anchor // immutable; aliasing is safe
	s.script = append(s.script[:k], b.script[k:]...)
	s.replayable = true
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
				r[row] -= float64(vals[k] * s.x[j])
			}
		}
	}
	s.luFtran(r, s.xb, nil)
	for i := 0; i < m; i++ {
		s.x[s.basis[i]] = s.xb[i]
	}
}

// luFtran solves B·w = b (b indexed by row, destroyed; w by basis
// position; nz the rows where b may be nonzero, nil when not known)
// against the live factorization, with stats bookkeeping.
func (s *spx) luFtran(b, w []float64, nz []int32) {
	t0 := time.Now()
	s.lu.ftran(b, w, nz)
	s.in.stats.Ftrans++
	s.solved(t0)
}

// solved books a triangular solve that started at t0: its time and the
// eta entries, stages and factor entries it visited.
func (s *spx) solved(t0 time.Time) {
	st := &s.in.stats
	st.SolveNanos += int64(time.Since(t0))
	st.EtaTerms += s.lu.etaTerms
	st.TriTerms += s.lu.triTerms
	s.lu.etaTerms, s.lu.triTerms = 0, 0
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
	s.luFtran(b, w, idx)
}

// btran computes, in one BTRAN (luFactor.btran2), the leaving-row
// vector rho = B⁻ᵀ·e_r when r ≥ 0 — the row the dual ratio test and the
// Devex update read — and the duals y = c_B·B⁻¹ when c is not nil. With
// lag = 1 the row is taken against the factor before the newest eta —
// the pre-pivot row of a primal iteration — while the duals see the
// whole eta file and the updated basis. A missing half is the kernel's
// zero chain, and the live half's output goes only to rho or s.y. One
// call counts one Btrans; when it computes both halves, the caller
// counts the duals when it reads them.
func (s *spx) btran(r int, rho, c []float64, lag int) {
	m := s.m
	er, cb, nz := s.fscratch[:m], s.bscratch[:m], s.nz[:0]
	if r >= 0 {
		clear(er)
		er[r] = 1
	}
	if c == nil {
		nz = append(nz, int32(r))
	} else {
		for i, bi := range s.basis[:m] {
			v := c[bi]
			cb[i] = v
			if v != 0 || i == r {
				nz = append(nz, int32(i))
			}
		}
	}
	t0 := time.Now()
	switch {
	case r < 0:
		s.lu.btran(cb, s.y[:m], nz)
	case c == nil:
		s.lu.btran(er, rho, nz)
	default:
		s.lu.btran2(er, rho, cb, s.y[:m], lag, nz)
	}
	s.in.stats.Btrans++
	s.solved(t0)
}

// reducedCost returns c_j − y·a_j.
func (s *spx) reducedCost(c []float64, j int) float64 {
	d := c[j]
	idx, vals := s.col(j)
	for k, row := range idx {
		d -= float64(s.y[row] * vals[k])
	}
	s.in.stats.PriceTerms += int64(len(idx))
	return d
}

// alpha returns α_j = ρ·a_j, the pivot row's entry at column j.
func (s *spx) alpha(rho []float64, j int) float64 {
	a := 0.0
	idx, vals := s.col(j)
	for k, row := range idx {
		a += float64(rho[row] * vals[k])
	}
	s.in.stats.PriceTerms += int64(len(idx))
	return a
}

// priceRowShare bounds row-wise PRICE: it runs while fewer than
// 1/priceRowShare of the rows are nonzero. Past that, its scattered
// updates of the output, on the basic and fixed columns too, cost more
// than the column-wise products, which keep each sum in a register and
// skip those columns. It was set by timing BenchmarkPrice against the
// density of the priced vector.
const priceRowShare = 2

// priceByRow decides how PRICE runs over v (the duals or a pivot row):
// row by row over v's nonzero rows, which it collects ascending into
// s.priceRows, when fewer than 1/priceRowShare of the rows are nonzero;
// column by column otherwise. A skipped product a·0 is ±0 only for
// finite a, so an instance with a non-finite coefficient always prices
// by column.
func (s *spx) priceByRow(v []float64) bool {
	if !s.in.finite {
		return false
	}
	// Branch-free: a test on x would mispredict on a vector a few tenths
	// dense.
	rows, n, limit := s.priceRows[:s.m], 0, s.m/priceRowShare
	for i, x := range v[:s.m] {
		rows[n] = int32(i)
		if n += isNonzero(x); n >= limit {
			return false
		}
	}
	s.priceRows = rows[:n]
	return true
}

// isNonzero returns 1 when x is not ±0 (NaN included), else 0.
func isNonzero(x float64) int {
	if x != 0 {
		return 1
	}
	return 0
}

// rowReducedCosts sets s.dj[j] = c_j − y·a_j for every column, after
// priceByRow(s.y). Rows come in ascending order and each row's entries
// in ascending column order, so every column subtracts its terms in the
// order reducedCost does; a skipped term is y_i·a_ij with y_i = ±0, an
// exact zero. So every nonzero d_j has reducedCost's bits, and a zero
// can differ only in its sign.
func (s *spx) rowReducedCosts(c []float64) {
	in := s.in
	dj, y := s.dj[:s.n], s.y[:s.m]
	copy(dj[:s.nTot], c[:s.nTot])
	terms := 0
	for _, i := range s.priceRows {
		yi := y[i]
		lo, hi := in.rowPtr[i], in.rowPtr[i+1]
		cols, vals := in.rowCol[lo:hi], in.rowVal[lo:hi]
		vals = vals[:len(cols)]
		for t, j := range cols {
			dj[j] -= float64(yi * vals[t])
		}
		terms += len(cols)
	}
	in.stats.PriceTerms += int64(terms)
	for j := s.nTot; j < s.n; j++ {
		dj[j] = s.reducedCost(c, j)
	}
}

// rowAlphas sets s.dj[j] = α_j = ρ·a_j for every column, after
// priceByRow(rho), in alpha's order of terms (see rowReducedCosts). Each
// sum starts from +0 and a skipped term is ±0, which leaves +0 and every
// other value as it is, so every α_j has alpha's bits. It marks in
// s.touched every artificial column and each column j < nTot it writes
// (every other one holds +0); the caller's column walk clears the marks.
func (s *spx) rowAlphas(rho []float64) {
	in := s.in
	dj, touched := s.dj[:s.n], s.touched
	clear(dj[:s.nTot])
	terms := 0
	for _, i := range s.priceRows {
		ri := rho[i]
		lo, hi := in.rowPtr[i], in.rowPtr[i+1]
		cols, vals := in.rowCol[lo:hi], in.rowVal[lo:hi]
		vals = vals[:len(cols)]
		for t, j := range cols {
			dj[j] += float64(ri * vals[t])
			touched[j>>6] |= 1 << (j & 63)
		}
		terms += len(cols)
	}
	in.stats.PriceTerms += int64(terms)
	for j := s.nTot; j < s.n; j++ {
		dj[j] = s.alpha(rho, j)
		touched[j>>6] |= 1 << (j & 63)
	}
}

// pivotUpdate appends a product-form eta to the live factorization after
// `enter` replaces the basic variable of position `leave`; w = B⁻¹·a_enter.
// The pivot is also recorded on the replay script so captured bases can
// reconstruct the exact factor state. Reports false when the pivot
// element is numerically unusable.
func (s *spx) pivotUpdate(enter, leave int, w []float64) bool {
	if math.Abs(w[leave]) < pivotTol {
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
	s.in.stats.EtaPivots++
	return true
}

// checkAbort reports whether the solve's context is done.
func (s *spx) checkAbort() bool {
	if !s.abortSet && isDone(s.done) {
		s.abortSet = true
	}
	return s.abortSet
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
// until optimal, unbounded, or the budget runs out. Pricing is Devex,
// with Bland's rule under prolonged degeneracy (reverting to Devex after
// a nondegenerate run). The ratio test (ratioTest) takes the exact
// minimum ratio and breaks ties toward the largest pivot magnitude.
func (s *spx) primal(c []float64, maxIters int) (Status, int) {
	if maxIters <= 0 {
		return IterLimit, 0
	}
	m := s.m
	w := s.w[:m]
	for j := 0; j < s.n; j++ {
		s.gamma[j] = 1
	}
	s.buildElig()
	// pend is the leaving column of the last Devex update, the one
	// eligible column whose weight that update did not bound (see
	// devexUpdate); −1 while every weight is 1.
	pend := -1
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
			s.btran(-1, nil, c, 0)
		}
		enter, dir := s.price(c, useBland)
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
		tMax, leave, leaveToUpper := tFlip, -1, false
		if useBland {
			// Bland mode keeps the strict textbook single-pass test (its
			// anti-cycling argument needs exact minimal ratios; the slack
			// scales with the pivot tolerance, not a magic 1e-12).
			for i := 0; i < m; i++ {
				delta := -dir * w[i]
				if delta > eps { // basic increases toward ub
					bi := s.basis[i]
					if !math.IsInf(s.ub[bi], 1) {
						t := (s.ub[bi] - s.x[bi]) / delta
						if t < tMax-pivotTol {
							tMax, leave, leaveToUpper = t, i, true
						}
					}
				} else if delta < -eps { // basic decreases toward lb
					bi := s.basis[i]
					if !math.IsInf(s.lb[bi], -1) {
						t := (s.lb[bi] - s.x[bi]) / delta
						if t < tMax-pivotTol {
							tMax, leave, leaveToUpper = t, i, false
						}
					}
				}
			}
		} else {
			tMax, leave, leaveToUpper = s.ratioTest(w, dir, tFlip)
		}
		if math.IsInf(tMax, 1) {
			return Unbounded, it
		}
		if leave >= 0 && math.Abs(w[leave]) < pivotTol {
			// Numerically unusable pivot. With a fresh factorization the
			// basis is genuinely stuck; otherwise rebuild and re-derive
			// the direction next iteration.
			if len(s.script) == 0 {
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
		if tMax < pivotTol {
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
					pend = -1
				}
			}
		}
		// Apply the step.
		s.x[enter] += float64(dir * tMax)
		for i := 0; i < m; i++ {
			s.x[s.basis[i]] -= float64(dir * tMax * w[i])
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
		// the eta first, then btran2 with lag 1 (see spx.btran).
		needRow := !useBland
		fuse := needRow && len(s.script)+1 < refactorEvery
		if needRow && !fuse {
			s.btran(leave, s.rho[:m], nil, 0) // pre-pivot row
		}
		s.stat[enter] = basic
		s.basis[leave] = enter
		s.swapElig(enter, lv)
		if !s.pivotUpdate(enter, leave, w) {
			return IterLimit, it // excluded by the pre-pivot magnitude check
		}
		if fuse {
			s.btran(leave, s.rho[:m], c, 1)
			yReady = true
		}
		if needRow {
			// Devex reference-weight update from the pre-pivot row.
			s.gamma[lv] = math.Max(gammaEnter/(alphaE*alphaE), 1)
			if s.devexUpdate(lv, gammaEnter/(alphaE*alphaE), pend) {
				for j := 0; j < s.n; j++ {
					s.gamma[j] = 1
				}
				pend = -1
			} else {
				pend = lv
			}
		}
		if len(s.script) >= refactorEvery {
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
		}
	}
	return IterLimit, maxIters
}

// ratioTest is the primal ratio test outside Bland mode. The entering
// column moves by t·dir ≥ 0 and basic i changes by −dir·t·w[i]; the test
// returns the exact minimum ratio over the blocking rows with ties broken
// toward the largest |α| (the first such row), or leave < 0 with tMax =
// tFlip when the bound flip comes strictly first. On degenerate vertices
// the tie-break trades a zero-length step on a tiny pivot for one on a
// stable pivot; the EXPAND shifts make exact ties rare to begin with.
func (s *spx) ratioTest(w []float64, dir, tFlip float64) (tMax float64, leave int, toUpper bool) {
	tMax, leave = tFlip, -1
	bestPiv := 0.0
	for i, wi := range w {
		var t, piv float64
		up := false
		switch delta := -dir * wi; {
		case delta > eps:
			bi := s.basis[i]
			if math.IsInf(s.ub[bi], 1) {
				continue
			}
			t, piv, up = (s.ub[bi]-s.x[bi])/delta, delta, true
		case delta < -eps:
			bi := s.basis[i]
			if math.IsInf(s.lb[bi], -1) {
				continue
			}
			t, piv = (s.lb[bi]-s.x[bi])/delta, -delta
		default:
			continue
		}
		if t < tMax || (t == tMax && piv > bestPiv) {
			tMax, leave, toUpper, bestPiv = t, i, up, piv
		}
	}
	return tMax, leave, toUpper
}

// buildElig sets elig's bit for every column j < n that is nonbasic and
// not entryFixed and clears every other bit.
func (s *spx) buildElig() {
	clear(s.elig)
	for j := 0; j < s.n; j++ {
		if s.stat[j] != basic && !s.entryFixed(j) {
			s.elig[j>>6] |= 1 << (j & 63)
		}
	}
}

// swapElig updates elig for a pivot in which column enter became basic
// and column leave nonbasic. Bound flips and refactorizations change no
// basis and leave elig alone.
func (s *spx) swapElig(enter, leave int) {
	s.elig[enter>>6] &^= 1 << (enter & 63)
	if !s.entryFixed(leave) {
		s.elig[leave>>6] |= 1 << (leave & 63)
	}
}

// eligible reports whether column j's elig bit is set.
func (s *spx) eligible(j int) bool { return s.elig[j>>6]>>(j&63)&1 != 0 }

// walkWords returns the elig words of columns 0..n−1, which the column
// walks read (the bits of columns n and above are clear).
//
// The column walks visit only the columns that can change their result,
// bit i of word k standing for column 64k+i. Pricing walks elig: every
// loop that reads a column skips a basic or entryFixed one. After
// rowAlphas, the Devex update and the dual's entering scan walk
// touched & elig and clear touched as they go: an untouched column has
// α_j = +0, which changes no Devex weight and fails the entering scan's
// |α_j| > alphaTol. The walks take each word's bits lowest first, so
// columns come in ascending order, the order of the full loops: pricing
// keeps its first-maximum tie-break and Bland's lowest index, and the
// entering scan its candidate order, which the BFRT's tie-break reads.
func (s *spx) walkWords() []uint64 { return s.elig[:(s.n+63)>>6] }

// price returns the entering column for objective c, priced from the
// duals in s.y, and its direction (+1 increases, −1 decreases), or −1
// when no column prices out: under Bland's rule the lowest-index
// candidate, otherwise the Devex choice, the first largest d_j²/γ_j.
func (s *spx) price(c []float64, useBland bool) (enter int, dir float64) {
	enter = -1
	bestScore := 0.0
	byRow := s.priceByRow(s.y)
	if byRow {
		s.rowReducedCosts(c)
	}
	scan := 0
walk:
	for wi, wd := range s.walkWords() {
		for ; wd != 0; wd &= wd - 1 {
			j := wi<<6 | bits.TrailingZeros64(wd)
			scan++
			var d float64
			if byRow {
				d = s.dj[j]
			} else {
				d = s.reducedCost(c, j)
			}
			var viol, dd float64
			switch {
			case s.stat[j] == atLower && d < -eps:
				viol, dd = -d, 1
			case s.stat[j] == atLower && d > eps && math.IsInf(s.lb[j], -1):
				// Free column parked at 0 can also decrease.
				viol, dd = d, -1
			case s.stat[j] == atUpper && d > eps:
				viol, dd = d, -1
			default:
				continue
			}
			if useBland {
				enter, dir = j, dd
				break walk
			}
			if score := viol * viol / s.gamma[j]; score > bestScore {
				bestScore, enter, dir = score, j, dd
			}
		}
	}
	s.in.stats.ScanCols += int64(scan)
	return enter, dir
}

// devexUpdate raises the Devex weight γ_j of every eligible column j but
// the leaving column lv to α_j²·ratio2 where that is larger, α_j read
// from the pre-pivot row s.rho, and reports whether the weights need a
// reset: whether an eligible column but lv now has γ_j > 1e10, as a scan
// of them all would decide.
//
// It tests only the columns it visits, and pend. After an update that
// does not reset, every eligible column but that update's lv has
// γ_j ≤ 1e10: that is what its test checked. Until the next update, a
// pivot makes only its leaving column eligible; bound flips change no
// weight and no eligibility; Bland iterations skip the update but end
// in a reset of every weight. So an eligible column the walk skips has
// γ_j ≤ 1e10 unless it is pend, the previous update's lv: the caller
// passes pend = lv after an update without a reset, and −1 after a
// reset.
func (s *spx) devexUpdate(lv int, ratio2 float64, pend int) bool {
	rho := s.rho[:s.m]
	byRow := s.priceByRow(rho)
	if byRow {
		s.rowAlphas(rho)
	}
	big, scan := false, 0
	for wi, wd := range s.walkWords() {
		if byRow {
			wd &= s.touched[wi]
			s.touched[wi] = 0
		}
		for ; wd != 0; wd &= wd - 1 {
			j := wi<<6 | bits.TrailingZeros64(wd)
			if j == lv {
				continue
			}
			scan++
			var alpha float64
			if byRow {
				alpha = s.dj[j]
			} else {
				alpha = s.alpha(rho, j)
			}
			if alpha != 0 {
				if cand := alpha * alpha * ratio2; cand > s.gamma[j] {
					s.gamma[j] = cand
				}
			}
			big = big || s.gamma[j] > 1e10
		}
	}
	s.in.stats.ScanCols += int64(scan)
	return big || pend >= 0 && pend != lv && s.eligible(pend) && s.gamma[pend] > 1e10
}

// enteringScan records every eligible column that can repair the dual's
// leaving row, whose pivot row is rho, as a breakpoint (column, |α|,
// strict ratio |d|/|α|) for the bound-flipping ratio test, in ascending
// column order; below reports that the row's basic value is under its
// lower bound. It reports whether a ratio is NaN.
func (s *spx) enteringScan(rho []float64, below bool) (nanRatio bool) {
	s.candJ, s.candA, s.candR = s.candJ[:0], s.candA[:0], s.candR[:0]
	byRow := s.priceByRow(rho)
	if byRow {
		s.rowAlphas(rho)
	}
	scan := 0
	for wi, wd := range s.walkWords() {
		if byRow {
			wd &= s.touched[wi]
			s.touched[wi] = 0
		}
		for ; wd != 0; wd &= wd - 1 {
			j := wi<<6 | bits.TrailingZeros64(wd)
			scan++
			var alpha float64
			if byRow {
				alpha = s.dj[j]
			} else {
				alpha = s.alpha(rho, j)
			}
			aAbs := math.Abs(alpha)
			if aAbs <= alphaTol {
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
			ratio := d / aAbs
			nanRatio = nanRatio || ratio != ratio
			s.candJ = append(s.candJ, int32(j))
			s.candA = append(s.candA, aAbs)
			s.candR = append(s.candR, ratio)
		}
	}
	s.in.stats.ScanCols += int64(scan)
	return nanRatio
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
	s.buildElig()
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
		worst := dualTol
		below := false
		// A row is divided only when it is violated: worst starts at
		// dualTol > 0, so a difference that is not positive (or NaN) never
		// wins, and the choice is the one dividing every row gives.
		for i, bi := range s.basis[:m] {
			lb, x, ub := s.lb[bi], s.x[bi], s.ub[bi]
			if d := lb - x; d > 0 {
				if v := d / boundScale(lb); v > worst {
					worst, r, below = v, i, true
				}
			}
			if d := x - ub; d > 0 {
				if v := d / boundScale(ub); v > worst {
					worst, r, below = v, i, false
				}
			}
		}
		if r < 0 {
			return Optimal, it
		}
		s.btran(r, rho, s.obj2, 0)
		s.in.stats.Btrans++ // the duals half, read by the entering scan
		// Entering scan: an empty candidate set means no column can
		// repair row r at all.
		nanRatio := s.enteringScan(rho, below)
		// Bound-flipping ratio test (BFRT). The previous
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
		// exist. Breakpoints with equal ratios are treated as one group and
		// the largest-|α| group member that can absorb the rest pivots,
		// keeping pivots numerically sound. bfrtOrder hands out the groups
		// on demand, since the walk usually stops in its first.
		bi := s.basis[r]
		target := s.ub[bi]
		if below {
			target = s.lb[bi]
		}
		s.bfrt.reset(s.candR, nanRatio)
		rem := math.Abs(s.x[bi] - target)
		remTol := float64(dualTol * boundScale(target))
		for i := 0; i < m; i++ {
			s.acc[i] = 0
		}
		enter, nFlip := -1, 0
		for enter < 0 && rem > remTol {
			// Tie group: breakpoints at the smallest unprocessed ratio are
			// dual-feasibility-equivalent choices.
			group := s.bfrt.next()
			if group == nil {
				break
			}
			for enter < 0 && rem > remTol {
				pivotQ, flipQ := -1, -1
				pivotAlpha, flipCap := 0.0, 0.0
				for q, k := range group {
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
					enter = int(s.candJ[group[pivotQ]])
					break
				}
				if flipQ < 0 {
					break // group exhausted by flips; next group
				}
				// No group member absorbs the rest: flip the one with the
				// largest capacity and keep walking.
				k := group[flipQ]
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
					s.acc[row] += float64(f * cvals[t])
				}
				rem -= flipCap
				nFlip++
				group[flipQ] = -1
			}
		}
		if nFlip > 0 {
			// One combined FTRAN applies every flip to the basic values:
			// x_B -= B⁻¹·Σ f_j·A_j.
			s.luFtran(s.acc, w, nil)
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
		if math.Abs(alphaE) < alphaTol {
			// Factorization drift: rebuild and retry the iteration. With
			// a fresh factorization the pivot is genuinely degenerate —
			// bail out to the cold path. (Flips stay applied: they are
			// consistent bound moves regardless of the factorization.)
			if len(s.script) == 0 {
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
			s.x[s.basis[i]] -= float64(delta * w[i])
		}
		s.x[bi] = target
		if below || s.lb[bi] == s.ub[bi] {
			s.stat[bi] = atLower
		} else {
			s.stat[bi] = atUpper
		}
		s.stat[enter] = basic
		s.basis[r] = enter
		s.swapElig(enter, bi)
		if !s.pivotUpdate(enter, r, w) {
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
			continue
		}
		if len(s.script) >= refactorEvery {
			if !s.refactor() {
				return IterLimit, it
			}
			s.computeXB()
		}
	}
	return IterLimit, maxIters
}

// bfrtOrder hands the dual's bound-flipping ratio test its breakpoints
// in groups of equal ratio, smallest ratio first, each group's members in
// candidate order: exactly the groups that a stable sort of the
// candidates by ratio, cut wherever the ratio rises, gives. It selects
// them lazily from a binary heap on (ratio, candidate), since the walk
// usually ends in its first group: O(n) to build, O(log n) per
// breakpoint read, where the sort paid O(n log n) in every iteration.
// A NaN ratio (non-finite model data) orders with nothing, and the walk
// must keep the order the stable sort gives it then, so any NaN falls
// back to that sort.
type bfrtOrder struct {
	ratio  []float64
	idx    []int // the heap, or the sorted candidates from pos on
	pos    int
	sorted bool
	group  []int // heap mode: the group next returned
}

// reset orders candidates 0..len(ratio)-1; nan reports whether any ratio
// is NaN.
func (o *bfrtOrder) reset(ratio []float64, nan bool) {
	o.ratio, o.pos, o.sorted = ratio, 0, nan
	o.idx = o.idx[:0]
	for k := range ratio {
		o.idx = append(o.idx, k)
	}
	if nan {
		// The comparator is negative exactly when "<" holds, and the
		// stable sort calls it only as "cmp < 0" (the template
		// sort.SliceStable shares), so a NaN ratio keeps its place;
		// cmp.Compare would order NaN first and move the pivots.
		slices.SortStableFunc(o.idx, func(a, b int) int {
			switch ra, rb := ratio[a], ratio[b]; {
			case ra < rb:
				return -1
			case ra > rb:
				return 1
			}
			return 0
		})
		return
	}
	for i := len(o.idx)/2 - 1; i >= 0; i-- {
		o.down(i)
	}
}

// next returns the next group, or nil when every breakpoint is read. The
// caller may overwrite the group's entries.
func (o *bfrtOrder) next() []int {
	if o.sorted {
		if o.pos >= len(o.idx) {
			return nil
		}
		// The group holds at least its first breakpoint: a NaN ratio
		// compares false even with itself, and an empty group would never
		// advance pos.
		lim := o.ratio[o.idx[o.pos]]
		end := o.pos + 1
		for end < len(o.idx) && o.ratio[o.idx[end]] <= lim {
			end++
		}
		g := o.idx[o.pos:end]
		o.pos = end
		return g
	}
	if len(o.idx) == 0 {
		return nil
	}
	lim := o.ratio[o.idx[0]]
	o.group = o.group[:0]
	for len(o.idx) > 0 && o.ratio[o.idx[0]] == lim {
		o.group = append(o.group, o.idx[0])
		last := len(o.idx) - 1
		o.idx[0] = o.idx[last]
		o.idx = o.idx[:last]
		o.down(0)
	}
	return o.group
}

// before is the heap order: by ratio, then by candidate (the stable
// sort's tie-break).
func (o *bfrtOrder) before(a, b int) bool {
	ra, rb := o.ratio[a], o.ratio[b]
	return ra < rb || (ra == rb && a < b)
}

// down restores the heap below position i.
func (o *bfrtOrder) down(i int) {
	h := o.idx
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && o.before(h[r], h[c]) {
			c = r
		}
		if !o.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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

// boundScale is the relative scaling of the dual's feasibility tests for
// a bound b: a violation counts against eps·max(1,|b|) rather than an
// absolute eps.
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
// feasibility tolerance left by the shifts, and a primal pass repairs any
// dual infeasibility the cost shifts left. The loop runs until the primal
// confirms optimality without pivoting (or a small round cap). The
// shifts are ~1e-2·eps, so in the common case the
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
			if s.aborted() || s.maxViolation() > eps {
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
		res.Obj += float64(in.obj[j] * res.X[j])
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
			// recipe (SolveFrom will fall back to a cold solve).
			return b
		}
	}
	b.anchor = s.anchor // immutable once created; aliasing is safe
	b.script = append([]pivotRec(nil), s.script...)
	return b
}

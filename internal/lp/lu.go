package lp

import (
	"math"
	"math/bits"
	"slices"
)

// This file implements the sparse LU factorization that backs the
// simplex basis: Markowitz-style pivot selection with threshold partial
// pivoting, hyper-sparse triangular FTRAN/BTRAN solves, and a
// product-form eta file for basis updates. It replaces the former dense
// m×m explicit inverse (kept in SolveDense as the cross-check oracle):
// per-iteration work drops from O(m²) to O(nnz of the factors), which is
// what lifts the row ceiling on the scheduling ILPs.
//
// Everything here is deterministic: pivot selection scans candidates in
// a fixed order with exact tie-breaks, and every solve applies float
// operations in a fixed order, so a factorization (and any FTRAN/BTRAN
// against it) is a bit-for-bit pure function of the basis columns and
// the eta history. sparse.go builds on that to make warm re-solves pure
// functions of (matrix, basis, bounds, seq) — see the replay-recipe
// comments there and DESIGN.md ("Sparse LU core"). Every product that
// feeds a sum is written float64(a*b), so no architecture fuses it into
// a multiply-add that rounds once.
//
// BTRAN has one kernel, btran2, which solves two right-hand sides (the
// leaving row e_r and the duals c_B) as two chains over shared loads;
// a single right-hand side runs it with the other chain all zero. On a
// finite factor the zero chain computes only ±0, so it grows no pattern
// and marks no stage, and the live chain does exactly a one-chain
// kernel's operations and visits. On a factor holding ±Inf or NaN it
// can compute NaN (Inf·0), which only widens the pattern and the marks
// and so changes at most the sign of a zero in the live chain.
//
// BTRAN's eta pass is sparse. A BTRAN right-hand side has a few
// nonzeros where the etas are a third dense, and an eta transpose reads
// the right-hand side only through one dot product. So btran2 carries
// nz, the ascending positions where a right-hand side may be nonzero
// (seeded by the callers as they fill it, grown when an eta writes a
// nonzero at its leave position), and an eta with etaProbeCost times
// more entries than nz walks nz instead, finding its value at each
// position through its pattern index: a bitmap of m/64 words plus, per
// word, the eVal offset of its first entry. A skipped product is a
// finite value times an exact zero, ±0, so every nonzero of y and ρ
// keeps the full pass's bits and only a zero can change sign. An eta
// holding ±Inf or NaN (Inf·0 is NaN) always takes the full pass.
//
// The triangular passes cost their nonzeros too. FTRAN's L pass and
// BTRAN's Lᵀ pass walk lStages, the stages with an L column; the others
// are no-ops in both. The U passes of FTRAN and BTRAN run only the
// stages a right-hand side can make nonzero: stage numbers order either
// pass topologically, so a pass walks a bitmap of marked stages in that
// order, seeded from the right-hand side's pattern, and each stage whose
// value is nonzero marks the stages that read it (markStages). Past a
// cut-off share of m it runs its remaining stages in the full loop. A
// stage never marked computes ±0 in the full loop, so again every
// nonzero of w, y and ρ keeps its bits and only a zero can change sign;
// a factor holding ±Inf or NaN always takes the full loops. No reader of
// w, y or ρ, nor of the reduced costs and pivot-row entries that
// sparse.go's row-wise PRICE computes from them, tells the signs of
// zeros apart: DESIGN.md ("Sparse LU core", signs of zeros) lists them.

// luThreshold is the threshold-partial-pivoting factor: a pivot must
// satisfy |a| ≥ luThreshold·(largest |entry| in its column). Smaller
// values trade worst-case stability (1.0 = exact partial pivoting) for
// Markowitz freedom to pick low-fill pivots; 0.05 was chosen by sweeping
// the degenerate-scheduling fixture (see ilpsched.TestDegenerateSchedul-
// ingModelStallCeiling), where it also gives the least-degenerate pivot
// paths of the sampled settings, and drift is bounded by the periodic
// refactorization plus the dense cross-check suite.
const luThreshold = 0.05

// luAbsPivot is the absolute singularity cutoff: a stage whose best
// eligible pivot is smaller than this declares the basis singular, the
// same constant the dense Gauss–Jordan refactorization used.
const luAbsPivot = 1e-10

// luScanLimit bounds the Markowitz search: after this many candidate
// columns have yielded at least one eligible pivot, the best seen wins.
// A zero-cost pivot (singleton row or column) short-circuits instantly.
// 32 buys a near-complete search on scheduling-ILP bases (most stages
// short-circuit on singletons anyway) and measurably less fill than
// tighter limits on the large registry models.
const luScanLimit = 32

// luFactor is the LU factorization of one simplex basis plus its
// product-form eta file, with the workspace the factorization reuses.
type luFactor struct {
	m int

	// Stage permutations: stage k eliminated matrix row prow[k] and basis
	// position (column) pcol[k].
	prow, pcol []int32

	// L multipliers per stage (CSR-like): stage k recorded
	// row[lRow[t]] -= lVal[t]·row[prow[k]] for t in [lPtr[k], lPtr[k+1]).
	lPtr []int32
	lRow []int32
	lVal []float64

	// U rows in stage order: row k holds the retired pivot row, its
	// off-pivot entries at basis positions eliminated in later stages.
	uPtr []int32
	uCol []int32
	uVal []float64
	upiv []float64 // pivot value per stage

	// U by column (for BTRAN): entries of basis position c are
	// (stage, value) pairs, stages ascending.
	ucPtr   []int32
	ucStage []int32
	ucVal   []float64

	// Product-form eta file appended by appendEta. Eta e records that
	// basis position eLeave[e] was replaced by a column whose FTRAN image
	// had value ePiv[e] at that position; the image's other nonzeros are
	// eIdx/eVal[ePtr[e]:ePtr[e+1]].
	ePtr   []int32
	eIdx   []int32
	eVal   []float64
	eLeave []int32
	ePiv   []float64

	// Pattern index of the eta file, for BTRAN's sparse eta pass: eta e
	// owns words [e·nw, (e+1)·nw) of eBits (bit i set when position i is
	// one of its nonzeros) and of eRank (the eVal offset of the word's
	// first nonzero), so its value at position i is one popcount away.
	// eNonFinite[e] marks an eta holding an Inf or NaN, whose products
	// are never skipped.
	nw         int
	eBits      []uint64
	eRank      []int32
	eNonFinite []bool

	// Stage views for the triangular passes, built with the factor:
	// lStages lists, ascending, the stages with a nonempty L column (the
	// others are no-ops in both L passes); stageOfRow and stageOfPos
	// invert prow and pcol; uStage is uCol mapped to stages. luNonFinite
	// marks a factor holding an Inf or NaN, whose U passes always run in
	// full.
	lStages     []int32
	stageOfRow  []int32
	stageOfPos  []int32
	uStage      []int32
	luNonFinite bool

	// U-pass workspace: mark has bit k set while stage k waits to run
	// (zero between solves); done lists the stages a sparse Uᵀ pass ran.
	mark []uint64
	done []int32

	// etaTerms counts the eta entries the FTRAN and BTRAN eta passes
	// visit (FactorStats.EtaTerms), triTerms the stages and factor
	// entries the L and U passes visit (FactorStats.TriTerms); the solver
	// drains both per solve.
	etaTerms, triTerms int64

	nnzFactor int // nnz(L) + nnz(U) + m pivots after factor()
	nnzBasis  int // nnz of the factored basis matrix

	// --- factorization workspace, reused across factor() calls ---
	rowInd  [][]int32   // active row patterns (basis positions, sorted)
	rowVal  [][]float64 // matching values
	colRows [][]int32   // alive rows holding a nonzero in each column

	bucketOf    []int32   // current column-count bucket per column (−1: dead)
	posInBucket []int32   // position inside that bucket
	buckets     [][]int32 // columns grouped by exact nonzero count

	acc      []float64 // dense per-column gather scratch
	touched  []int32
	elimRows []int32 // snapshot of the pivot column's rows
	mergeInd []int32 // row-merge output scratch
	mergeVal []float64
	zs, zs2  []float64 // btranLU2's stage scratch, one per chain, zero between solves
	zc       []float64 // btran's all-zero first right-hand side, cleared before each use
}

func newLUFactor(m int) *luFactor {
	f := &luFactor{
		m:           m,
		prow:        make([]int32, m),
		pcol:        make([]int32, m),
		lPtr:        make([]int32, m+1),
		uPtr:        make([]int32, m+1),
		upiv:        make([]float64, m),
		ucPtr:       make([]int32, m+1),
		ePtr:        make([]int32, 1),
		nw:          (m + 63) / 64,
		rowInd:      make([][]int32, m),
		rowVal:      make([][]float64, m),
		colRows:     make([][]int32, m),
		bucketOf:    make([]int32, m),
		posInBucket: make([]int32, m),
		buckets:     make([][]int32, m+1),
		acc:         make([]float64, m),
		touched:     make([]int32, 0, m),
		zs:          make([]float64, m),
		zs2:         make([]float64, m),
		zc:          make([]float64, m),
		stageOfRow:  make([]int32, m),
		stageOfPos:  make([]int32, m),
		mark:        make([]uint64, (m+63)/64),
		done:        make([]int32, 0, m),
	}
	return f
}

// truncateEtas keeps the first k etas (append-only, so exactly as they
// were appended) and drops the rest.
func (f *luFactor) truncateEtas(k int) {
	end := f.ePtr[k]
	f.ePtr = f.ePtr[:k+1]
	f.eIdx = f.eIdx[:end]
	f.eVal = f.eVal[:end]
	f.eLeave = f.eLeave[:k]
	f.ePiv = f.ePiv[:k]
	f.eBits = f.eBits[:k*f.nw]
	f.eRank = f.eRank[:k*f.nw]
	f.eNonFinite = f.eNonFinite[:k]
}

// appendEta records the product-form update for a basis change at
// position leave with FTRAN image w (dense, by basis position), and its
// pattern index. The caller has already validated the pivot magnitude.
func (f *luFactor) appendEta(leave int, w []float64) {
	nb := len(f.eBits)
	f.eBits = slices.Grow(f.eBits, f.nw)[:nb+f.nw]
	f.eRank = slices.Grow(f.eRank, f.nw)[:nb+f.nw]
	words, rank := f.eBits[nb:], f.eRank[nb:]
	clear(words)
	off := int32(len(f.eIdx))
	nonFinite := false
	for i, v := range w[:f.m] {
		if v != 0 && i != leave {
			f.eIdx = append(f.eIdx, int32(i))
			f.eVal = append(f.eVal, v)
			words[i>>6] |= 1 << (i & 63)
			// v−v is 0 for every finite v and NaN for ±Inf and NaN.
			nonFinite = nonFinite || v-v != 0
		}
	}
	for k, wd := range words {
		rank[k] = off
		off += int32(bits.OnesCount64(wd))
	}
	f.ePtr = append(f.ePtr, int32(len(f.eIdx)))
	f.eLeave = append(f.eLeave, int32(leave))
	f.ePiv = append(f.ePiv, w[leave])
	f.eNonFinite = append(f.eNonFinite, nonFinite)
}

// nEtas returns the number of product-form updates applied since the
// last factorization.
func (f *luFactor) nEtas() int { return len(f.eLeave) }

// value returns row i's entry at column position c (0 when absent) by
// binary search of the sorted row pattern.
func (f *luFactor) value(i int, c int32) float64 {
	ind := f.rowInd[i]
	lo, hi := 0, len(ind)
	for lo < hi {
		mid := (lo + hi) / 2
		if ind[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ind) && ind[lo] == c {
		return f.rowVal[i][lo]
	}
	return 0
}

// moveCol relocates column c to the bucket for newCount, maintaining the
// swap-delete position index. Bucket order is a deterministic function
// of the (deterministic) elimination history, which is all pivot
// selection needs.
func (f *luFactor) moveCol(c int32, newCount int) {
	old := f.bucketOf[c]
	if old == int32(newCount) {
		return
	}
	if old >= 0 {
		b := f.buckets[old]
		p := f.posInBucket[c]
		last := b[len(b)-1]
		b[p] = last
		f.posInBucket[last] = p
		f.buckets[old] = b[:len(b)-1]
	}
	f.bucketOf[c] = int32(newCount)
	f.posInBucket[c] = int32(len(f.buckets[newCount]))
	f.buckets[newCount] = append(f.buckets[newCount], c)
}

// dropCol removes column c from the bucket structure (it is being
// eliminated).
func (f *luFactor) dropCol(c int32) {
	old := f.bucketOf[c]
	if old < 0 {
		return
	}
	b := f.buckets[old]
	p := f.posInBucket[c]
	last := b[len(b)-1]
	b[p] = last
	f.posInBucket[last] = p
	f.buckets[old] = b[:len(b)-1]
	f.bucketOf[c] = -1
}

// removeRowFromCol deletes row i from colRows[c] (swap-delete; the list
// is unordered but its order is deterministic).
func (f *luFactor) removeRowFromCol(i int32, c int32) {
	list := f.colRows[c]
	for p, r := range list {
		if r == i {
			list[p] = list[len(list)-1]
			f.colRows[c] = list[:len(list)-1]
			return
		}
	}
}

// factor builds the LU decomposition of the m×m basis matrix whose
// column at position p is given by col(p) as parallel (row, value)
// slices (duplicate rows accumulate, matching the dense refactorization
// it replaces). Reports false when the basis is numerically singular.
// Any previous factorization and eta file are discarded.
func (f *luFactor) factor(col func(pos int) ([]int32, []float64)) bool {
	m := f.m
	f.truncateEtas(0)
	f.lPtr = f.lPtr[:1]
	f.lPtr[0] = 0
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uPtr = f.uPtr[:1]
	f.uPtr[0] = 0
	f.uCol = f.uCol[:0]
	f.uVal = f.uVal[:0]
	if m == 0 {
		f.nnzFactor, f.nnzBasis = 0, 0
		return true
	}

	// Gather: accumulate each column densely, then scatter into row-major
	// active storage. Iterating columns in order keeps every row pattern
	// sorted by column position without an explicit sort.
	nnz := 0
	for p := 0; p < m; p++ {
		idx, vals := col(p)
		f.touched = f.touched[:0]
		for k, r := range idx {
			if f.acc[r] == 0 {
				f.touched = append(f.touched, r)
			}
			f.acc[r] += vals[k]
		}
		list := f.colRows[p][:0]
		for _, r := range f.touched {
			if f.acc[r] != 0 {
				list = append(list, r)
				nnz++
			}
			// leave acc[r] for the scatter pass below
		}
		// Sort the row list ascending for a canonical start state.
		insertionSortInt32(list)
		f.colRows[p] = list
		for _, r := range list {
			f.rowInd[r] = append(f.rowInd[r], int32(p))
			f.rowVal[r] = append(f.rowVal[r], f.acc[r])
		}
		for _, r := range f.touched {
			f.acc[r] = 0
		}
	}
	f.nnzBasis = nnz

	// Bucket initialization from exact column counts.
	for c := 0; c < m; c++ {
		cnt := len(f.colRows[c])
		f.bucketOf[c] = int32(cnt)
		f.posInBucket[c] = int32(len(f.buckets[cnt]))
		f.buckets[cnt] = append(f.buckets[cnt], int32(c))
	}

	ok := true
	for stage := 0; stage < m; stage++ {
		pr, pc, piv := f.selectPivot()
		if pr < 0 {
			ok = false
			break
		}
		f.eliminate(stage, pr, pc, piv)
	}
	if ok {
		f.buildUTranspose()
		f.buildStageViews()
		f.nnzFactor = len(f.lVal) + len(f.uVal) + m
	}
	// Release row/column workspace for the next factorization.
	for i := 0; i < m; i++ {
		f.rowInd[i] = f.rowInd[i][:0]
		f.rowVal[i] = f.rowVal[i][:0]
		f.colRows[i] = f.colRows[i][:0]
	}
	for k := range f.buckets {
		f.buckets[k] = f.buckets[k][:0]
	}
	return ok
}

// selectPivot runs the bounded Markowitz search: columns are examined in
// increasing nonzero-count order (bucket order within a count), each
// contributing its threshold-eligible entries as candidates scored by
// (rowCount−1)·(colCount−1). Ties break on larger |pivot|, then smaller
// row index, then earlier scan order — all deterministic.
func (f *luFactor) selectPivot() (int32, int32, float64) {
	bestRow, bestCol := int32(-1), int32(-1)
	bestVal := 0.0
	bestCost := math.MaxInt64 - 1
	scanned := 0
	for cnt := 1; cnt <= f.m; cnt++ {
		for _, c := range f.buckets[cnt] {
			rows := f.colRows[c]
			colmax := 0.0
			for _, i := range rows {
				if a := math.Abs(f.value(int(i), c)); a > colmax {
					colmax = a
				}
			}
			if colmax < luAbsPivot {
				continue // numerically empty column; unusable this stage
			}
			eligible := false
			for _, i := range rows {
				v := f.value(int(i), c)
				a := math.Abs(v)
				if a < luThreshold*colmax || a < luAbsPivot {
					continue
				}
				eligible = true
				cost := (len(f.rowInd[i]) - 1) * (cnt - 1)
				if cost < bestCost ||
					(cost == bestCost && (a > math.Abs(bestVal) ||
						(a == math.Abs(bestVal) && i < bestRow))) {
					bestCost, bestRow, bestCol, bestVal = cost, i, c, v
				}
			}
			if eligible {
				scanned++
				if bestCost == 0 || scanned >= luScanLimit {
					return bestRow, bestCol, bestVal
				}
			}
		}
	}
	return bestRow, bestCol, bestVal
}

// eliminate retires pivot (row pr, column pc, value piv) as stage k:
// records the U row and L multipliers and updates the active matrix,
// column lists and buckets.
func (f *luFactor) eliminate(k int, pr, pc int32, piv float64) {
	f.prow[k] = pr
	f.pcol[k] = pc
	f.upiv[k] = piv
	f.dropCol(pc)

	// Retire the pivot row: remove it from every column list (its entries
	// all reference alive columns) and emit the U row.
	pInd, pVal := f.rowInd[pr], f.rowVal[pr]
	for t, c := range pInd {
		f.removeRowFromCol(pr, c)
		if c != pc {
			f.moveCol(c, len(f.colRows[c]))
			f.uCol = append(f.uCol, c)
			f.uVal = append(f.uVal, pVal[t])
		}
	}
	f.uPtr = append(f.uPtr, int32(len(f.uCol)))

	// Eliminate the pivot column from the remaining rows.
	f.elimRows = append(f.elimRows[:0], f.colRows[pc]...)
	for _, i := range f.elimRows {
		l := f.value(int(i), pc) / piv
		f.lRow = append(f.lRow, i)
		f.lVal = append(f.lVal, l)
		f.mergeRow(int(i), pInd, pVal, l, pc)
	}
	f.lPtr = append(f.lPtr, int32(len(f.lRow)))
	f.colRows[pc] = f.colRows[pc][:0]
	f.rowInd[pr] = f.rowInd[pr][:0]
	f.rowVal[pr] = f.rowVal[pr][:0]
}

// mergeRow applies row_i −= l·pivotRow, dropping the pivot column from
// the result and keeping column lists and buckets exact (fills append,
// exact cancellations delete).
func (f *luFactor) mergeRow(i int, pInd []int32, pVal []float64, l float64, pc int32) {
	aInd, aVal := f.rowInd[i], f.rowVal[i]
	out := f.mergeInd[:0]
	outV := f.mergeVal[:0]
	pa, pb := 0, 0
	for pa < len(aInd) || pb < len(pInd) {
		switch {
		case pb >= len(pInd) || (pa < len(aInd) && aInd[pa] < pInd[pb]):
			out = append(out, aInd[pa])
			outV = append(outV, aVal[pa])
			pa++
		case pa >= len(aInd) || pInd[pb] < aInd[pa]:
			c := pInd[pb]
			if c != pc { // fill-in
				v := -l * pVal[pb]
				if v != 0 {
					out = append(out, c)
					outV = append(outV, v)
					f.colRows[c] = append(f.colRows[c], int32(i))
					f.moveCol(c, len(f.colRows[c]))
				}
			}
			pb++
		default: // same column
			c := aInd[pa]
			if c != pc {
				v := aVal[pa] - float64(l*pVal[pb])
				if v != 0 {
					out = append(out, c)
					outV = append(outV, v)
				} else { // exact cancellation
					f.removeRowFromCol(int32(i), c)
					f.moveCol(c, len(f.colRows[c]))
				}
			}
			pa++
			pb++
		}
	}
	// Swap the merged buffers into the row, keeping the old backing
	// arrays as the next merge scratch.
	f.rowInd[i], f.mergeInd = out, aInd[:0]
	f.rowVal[i], f.mergeVal = outV, aVal[:0]
}

// buildUTranspose assembles the column-wise view of U for BTRAN.
func (f *luFactor) buildUTranspose() {
	m := f.m
	for c := 0; c <= m; c++ {
		f.ucPtr[c] = 0
	}
	for _, c := range f.uCol {
		f.ucPtr[c+1]++
	}
	for c := 0; c < m; c++ {
		f.ucPtr[c+1] += f.ucPtr[c]
	}
	need := len(f.uCol)
	if cap(f.ucStage) < need {
		f.ucStage = make([]int32, need)
		f.ucVal = make([]float64, need)
	}
	f.ucStage = f.ucStage[:need]
	f.ucVal = f.ucVal[:need]
	// Fill using a moving per-column cursor (posInBucket doubles as the
	// cursor scratch — the buckets are spent once elimination finishes).
	cur := f.posInBucket[:m]
	for c := 0; c < m; c++ {
		cur[c] = f.ucPtr[c]
	}
	for k := 0; k < m; k++ {
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			c := f.uCol[t]
			f.ucStage[cur[c]] = int32(k)
			f.ucVal[cur[c]] = f.uVal[t]
			cur[c]++
		}
	}
}

// buildStageViews fills the stage views of a new factor: lStages,
// stageOfRow, stageOfPos, uStage and luNonFinite.
func (f *luFactor) buildStageViews() {
	m := f.m
	f.lStages = f.lStages[:0]
	for k := 0; k < m; k++ {
		f.stageOfRow[f.prow[k]] = int32(k)
		f.stageOfPos[f.pcol[k]] = int32(k)
		if f.lPtr[k+1] > f.lPtr[k] {
			f.lStages = append(f.lStages, int32(k))
		}
	}
	f.uStage = f.uStage[:0]
	for _, c := range f.uCol {
		f.uStage = append(f.uStage, f.stageOfPos[c])
	}
	// v−v is 0 for every finite v and NaN for ±Inf and NaN.
	nonFinite := false
	for _, vals := range [][]float64{f.lVal, f.uVal, f.upiv[:m]} {
		for _, v := range vals {
			nonFinite = nonFinite || v-v != 0
		}
	}
	f.luNonFinite = nonFinite
}

// ftranReachDiv and btranReachDiv set the U passes' cut-offs: a sparse
// pass (see markStages) gives way to the full loop for its remaining
// stages once more than m/div stages have been marked to run. A stage
// the sparse pass runs costs about three of the full loop (the bit walk,
// the marks it sets, loads in a scattered order), so the sparse pass
// wins up to a reach of about 30% of m. The stages it ran before giving
// way cost that much more, which matters for FTRAN: its reaches on the
// scheduling models are bimodal (most under 5% of m, most of the rest
// 25–70%), so it gives way early. The fused BTRANs' reaches spread over
// 0–30%. Both were set by timing the kernel fixture's passes against the
// reach share, weighted by the reaches of solve-ilp's rotation.
const (
	ftranReachDiv = 10
	btranReachDiv = 4
)

// markStages sets the mark bits of stages ks, or of stages stageOf[i]
// for i in ks when stageOf is not nil, and returns how many were clear.
//
// A sparse U pass runs only the stages whose value can be nonzero.
// Stage numbers are a topological order of both U passes (FTRAN's stage
// k reads only later stages, BTRAN's only earlier ones), so the pass
// walks mark in that order, lowest or highest bit first, instead of
// searching the dependency graph (Gilbert–Peierls) for one: it seeds the
// marks from the right-hand side's pattern, runs the next marked stage
// and, when its value is nonzero, marks the stages that read it, which
// all come later in the walk. A stage never marked computes ±0 in the
// full loop, so skipping it changes no nonzero, and past the cut-off the
// pass runs its remaining stages in the full loop, where they find the
// same inputs.
func markStages(mark []uint64, ks, stageOf []int32) int {
	n := 0
	for _, k := range ks {
		if stageOf != nil {
			k = stageOf[k]
		}
		w, sh := k>>6, uint(k&63)
		n += int(mark[w]>>sh&1 ^ 1)
		mark[w] |= 1 << sh
	}
	return n
}

// popLow clears the lowest mark in words wi and above and returns its
// stage and word, or −1 when there is none.
func popLow(mark []uint64, wi int) (k, w int) {
	for ; wi < len(mark); wi++ {
		if wd := mark[wi]; wd != 0 {
			bit := bits.TrailingZeros64(wd)
			mark[wi] = wd &^ (1 << bit)
			return wi<<6 | bit, wi
		}
	}
	return -1, wi
}

// popHigh clears the highest mark in words wi and below and returns its
// stage and word, or −1 when there is none.
func popHigh(mark []uint64, wi int) (k, w int) {
	for ; wi >= 0; wi-- {
		if wd := mark[wi]; wd != 0 {
			bit := 63 - bits.LeadingZeros64(wd)
			mark[wi] = wd &^ (1 << bit)
			return wi<<6 | bit, wi
		}
	}
	return -1, wi
}

// btranSeed marks the stages of positions nz, the seeds of a sparse Uᵀ
// pass for a right-hand side nonzero only there, and returns their
// number. It returns 0, with no marks set, for the full pass: when the
// factor holds a non-finite value (a skipped product x·0 is ±0 only for
// finite x), when nz may have stopped growing (growPattern) or when it
// is longer than the cut-off.
func (f *luFactor) btranSeed(nz []int32) int {
	if f.luNonFinite || etaProbeCost*len(nz) >= f.m || len(nz) > f.m/btranReachDiv {
		return 0
	}
	return markStages(f.mark, nz, f.stageOfPos)
}

// The triangular-solve kernels below run over resliced locals so that
// the compiler proves every sequential index in bounds; only the gathers
// through stored row/position indices keep a bounds check. Each kernel
// applies the same floating-point operations in the same order as the
// textbook loops it implements, so the solves stay bit-for-bit functions
// of the factor state (see DESIGN.md, "Sparse LU core").

// ftran solves B·w = b in place: b is the right-hand side indexed by
// matrix row (destroyed), w receives the solution indexed by basis
// position. nz lists the rows where b may be nonzero (in any order,
// repeats allowed), or is nil when they are not known. After ftranL the
// U pass walks the marked stages from the last (see markStages), or runs
// the full loop; the eta file is then applied oldest-first.
func (f *luFactor) ftran(b, w []float64, nz []int32) {
	m := f.m
	b, w = b[:m], w[:m]
	prow, pcol, upiv := f.prow[:m], f.pcol[:m], f.upiv[:m]
	uPtr, uCol, uVal := f.uPtr[:m+1], f.uCol, f.uVal
	terms, next := 0, m-1 // next: the first stage of the full loop
	if marked := f.ftranL(b, nz); marked > 0 {
		// The stages never marked keep the zero written here.
		clear(w)
		mark, limit := f.mark, m/ftranReachDiv
		ucPtr, ucStage := f.ucPtr[:m+1], f.ucStage
		next = -1
		for k, wi := popHigh(mark, len(mark)-1); k >= 0; k, wi = popHigh(mark, wi) {
			v := b[prow[k]]
			lo, hi := uPtr[k], uPtr[k+1]
			cols, vals := uCol[lo:hi], uVal[lo:hi]
			vals = vals[:len(cols)]
			for t, c := range cols {
				v -= float64(vals[t] * w[c])
			}
			c := pcol[k]
			v /= upiv[k]
			w[c] = v
			terms += 1 + len(cols)
			if v != 0 {
				readers := ucStage[ucPtr[c]:ucPtr[c+1]]
				marked += markStages(mark, readers, nil)
				terms += len(readers)
				if marked > limit {
					clear(mark[:wi+1])
					next = k - 1
					break
				}
			}
		}
	}
	// The full loop, kept apart so that the compiler drops its bounds
	// checks.
	for k := next; k >= 0; k-- {
		v := b[prow[k]]
		lo, hi := uPtr[k], uPtr[k+1]
		cols, vals := uCol[lo:hi], uVal[lo:hi]
		vals = vals[:len(cols)]
		for t, c := range cols {
			v -= float64(vals[t] * w[c])
		}
		w[pcol[k]] = v / upiv[k]
		terms += 1 + len(cols)
	}
	f.triTerms += int64(terms)
	eLeave := f.eLeave
	ePtr, eIdx, eVal, ePiv := f.ePtr[:len(eLeave)+1], f.eIdx, f.eVal, f.ePiv[:len(eLeave)]
	terms = 0
	for e, lv := range eLeave {
		t := w[lv]
		if t == 0 {
			continue
		}
		t /= ePiv[e]
		lo, hi := ePtr[e], ePtr[e+1]
		idx, vals := eIdx[lo:hi], eVal[lo:hi]
		vals = vals[:len(idx)]
		for q, i := range idx {
			w[i] -= float64(vals[q] * t)
		}
		w[lv] = t
		terms += int(hi - lo)
	}
	f.etaTerms += int64(terms)
}

// ftranL runs FTRAN's L pass on b over the stages with an L column,
// skipping those whose pivot-row value is zero (the Suhl–Suhl sparse-RHS
// skip: simplex right-hand sides are a handful of nonzeros). Unless nz
// is nil or the factor holds a non-finite value, it also marks the
// stages of nz's rows and of the rows it writes, the seeds of a sparse U
// pass, and returns their number; it returns 0, with no marks set, for
// the full U pass, also once the seeds pass the cut-off.
func (f *luFactor) ftranL(b []float64, nz []int32) int {
	m := f.m
	prow, stageOfRow := f.prow[:m], f.stageOfRow[:m]
	lPtr, lRow, lVal := f.lPtr[:m+1], f.lRow, f.lVal
	mark, limit, marked := f.mark, m/ftranReachDiv, 0
	sparse := nz != nil && !f.luNonFinite
	if sparse {
		marked = markStages(mark, nz, stageOfRow)
		sparse = marked <= limit
	}
	terms := len(f.lStages)
	for _, k := range f.lStages {
		bk := b[prow[k]]
		if bk == 0 {
			continue
		}
		lo, hi := lPtr[k], lPtr[k+1]
		rows, vals := lRow[lo:hi], lVal[lo:hi]
		vals = vals[:len(rows)]
		for t, i := range rows {
			b[i] -= float64(vals[t] * bk)
		}
		terms += len(rows)
		if sparse {
			marked += markStages(mark, rows, stageOfRow)
			sparse = marked <= limit
		}
	}
	f.triTerms += int64(terms)
	if !sparse {
		if marked > 0 {
			clear(mark)
		}
		return 0
	}
	return marked
}

// btran solves Bᵀ·y = c in place: c is indexed by basis position
// (destroyed), y receives the solution indexed by matrix row. nz lists,
// ascending, a superset of the positions where c is nonzero; the eta
// pass grows it in place (capacity m avoids a reallocation). It is
// btran2 with c as the second right-hand side and an all-zero first one.
func (f *luFactor) btran(c, y []float64, nz []int32) {
	clear(f.zc)
	f.btran2(f.zc, f.zc, c, y, 0, nz)
}

// etaProbeCost is what BTRAN's sparse eta pass pays per pattern
// position, in units of one product of the full pass: a bitmap probe, a
// popcount and the value load behind it, on a branch that mispredicts
// when the eta and the right-hand side are both half dense. It was set
// by timing the partitioner's ILPs, whose duals are that dense.
const etaProbeCost = 3

// sparseEta reports whether BTRAN takes eta e's products over the
// right-hand side's pattern nz rather than over the eta's own entries:
// when that is cheaper and every entry of the eta is finite (a skipped
// product x·0 is ±0 only for finite x).
func (f *luFactor) sparseEta(e int, nz []int32) bool {
	return etaProbeCost*len(nz) < int(f.ePtr[e+1]-f.ePtr[e]) && !f.eNonFinite[e]
}

// growPattern adds position p, where an eta pass wrote a nonzero, to the
// ascending set nz. Once nz is too long for any eta to take the sparse
// pass (an eta has fewer than m entries), no later eta reads it, so it
// stops growing.
func (f *luFactor) growPattern(nz []int32, p int32) []int32 {
	if etaProbeCost*len(nz) >= f.m {
		return nz
	}
	k, found := slices.BinarySearch(nz, p)
	if found {
		return nz
	}
	return slices.Insert(nz, k, p)
}

// etaAt returns eta e's pattern-index words and ranks.
func (f *luFactor) etaAt(e int) (words []uint64, rank []int32) {
	lo := e * f.nw
	return f.eBits[lo : lo+f.nw], f.eRank[lo : lo+f.nw]
}

// btran2 solves two transposed systems in one pass over the factor:
// Bᵀ·y2 = c2 against the whole eta file, and Bᵀ·y1 = c1 against the
// factor as it stood before the newest lag etas were appended. The two
// right-hand sides share every index and value load, running as two
// independent accumulation chains (the eta dot products are
// latency-bound, so the second chain is nearly free); on the newest lag
// etas chain 1 is computed but neither stored nor grown into nz. nz
// lists, ascending, a superset of the positions where c1 or c2 is
// nonzero, and is grown in place as in btran. An eta reads a right-hand
// side only through its dot product, and a position outside nz adds an
// exact zero to it, so sparseEta's etas visit nz and find their values
// through the pattern index; the products they skip are ±0. Each chain
// thus applies the textbook operations in their order but for products
// with an exact zero, and y1 and y2 equal the full passes on the pre-lag
// and full factors up to the sign of a zero (see DESIGN.md, "Sparse LU
// core"). c1 and c2 are destroyed and must not alias; y1 may be c1.
func (f *luFactor) btran2(c1, y1, c2, y2 []float64, lag int, nz []int32) {
	m := f.m
	c1, y1, c2, y2 = c1[:m], y1[:m], c2[:m], y2[:m]
	ne := len(f.eLeave)
	eLeave := f.eLeave
	ePtr, eIdx, eVal, ePiv := f.ePtr[:ne+1], f.eIdx, f.eVal, f.ePiv[:ne]
	terms := 0
	for e := ne - 1; e >= 0; e-- {
		lv := eLeave[e]
		v1, v2 := c1[lv], c2[lv]
		if f.sparseEta(e, nz) {
			words, rank := f.etaAt(e)
			for _, i := range nz {
				wd, bit := words[i>>6], uint64(1)<<(i&63)
				if wd&bit != 0 {
					x := eVal[rank[i>>6]+int32(bits.OnesCount64(wd&(bit-1)))]
					v1 -= float64(x * c1[i])
					v2 -= float64(x * c2[i])
				}
			}
			terms += len(nz)
		} else {
			lo, hi := ePtr[e], ePtr[e+1]
			idx, vals := eIdx[lo:hi], eVal[lo:hi]
			vals = vals[:len(idx)]
			for q, i := range idx {
				x := vals[q]
				v1 -= float64(x * c1[i])
				v2 -= float64(x * c2[i])
			}
			terms += int(hi - lo)
		}
		piv := ePiv[e]
		v1, v2 = v1/piv, v2/piv
		if e < ne-lag {
			c1[lv] = v1
		} else {
			v1 = 0 // a lag eta: chain 1 solves against the factor before it
		}
		c2[lv] = v2
		if v1 != 0 || v2 != 0 {
			nz = f.growPattern(nz, lv)
		}
	}
	f.etaTerms += int64(terms)
	f.btranLU2(c1, y1, c2, y2, nz)
}

// btranLU2 finishes btran2 once the eta transposes are applied to c1
// and c2 (nz covering their nonzeros): Uᵀ forward substitution, walking
// the marked stages from the first when btranSeed allows (see
// markStages) or in the full loop, then the reverse Lᵀ sweep into y1
// and y2 over the stages with an L column. The two right-hand sides run
// as two chains over shared loads, and a stage whose value is nonzero
// on either side marks its readers.
func (f *luFactor) btranLU2(c1, y1, c2, y2 []float64, nz []int32) {
	m := f.m
	c1, y1, c2, y2 = c1[:m], y1[:m], c2[:m], y2[:m]
	z1, z2 := f.zs[:m], f.zs2[:m]
	prow, pcol, upiv := f.prow[:m], f.pcol[:m], f.upiv[:m]
	ucPtr, ucStage, ucVal := f.ucPtr[:m+1], f.ucStage, f.ucVal
	terms, next := 0, 0 // next: the first stage of the full loop
	done := f.done[:0]
	if marked := f.btranSeed(nz); marked > 0 {
		// A stage never marked keeps the zero zs and zs2 hold between
		// solves.
		mark, limit := f.mark, m/btranReachDiv
		uPtr, uStage := f.uPtr[:m+1], f.uStage
		next = m
		for k, wi := popLow(mark, 0); k >= 0; k, wi = popLow(mark, wi) {
			cpos := pcol[k]
			v1, v2 := c1[cpos], c2[cpos]
			lo, hi := ucPtr[cpos], ucPtr[cpos+1]
			stages, vals := ucStage[lo:hi], ucVal[lo:hi]
			vals = vals[:len(stages)]
			for q, st := range stages {
				x := vals[q]
				v1 -= float64(x * z1[st])
				v2 -= float64(x * z2[st])
			}
			piv := upiv[k]
			v1, v2 = v1/piv, v2/piv
			z1[k], z2[k] = v1, v2
			done = append(done, int32(k))
			terms += 1 + len(stages)
			if v1 != 0 || v2 != 0 {
				readers := uStage[uPtr[k]:uPtr[k+1]]
				marked += markStages(mark, readers, nil)
				terms += len(readers)
				if marked > limit {
					clear(mark[wi:])
					next = k + 1
					break
				}
			}
		}
	}
	for k := next; k < m; k++ {
		cpos := pcol[k]
		v1, v2 := c1[cpos], c2[cpos]
		lo, hi := ucPtr[cpos], ucPtr[cpos+1]
		stages, vals := ucStage[lo:hi], ucVal[lo:hi]
		vals = vals[:len(stages)]
		for q, st := range stages {
			x := vals[q]
			v1 -= float64(x * z1[st])
			v2 -= float64(x * z2[st])
		}
		piv := upiv[k]
		z1[k], z2[k] = v1/piv, v2/piv
		terms += 1 + len(stages)
	}
	if next < m {
		for k, r := range prow {
			y1[r], y2[r] = z1[k], z2[k]
		}
		clear(z1)
		clear(z2)
	} else {
		clear(y1)
		clear(y2)
		for _, k := range done {
			r := prow[k]
			y1[r], y2[r] = z1[k], z2[k]
			z1[k], z2[k] = 0, 0
		}
	}
	f.done = done
	lPtr, lRow, lVal, ls := f.lPtr[:m+1], f.lRow, f.lVal, f.lStages
	terms += len(ls)
	for q := len(ls) - 1; q >= 0; q-- {
		k := ls[q]
		r := prow[k]
		v1, v2 := y1[r], y2[r]
		lo, hi := lPtr[k], lPtr[k+1]
		rows, vals := lRow[lo:hi], lVal[lo:hi]
		vals = vals[:len(rows)]
		for t, i := range rows {
			x := vals[t]
			v1 -= float64(x * y1[i])
			v2 -= float64(x * y2[i])
		}
		y1[r], y2[r] = v1, v2
		terms += len(rows)
	}
	f.triTerms += int64(terms)
}

// insertionSortInt32 sorts a short int32 slice ascending (column lists
// at gather time are near-sorted already).
func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

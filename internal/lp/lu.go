package lp

import "math"

// This file implements the sparse LU factorization that backs the
// simplex basis: Markowitz-style pivot selection with threshold partial
// pivoting, Suhl–Suhl-style sparse triangular FTRAN/BTRAN solves, and a
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
// comments there and DESIGN.md ("Sparse LU core").

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
	zs, zs2  []float64 // BTRAN stage scratch (zs2: btran2's second chain)
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
	}
	return f
}

// resetEtas drops the eta file (after a fresh factorization).
func (f *luFactor) resetEtas() {
	f.ePtr = f.ePtr[:1]
	f.eIdx = f.eIdx[:0]
	f.eVal = f.eVal[:0]
	f.eLeave = f.eLeave[:0]
	f.ePiv = f.ePiv[:0]
}

// appendEta records the product-form update for a basis change at
// position leave with FTRAN image w (dense, by basis position). The
// caller has already validated the pivot magnitude.
func (f *luFactor) appendEta(leave int, w []float64) {
	for i, v := range w[:f.m] {
		if v != 0 && i != leave {
			f.eIdx = append(f.eIdx, int32(i))
			f.eVal = append(f.eVal, v)
		}
	}
	f.ePtr = append(f.ePtr, int32(len(f.eIdx)))
	f.eLeave = append(f.eLeave, int32(leave))
	f.ePiv = append(f.ePiv, w[leave])
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
	f.resetEtas()
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
				v := aVal[pa] - l*pVal[pb]
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

// The triangular-solve kernels below run over resliced locals so that
// the compiler proves every sequential index in bounds; only the gathers
// through stored row/position indices keep a bounds check. Each kernel
// applies the same floating-point operations in the same order as the
// textbook loops it implements, so the solves stay bit-for-bit functions
// of the factor state (see DESIGN.md, "Sparse LU core").

// ftran solves B·w = b in place: b is the right-hand side indexed by
// matrix row (destroyed), w receives the solution indexed by basis
// position. The L pass skips stages whose pivot-row value is zero (the
// Suhl–Suhl sparse-RHS skip: simplex right-hand sides are a handful of
// nonzeros), and the eta file is applied oldest-first.
func (f *luFactor) ftran(b, w []float64) {
	m := f.m
	b, w = b[:m], w[:m]
	prow, pcol, upiv := f.prow[:m], f.pcol[:m], f.upiv[:m]
	lPtr, lRow, lVal := f.lPtr[:m+1], f.lRow, f.lVal
	for k, r := range prow {
		bk := b[r]
		if bk == 0 {
			continue
		}
		lo, hi := lPtr[k], lPtr[k+1]
		rows, vals := lRow[lo:hi], lVal[lo:hi]
		vals = vals[:len(rows)]
		for t, i := range rows {
			b[i] -= vals[t] * bk
		}
	}
	uPtr, uCol, uVal := f.uPtr[:m+1], f.uCol, f.uVal
	for k := m - 1; k >= 0; k-- {
		v := b[prow[k]]
		lo, hi := uPtr[k], uPtr[k+1]
		cols, vals := uCol[lo:hi], uVal[lo:hi]
		vals = vals[:len(cols)]
		for t, c := range cols {
			v -= vals[t] * w[c]
		}
		w[pcol[k]] = v / upiv[k]
	}
	eLeave := f.eLeave
	ePtr, eIdx, eVal, ePiv := f.ePtr[:len(eLeave)+1], f.eIdx, f.eVal, f.ePiv[:len(eLeave)]
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
			w[i] -= vals[q] * t
		}
		w[lv] = t
	}
}

// btran solves Bᵀ·y = c in place: c is indexed by basis position
// (destroyed), y receives the solution indexed by matrix row. Eta
// transposes apply newest-first, then Uᵀ forward substitution and the
// reverse Lᵀ sweep.
func (f *luFactor) btran(c, y []float64) {
	m := f.m
	c, y = c[:m], y[:m]
	f.btranEtas(c, 0, len(f.eLeave))
	zs := f.zs[:m]
	prow, upiv := f.prow[:m], f.upiv[:m]
	ucPtr, ucStage, ucVal := f.ucPtr[:m+1], f.ucStage, f.ucVal
	for k, cpos := range f.pcol[:m] {
		v := c[cpos]
		lo, hi := ucPtr[cpos], ucPtr[cpos+1]
		stages, vals := ucStage[lo:hi], ucVal[lo:hi]
		vals = vals[:len(stages)]
		for q, st := range stages {
			v -= vals[q] * zs[st]
		}
		zs[k] = v / upiv[k]
	}
	for k, r := range prow {
		y[r] = zs[k]
	}
	lPtr, lRow, lVal := f.lPtr[:m+1], f.lRow, f.lVal
	for k := m - 1; k >= 0; k-- {
		r := prow[k]
		v := y[r]
		lo, hi := lPtr[k], lPtr[k+1]
		rows, vals := lRow[lo:hi], lVal[lo:hi]
		vals = vals[:len(rows)]
		for t, i := range rows {
			v -= vals[t] * y[i]
		}
		y[r] = v
	}
}

// btranEtas applies the transposes of etas first..end-1 to c,
// newest-first.
func (f *luFactor) btranEtas(c []float64, first, end int) {
	eLeave := f.eLeave[:end]
	ePtr, eIdx, eVal, ePiv := f.ePtr[:end+1], f.eIdx, f.eVal, f.ePiv[:end]
	for e := end - 1; e >= first; e-- {
		lv := eLeave[e]
		v := c[lv]
		lo, hi := ePtr[e], ePtr[e+1]
		idx, vals := eIdx[lo:hi], eVal[lo:hi]
		vals = vals[:len(idx)]
		for q, i := range idx {
			v -= vals[q] * c[i]
		}
		c[lv] = v / ePiv[e]
	}
}

// btran2 solves two transposed systems in one pass over the factor:
// Bᵀ·y2 = c2 against the whole eta file, and Bᵀ·y1 = c1 against the
// factor as it stood before the newest lag etas were appended. c2 first
// passes through those lag etas alone; from there on the two right-hand
// sides share every index and value load, running as two independent
// accumulation chains (the eta dot products are latency-bound, so the
// second chain is nearly free). Each chain applies exactly the
// operations of its own btran in the same order, so y1 and y2 equal
// btran on the pre-lag and full factors bit for bit. c1 and c2 are
// destroyed and must not alias.
func (f *luFactor) btran2(c1, y1, c2, y2 []float64, lag int) {
	m := f.m
	c1, y1, c2, y2 = c1[:m], y1[:m], c2[:m], y2[:m]
	ne := len(f.eLeave) - lag
	f.btranEtas(c2, ne, ne+lag)
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
			v1 -= x * c1[i]
			v2 -= x * c2[i]
		}
		piv := ePiv[e]
		c1[lv], c2[lv] = v1/piv, v2/piv
	}
	z1, z2 := f.zs[:m], f.zs2[:m]
	prow, upiv := f.prow[:m], f.upiv[:m]
	ucPtr, ucStage, ucVal := f.ucPtr[:m+1], f.ucStage, f.ucVal
	for k, cpos := range f.pcol[:m] {
		v1, v2 := c1[cpos], c2[cpos]
		lo, hi := ucPtr[cpos], ucPtr[cpos+1]
		stages, vals := ucStage[lo:hi], ucVal[lo:hi]
		vals = vals[:len(stages)]
		for q, st := range stages {
			x := vals[q]
			v1 -= x * z1[st]
			v2 -= x * z2[st]
		}
		piv := upiv[k]
		z1[k], z2[k] = v1/piv, v2/piv
	}
	for k, r := range prow {
		y1[r], y2[r] = z1[k], z2[k]
	}
	lPtr, lRow, lVal := f.lPtr[:m+1], f.lRow, f.lVal
	for k := m - 1; k >= 0; k-- {
		r := prow[k]
		v1, v2 := y1[r], y2[r]
		lo, hi := lPtr[k], lPtr[k+1]
		rows, vals := lRow[lo:hi], lVal[lo:hi]
		vals = vals[:len(rows)]
		for t, i := range rows {
			x := vals[t]
			v1 -= x * y1[i]
			v2 -= x * y2[i]
		}
		y1[r], y2[r] = v1, v2
	}
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

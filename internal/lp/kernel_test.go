package lp

import (
	"math"
	"math/rand"
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
// defaultRefactorEvery etas, ftran and btran equal the textbook loops
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
		for ne := 0; ne <= defaultRefactorEvery; ne++ {
			if ne > 0 {
				for s := range preC {
					preC[s] = kernelRHS(rng, m, s == 0)
					preY[s] = make([]float64, m)
					f.btran(append([]float64(nil), preC[s]...), preY[s])
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
				f.btran(append([]float64(nil), b...), got)
				btranRef(f, append([]float64(nil), b...), want)
				if !sameBits(got, want) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: btran differs from the reference", trial, m, ne, unit)
				}
			}
			c1, c2 := kernelRHS(rng, m, true), kernelRHS(rng, m, false)
			want1, want2 := make([]float64, m), make([]float64, m)
			f.btran(append([]float64(nil), c1...), want1)
			f.btran(append([]float64(nil), c2...), want2)
			y1, y2 := make([]float64, m), make([]float64, m)
			f.btran2(append([]float64(nil), c1...), y1, append([]float64(nil), c2...), y2, 0)
			if !sameBits(y1, want1) || !sameBits(y2, want2) {
				t.Fatalf("trial %d m=%d etas=%d: btran2 differs from two btran calls", trial, m, ne)
			}
			if ne == 0 {
				continue
			}
			// Lag 1: the first side sees the factor before the newest eta.
			for s := range preC {
				y1, y2 := make([]float64, m), make([]float64, m)
				f.btran2(append([]float64(nil), preC[s]...), y1, append([]float64(nil), c2...), y2, 1)
				if !sameBits(y1, preY[s]) || !sameBits(y2, want2) {
					t.Fatalf("trial %d m=%d etas=%d unit=%v: lagged btran2 differs from btran on the pre- and post-pivot factors", trial, m, ne, s == 0)
				}
			}
		}
	}
}

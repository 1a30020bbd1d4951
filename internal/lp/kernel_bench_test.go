package lp_test

import (
	"sync"
	"testing"

	"mbsp/internal/ilpsched"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// kernelEtas is the eta count of the benchmark factor: half the default
// refactorization cadence, the average eta-file length a solve sees.
const kernelEtas = 64

var kernelFixture = sync.OnceValues(func() (*lp.KernelFixture, error) {
	inst, err := workloads.ByName("spmv_N7")
	if err != nil {
		return nil, err
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	p, err := ilpsched.Relaxation(inst.DAG, arch, ilpsched.Options{Model: mbsp.Sync})
	if err != nil {
		return nil, err
	}
	return lp.NewKernelFixture(p, kernelEtas)
})

// benchKernel times one LU kernel or PRICE on the root basis of the
// spmv_N7 P=1 scheduling ILP (the solve-ilp benchmark's root-dominated
// model) plus kernelEtas product-form updates, and reports the work
// counts per call.
func benchKernel(b *testing.B, run func(*lp.KernelFixture)) {
	k, err := kernelFixture()
	if err != nil {
		b.Fatal(err)
	}
	eta, tri, price := k.Terms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(k)
	}
	b.StopTimer()
	m, etas, fill := k.Size()
	b.ReportMetric(float64(m), "rows")
	b.ReportMetric(float64(etas), "etas")
	b.ReportMetric(float64(fill), "fill")
	eta2, tri2, price2 := k.Terms()
	b.ReportMetric(float64(eta2-eta)/float64(b.N), "eta_terms/op")
	b.ReportMetric(float64(tri2-tri)/float64(b.N), "tri_terms/op")
	b.ReportMetric(float64(price2-price)/float64(b.N), "price_terms/op")
}

// TestSparseEtaPassOnKernelFixture: on the benchmark factor, btran and
// btran2 equal the full eta pass up to the sign of a zero, on the
// fixture's right-hand sides and on sparse random ones.
func TestSparseEtaPassOnKernelFixture(t *testing.T) {
	k, err := kernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	terms, full, err := k.CheckSparseEtaPass(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sparse pass visited %d of %d eta entries", terms, full)
	if terms*2 > full {
		t.Fatalf("sparse pass visited %d of %d eta entries: the fixture no longer exercises it", terms, full)
	}
}

// The kernel benchmarks time both sides of the U passes' reach cut-off:
// a slack column and unit rows reach few stages; the fixture's last
// entering column, its duals and a dense right-hand side reach past the
// cut-off and take the full loops. BenchmarkPrice times a pivot row,
// priced by row, and a dense vector, priced by column.
func BenchmarkFtran(b *testing.B) {
	b.Run("slack", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).FtranSlack) })
	b.Run("col", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).Ftran) })
	b.Run("dense", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).FtranDense) })
}

func BenchmarkBtran(b *testing.B) {
	b.Run("unit", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).BtranUnit) })
	b.Run("duals", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).Btran) })
}

func BenchmarkBtran2(b *testing.B) {
	b.Run("units", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).Btran2Units) })
	b.Run("duals", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).Btran2) })
	b.Run("dense", func(b *testing.B) { benchKernel(b, (*lp.KernelFixture).Btran2Dense) })
}

func BenchmarkPrice(b *testing.B) {
	b.Run("row", func(b *testing.B) { benchKernel(b, func(k *lp.KernelFixture) { k.Price(false) }) })
	b.Run("dense", func(b *testing.B) { benchKernel(b, func(k *lp.KernelFixture) { k.Price(true) }) })
}

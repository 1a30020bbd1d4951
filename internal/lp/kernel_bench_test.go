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

// benchKernel times one LU kernel on the root basis of the spmv_N7 P=1
// scheduling ILP (the solve-ilp benchmark's root-dominated model) plus
// kernelEtas product-form updates.
func benchKernel(b *testing.B, run func(*lp.KernelFixture)) {
	k, err := kernelFixture()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(k)
	}
	m, etas, fill := k.Size()
	b.ReportMetric(float64(m), "rows")
	b.ReportMetric(float64(etas), "etas")
	b.ReportMetric(float64(fill), "fill")
}

func BenchmarkFtran(b *testing.B)  { benchKernel(b, (*lp.KernelFixture).Ftran) }
func BenchmarkBtran(b *testing.B)  { benchKernel(b, (*lp.KernelFixture).Btran) }
func BenchmarkBtran2(b *testing.B) { benchKernel(b, (*lp.KernelFixture).Btran2) }

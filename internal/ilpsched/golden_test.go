package ilpsched

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// goldenSolve is one pinned ScheduleILP configuration: the solve-ilp
// benchmark's options (serial tree search, minimal local search, a wall
// clock that never binds) on one registry instance.
type goldenSolve struct {
	inst      string
	p         int
	rfactor   float64
	nodeLimit int
	want      string
}

// goldenSolves pin the exact signature of three solves that exercise
// every simplex path: a tree-dominated P=1 solve (warm dual re-solves,
// Devex primal clean-ups), one whose tree falls back to cold solves
// three times, and a root-dominated P=2 model whose cold root primal
// is the whole search. The LP kernels promise bit-identical results for
// a given input, so any change to pivot choice, floating-point operation
// order or counter semantics shows up here. Deliberate changes to pivot
// paths re-record the signatures.
var goldenSolves = []goldenSolve{
	{"k-means", 1, 3, 20, "rows=903 nodes=20 lps=20 iters=1888 warm=19 cold=1 perturbed=20 cleanup=0 final=96 bound=0x3fc2492492492492 sched=0x268f3f7eea18631a refactors=26 etas=1886 ftrans=2740 btrans=3815"},
	{"kNN_N4_K3", 1, 3, 20, "rows=1724 nodes=20 lps=20 iters=5511 warm=17 cold=3 perturbed=20 cleanup=0 final=81 bound=0x3f9fc3047257a99f sched=0x27da016c78d84041 refactors=57 etas=5510 ftrans=6571 btrans=11064"},
	{"spmv_N6", 2, 3, 1, "rows=3215 nodes=1 lps=1 iters=4316 warm=0 cold=1 perturbed=1 cleanup=0 final=96 bound=0x3fb0690690690692 sched=0xceb55a3b50b9e494 refactors=34 etas=4310 ftrans=4350 btrans=8629"},
}

// goldenSignature renders everything about a solve that must stay
// bit-identical: the search counts, the schedule cost, the exact bits of
// the proved bound, a hash of the schedule and the LU counters.
func goldenSignature(s *mbsp.Schedule, st Stats, lu lp.FactorStats) string {
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return fmt.Sprintf("rows=%d nodes=%d lps=%d iters=%d warm=%d cold=%d perturbed=%d cleanup=%d final=%g bound=%#x sched=%#x refactors=%d etas=%d ftrans=%d btrans=%d",
		st.ModelRows, st.ILPNodes, st.ILPLPs, st.SimplexIters, st.WarmLPs, st.ColdLPs,
		st.PerturbedLPs, st.CleanupIters, st.FinalCost, math.Float64bits(st.ProvedBound),
		h.Sum64(), lu.Refactors, lu.EtaPivots, lu.Ftrans, lu.Btrans)
}

func TestGoldenILPSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("three registry ILP solves (~10s) skipped in -short")
	}
	for _, gs := range goldenSolves {
		name := fmt.Sprintf("%s/p%d/rf%g/nodes%d", gs.inst, gs.p, gs.rfactor, gs.nodeLimit)
		t.Run(name, func(t *testing.T) {
			inst, err := workloads.ByName(gs.inst)
			if err != nil {
				t.Fatal(err)
			}
			arch := mbsp.Arch{P: gs.p, R: gs.rfactor * inst.DAG.MinCache(), G: 1, L: 10}
			var lu lp.FactorStats
			s, st, err := Solve(inst.DAG, arch, Options{
				Model:             mbsp.Sync,
				NodeLimit:         gs.nodeLimit,
				MIPWorkers:        1,
				LocalSearchBudget: 1,
				TimeLimit:         time.Hour,
				Seed:              1,
				LUStats:           &lu,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("schedule invalid: %v", err)
			}
			if got := goldenSignature(s, st, lu); got != gs.want {
				t.Fatalf("signature changed:\n got %s\nwant %s", got, gs.want)
			}
		})
	}
}

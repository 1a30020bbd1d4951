package partition

import (
	"testing"

	"mbsp/internal/mip"
	"mbsp/internal/workloads"
)

// TestWarmColdBipartitionAgreeOnRegistry cross-checks the warm-started
// solver against the cold-start ablation on the branch-and-bound trees
// registry workloads actually search (the DnC partitioning ILPs): both
// must find partitions of equal proven-optimal cut size, and the warm
// path must spend strictly fewer simplex iterations in total. This is
// the tree-level half of the solver cross-check; the LP-level half
// (sparse vs dense reference on random LPs, warm vs cold after bound
// changes) lives in internal/lp, and the full-pipeline half in
// internal/ilpsched.
func TestWarmColdBipartitionAgreeOnRegistry(t *testing.T) {
	totWarm, totCold := 0, 0
	for _, inst := range workloads.Tiny() {
		if inst.DAG.N() < 24 {
			continue // a single sub-ILP window covers the whole DAG
		}
		_, warmCut, warm, err := Bipartition(inst.DAG, mip.Options{NodeLimit: 20000})
		if err != nil {
			t.Fatalf("%s: warm: %v", inst.Name, err)
		}
		_, coldCut, cold, err := Bipartition(inst.DAG, mip.Options{NodeLimit: 20000, ColdStart: true})
		if err != nil {
			t.Fatalf("%s: cold: %v", inst.Name, err)
		}
		// A proven-optimal cut size is solver-independent; the chosen
		// partition may differ between alternate optima.
		if warm.Status == mip.Optimal && cold.Status == mip.Optimal && warmCut != coldCut {
			t.Fatalf("%s: warm optimal cut=%d vs cold optimal cut=%d", inst.Name, warmCut, coldCut)
		}
		if warm.WarmLPs == 0 && warm.ILPNodes > 2 {
			t.Fatalf("%s: no warm re-solves in a %d-node tree", inst.Name, warm.ILPNodes)
		}
		totWarm += warm.SimplexIters
		totCold += cold.SimplexIters
	}
	if totWarm == 0 || totCold == 0 {
		t.Fatal("no bipartition trees were searched")
	}
	t.Logf("registry bipartition trees: warm=%d cold=%d simplex iterations (%.2fx)",
		totWarm, totCold, float64(totCold)/float64(totWarm))
	if totWarm >= totCold {
		t.Fatalf("warm-started trees used %d iterations, cold %d — warm start is not winning", totWarm, totCold)
	}
}

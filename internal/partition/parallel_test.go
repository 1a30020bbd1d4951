package partition

import (
	"fmt"
	"runtime"
	"testing"

	"mbsp/internal/mip"
	"mbsp/internal/workloads"
)

// matrixFixtures picks a representative slice of the registry
// partitioning fixtures — the branch-and-bound trees the DnC pipeline
// actually searches — keeping the matrix affordable under -race.
func matrixFixtures(t *testing.T) []workloads.Instance {
	t.Helper()
	var out []workloads.Instance
	want := map[string]bool{
		"spmv_N10": true, "CG_N3_K1": true, "exp_N6_K4": true, "kNN_N5_K3": true,
	}
	for _, inst := range workloads.Tiny() {
		if want[inst.Name] {
			out = append(out, inst)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("registry fixtures missing: got %d of %d", len(out), len(want))
	}
	return out
}

// TestBipartitionParallelDeterminismMatrix is the registry-partitioning
// half of the parallel determinism matrix (the random-MILP half lives in
// internal/mip): on real bipartition ILPs, Workers ∈ {1, 2, 8} ×
// GOMAXPROCS ∈ {1, 4} must produce the identical partition, cut,
// optimality proof and solver counters — both for completed searches and
// under a node limit that truncates mid-tree. Run with -race
// (scripts/verify.sh does).
func TestBipartitionParallelDeterminismMatrix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, inst := range matrixFixtures(t) {
		for _, nodeLimit := range []int{20000, 60} {
			var want string
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 8} {
					part, cut, res, err := Bipartition(inst.DAG, mip.Options{
						NodeLimit: nodeLimit, Workers: workers,
					})
					if err != nil {
						t.Fatalf("%s (limit=%d workers=%d): %v", inst.Name, nodeLimit, workers, err)
					}
					got := fmt.Sprintf("part=%v cut=%d status=%v counters=%+v", part, cut, res.Status, res.Counters)
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("%s (limit=%d): diverged at GOMAXPROCS=%d Workers=%d\nfirst: %s\nthis:  %s",
							inst.Name, nodeLimit, procs, workers, want, got)
					}
				}
			}
		}
	}
}

// TestRecursiveParallelDeterminism pins the full partitioning stage: the
// recursive splitter over worker-pooled bipartition ILPs must emit the
// identical part vector and counters for any worker count.
func TestRecursiveParallelDeterminism(t *testing.T) {
	inst, err := workloads.ByName("CG_N4_K1")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 4} {
		res, err := Recursive(inst.DAG, 24, &mip.Options{NodeLimit: 2000, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fmt.Sprintf("%+v", res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Recursive diverged at Workers=%d\nfirst: %s\nthis:  %s", workers, want, got)
		}
	}
}

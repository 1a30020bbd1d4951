package ilpsched

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// crossCheckOpts returns node-limited deterministic budgets shared by
// both stacks under comparison.
func crossCheckOpts() Options {
	return Options{
		Model:             mbsp.Sync,
		TimeLimit:         time.Minute, // generous: the node limit binds
		NodeLimit:         120,
		LocalSearchBudget: 200,
		Seed:              7,
		// Pin the pre-LU row ceiling: the reference stack routes every
		// relaxation through the dense O(m²)-per-iteration oracle, which
		// is exactly what the sparse LU core outgrows. Registry models
		// beyond the dense envelope are covered by the LU-only tests
		// (TestLargeModelEntersTreeSearch) instead of this comparison.
		MaxModelRows: 3000,
	}
}

func scheduleBytes(t *testing.T, s *mbsp.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mbsp.WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmStackMatchesReferenceOnRegistry is the solver-core cross-check:
// on every registry ILP workload, the warm-started sparse stack (dual
// re-solves from the parent basis, Devex pricing, refactorization) must
// return the same final cost (within 1e-9) and the same final schedule
// bytes as the original dense cold-start stack, while re-solving the tree
// in warm dual iterations. This pins the optimization as a pure
// performance change: same search, same answers, fewer iterations.
func TestWarmStackMatchesReferenceOnRegistry(t *testing.T) {
	insts := workloads.Tiny()
	if !testing.Short() {
		insts = append(insts, workloads.Small()...)
	}
	var warmIters, refIters int
	for _, inst := range insts {
		arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}

		warmOpts := crossCheckOpts()
		warm, warmStats, err := Solve(inst.DAG, arch, warmOpts)
		if err != nil {
			t.Fatalf("%s: warm stack: %v", inst.Name, err)
		}
		ref, refStats, err := solve(inst.DAG, arch, crossCheckOpts(), true)
		if err != nil {
			t.Fatalf("%s: reference stack: %v", inst.Name, err)
		}

		if math.Abs(warmStats.FinalCost-refStats.FinalCost) > 1e-9*(1+math.Abs(refStats.FinalCost)) {
			t.Fatalf("%s: warm cost %g != reference cost %g",
				inst.Name, warmStats.FinalCost, refStats.FinalCost)
		}
		if wb, rb := scheduleBytes(t, warm), scheduleBytes(t, ref); !bytes.Equal(wb, rb) {
			t.Fatalf("%s: schedules diverge between warm and reference stacks\nwarm (%s):\n%s\nreference (%s):\n%s",
				inst.Name, warmStats.Source, wb, refStats.Source, rb)
		}
		warmIters += warmStats.SimplexIters
		refIters += refStats.SimplexIters
		if warmStats.UsedILP && warmStats.ILPNodes > 2 && warmStats.WarmLPs == 0 {
			t.Fatalf("%s: tree search ran %d nodes without a single warm re-solve", inst.Name, warmStats.ILPNodes)
		}
	}
	if refIters > 0 {
		t.Logf("total simplex iterations across registry trees: warm=%d reference=%d (%.2fx)",
			warmIters, refIters, float64(refIters)/float64(math.Max(1, float64(warmIters))))
	}
	if warmIters > refIters {
		t.Fatalf("warm stack used more simplex iterations than the reference: %d vs %d", warmIters, refIters)
	}
}

package dnc

import (
	"context"
	"errors"
	"testing"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

func TestSolveValidOnSmallInstances(t *testing.T) {
	for _, inst := range workloads.Small()[:4] {
		arch := mbsp.Arch{P: 4, R: 5 * inst.DAG.MinCache(), G: 1, L: 10}
		s, stats, err := Solve(inst.DAG, arch, 20, ilpsched.Options{
			TimeLimit:         500 * time.Millisecond,
			NodeLimit:         20,
			LocalSearchBudget: 50,
		})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := s.CheckComputesAll(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if stats.Parts < 2 {
			t.Fatalf("%s: expected multiple parts, got %d", inst.Name, stats.Parts)
		}
		if stats.PartitionSolver.ILPNodes == 0 {
			t.Fatalf("%s: no bipartition nodes counted for %d parts", inst.Name, stats.Parts)
		}
		t.Logf("%s: parts=%d cut=%d cost=%g (streamline won %g)",
			inst.Name, stats.Parts, stats.CutEdges, stats.FinalCost, stats.StreamlineWin)
	}
}

func TestSolveComparableToBaseline(t *testing.T) {
	// The D&C heuristic may win or lose vs the two-stage baseline (the
	// paper reports both), but it must stay within a sane factor.
	inst, err := workloads.ByName("spmv_N25")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 4, R: 5 * inst.DAG.MinCache(), G: 1, L: 10}
	base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := Solve(inst.DAG, arch, 0, ilpsched.Options{
		TimeLimit:         500 * time.Millisecond,
		NodeLimit:         20,
		LocalSearchBudget: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := s.SyncCost() / base.SyncCost()
	t.Logf("dnc/base ratio = %.3f", ratio)
	// The D&C heuristic may lose to the baseline (the paper reports
	// losses up to 1.29x at 30-minute sub-solves; our budgets are three
	// orders of magnitude smaller), but it must stay within a sane band.
	if ratio > 2.0 {
		t.Fatalf("D&C cost %g more than 2x baseline %g", s.SyncCost(), base.SyncCost())
	}
}

func TestSolveTinyDAGSinglePart(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 2, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	s, stats, err := Solve(inst.DAG, arch, 100, ilpsched.Options{ // whole DAG in one part
		TimeLimit: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Parts != 1 {
		t.Fatalf("parts=%d want 1", stats.Parts)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRejectsTooSmallCache(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 2, R: inst.DAG.MinCache() - 1, G: 1, L: 10}
	if _, _, err := Solve(inst.DAG, arch, 0, ilpsched.Options{}); err == nil {
		t.Fatal("expected cache error")
	}
}

// TestSolveRejectsPerPartOptions: WarmStart and NeedBlue are boundary
// conditions dnc sets for each part, so a caller setting either is an
// error rather than a silently overridden option.
func TestSolveRejectsPerPartOptions(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 2, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	warm, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]ilpsched.Options{
		"WarmStart": {WarmStart: warm},
		"NeedBlue":  {NeedBlue: []int{0}},
	} {
		if _, _, err := Solve(inst.DAG, arch, 100, opts); err == nil {
			t.Errorf("%s set by the caller: want an error", name)
		}
	}
}

// TestSolveCancelledSkipsPartitioning: an already-cancelled Context must
// stop the run before the partitioning stage searches any bipartition
// tree, not only between parts.
func TestSolveCancelledSkipsPartitioning(t *testing.T) {
	inst, err := workloads.ByName("CG_N5_K2")
	if err != nil {
		t.Fatal(err)
	}
	const maxPartSize = 45
	if inst.DAG.N() <= maxPartSize {
		t.Fatalf("%s has %d nodes; the fixture must need a split", inst.Name, inst.DAG.N())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	_, stats, err := Solve(inst.DAG, arch, maxPartSize, ilpsched.Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.PartitionSolver.ILPNodes != 0 {
		t.Fatalf("cancelled run searched %d bipartition nodes, want 0", stats.PartitionSolver.ILPNodes)
	}
}

// TestSolveCountsSubILPFaults checks that faults injected into the
// sub-ILP trees reach Stats: SubILPs sums every part's tree counters, and
// a node-limited run reports the same counts each time.
func TestSolveCountsSubILPFaults(t *testing.T) {
	inst, err := workloads.ByName("pregel")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	opts := ilpsched.Options{
		NodeLimit:         5,
		MIPWorkers:        1,
		LocalSearchBudget: 1,
		TimeLimit:         time.Hour,
		Inject:            faultinject.New(7, 0.5, 0, faultinject.ColdFallback, faultinject.SingularFactor),
	}
	_, stats, err := Solve(inst.DAG, arch, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Parts < 2 {
		t.Fatalf("expected multiple parts, got %d", stats.Parts)
	}
	if stats.SubILPs.ILPNodes == 0 || stats.SubILPs.InjectedFaults == 0 {
		t.Fatalf("sub-ILP counters %+v: want tree nodes and injected faults", stats.SubILPs)
	}
	if limit := stats.Parts * opts.NodeLimit; stats.SubILPs.ILPNodes > limit {
		t.Fatalf("%d sub-ILP nodes over %d parts at NodeLimit %d", stats.SubILPs.ILPNodes, stats.Parts, opts.NodeLimit)
	}
	_, again, err := Solve(inst.DAG, arch, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again != stats {
		t.Fatalf("node-limited reruns disagree:\n%+v\n%+v", stats, again)
	}
	t.Logf("%d parts: partition %+v, sub-ILPs %+v", stats.Parts, stats.PartitionSolver, stats.SubILPs)
}

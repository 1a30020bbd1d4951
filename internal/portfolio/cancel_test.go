package portfolio

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// waitForGoroutines polls until the goroutine count drops back to (near)
// the baseline, failing the test if workers leak past the run.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		// A small slack absorbs runtime/testing housekeeping goroutines.
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPortfolioCancelMidRun cancels the context while schedulers are in
// flight: run must return promptly with best-so-far results, mark the
// run interrupted, and leak no goroutines. A candidate that blocks until
// cancellation guarantees the cancel strikes mid-run.
func TestPortfolioCancelMidRun(t *testing.T) {
	inst, err := workloads.ByName("spmv_N10")
	if err != nil {
		t.Fatal(err)
	}
	arch := baseArch(inst.DAG)
	opts := testOpts()
	opts.Workers = 2
	opts.Candidates = []Candidate{
		pipelineCandidate(twostage.Baseline(arch), false),
		{Name: "blocker", Run: func(ctx context.Context, _ *graph.DAG, _ mbsp.Arch, _ Options) (*mbsp.Schedule, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}},
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	res, _, err := run(ctx, inst.DAG, arch, opts)
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("run took %v after cancellation — cancellation did not propagate", elapsed)
	}
	if !res.Interrupted {
		t.Fatal("result not marked interrupted")
	}
	// Best-so-far: the fast baseline completed before the cancel.
	if err != nil {
		t.Fatalf("expected best-so-far result, got %v", err)
	}
	if res.BestName != "bspg+clairvoyant" {
		t.Fatalf("unexpected winner %s", res.BestName)
	}
	if verr := res.Best.Validate(); verr != nil {
		t.Fatalf("best-so-far schedule invalid: %v", verr)
	}
	waitForGoroutines(t, base)
}

// TestPortfolioCancelStopsILP cancels a run whose only candidate is the
// ILP with effectively unbounded budgets: the branch-and-bound loop must
// notice the cancellation and return its best-so-far schedule quickly.
func TestPortfolioCancelStopsILP(t *testing.T) {
	// P=1 k-means is the grinding case: the ILP model fits the solver
	// (under ~2600 rows) but branch-and-bound runs into any time budget.
	inst, err := workloads.ByName("k-means")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	opts := testOpts()
	opts.ILP.TimeLimit = time.Minute
	opts.ILP.NodeLimit = 1 << 30
	opts.Candidates = []Candidate{ILPCandidate()}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	res, _, err := run(ctx, inst.DAG, arch, opts)
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("run took %v after cancellation — solver ignored the cancel", elapsed)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("run finished in %v, before the cancel even fired — not a mid-run cancel", elapsed)
	}
	if !res.Interrupted {
		t.Fatal("result not marked interrupted")
	}
	// The ILP candidate's best-so-far is at minimum its warm start.
	if err != nil {
		if !errors.Is(err, ErrNoSchedule) {
			t.Fatalf("unexpected error: %v", err)
		}
	} else if verr := res.Best.Validate(); verr != nil {
		t.Fatalf("best-so-far schedule invalid: %v", verr)
	}
	waitForGoroutines(t, base)
}

// TestPortfolioCancelMidTreeParallel cancels a run whose ILP candidate is
// searching its tree with a multi-worker relaxation pool: the wave
// workers inside the branch-and-bound engine must notice the cancel, the
// candidate must still return its best-so-far schedule, and — the
// goroutine-leak coverage this test exists for — no tree-level worker may
// outlive the run. The pre-parallel suite only ever cancelled serial
// trees, so a leaked wave worker (blocked in an LP solve that ignores the
// cancel, or a wave that never joins) went unobserved.
func TestPortfolioCancelMidTreeParallel(t *testing.T) {
	// P=1 k-means: the grinding scheduling ILP whose node relaxations run
	// long enough that the cancel reliably strikes mid-wave.
	inst, err := workloads.ByName("k-means")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	opts := testOpts()
	opts.ILP.TimeLimit = time.Minute
	opts.ILP.NodeLimit = 1 << 30
	opts.ILP.MIPWorkers = 4
	opts.Candidates = []Candidate{ILPCandidate()}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(150*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	res, _, err := run(ctx, inst.DAG, arch, opts)
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("run took %v after cancellation — parallel tree search ignored the cancel", elapsed)
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("run finished in %v, before the cancel even fired — not a mid-tree cancel", elapsed)
	}
	if !res.Interrupted {
		t.Fatal("result not marked interrupted")
	}
	if err != nil {
		if !errors.Is(err, ErrNoSchedule) {
			t.Fatalf("unexpected error: %v", err)
		}
	} else if verr := res.Best.Validate(); verr != nil {
		t.Fatalf("best-so-far schedule invalid: %v", verr)
	}
	// The leak assertion: candidate workers AND the mip wave workers must
	// all be gone.
	waitForGoroutines(t, base)
}

// TestPortfolioPreCancelled runs with an already-cancelled context: no
// candidate may execute, and the error must wrap ErrNoSchedule.
func TestPortfolioPreCancelled(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := baseArch(inst.DAG)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := run(ctx, inst.DAG, arch, testOpts())
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("want ErrNoSchedule, got %v", err)
	}
	for _, c := range res.Candidates {
		if c.Err == nil {
			t.Fatalf("candidate %s ran under a pre-cancelled context", c.Name)
		}
	}
	waitForGoroutines(t, base)
}

// TestPortfolioSchedulerTimeout gives each candidate a tiny wall-clock
// budget with a huge solver budget: the per-candidate timeout must cut
// ILP-based candidates down to their warm starts, and the run must still
// produce a valid best schedule quickly.
func TestPortfolioSchedulerTimeout(t *testing.T) {
	inst, err := workloads.ByName("spmv_N7")
	if err != nil {
		t.Fatal(err)
	}
	arch := baseArch(inst.DAG)
	opts := testOpts()
	opts.SchedulerTimeout = 50 * time.Millisecond
	opts.ILP.TimeLimit = time.Minute
	opts.ILP.LocalSearchBudget = 1 << 30

	base := runtime.NumGoroutine()
	start := time.Now()
	res, _, err := run(context.Background(), inst.DAG, arch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("run took %v — per-scheduler timeout did not bind", elapsed)
	}
	if res.Interrupted {
		t.Fatal("per-candidate timeouts must not mark the portfolio interrupted")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("best schedule invalid: %v", err)
	}
	if res.Best.Cost(mbsp.Sync) != res.BestCost {
		t.Fatalf("BestCost %g does not match schedule cost %g", res.BestCost, res.Best.Cost(mbsp.Sync))
	}
	waitForGoroutines(t, base)
}

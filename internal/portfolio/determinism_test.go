package portfolio

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// deterministicOpts replaces the wall-clock ILP budget with a node limit:
// tree-size limits bind at the same point on every run, while time limits
// cut the search wherever the scheduler happened to be.
func deterministicOpts(workers int) Options {
	return Options{
		Workers: workers,
		ILP: ilpsched.Options{
			Model:             mbsp.Sync,
			TimeLimit:         time.Minute,
			NodeLimit:         200,
			LocalSearchBudget: 200,
			Seed:              7,
		},
	}
}

// snapshot serializes every candidate schedule plus the winner, capturing
// the full observable outcome of a run. Candidate errors (e.g. a
// deterministic incumbent cutoff of the DnC run) serialize by message.
func snapshot(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "best=%s cost=%.9g\n", res.BestName, res.BestCost)
	for _, c := range res.Candidates {
		if c.Err != nil {
			fmt.Fprintf(&buf, "candidate %s err=%v\n", c.Name, c.Err)
			continue
		}
		fmt.Fprintf(&buf, "candidate %s cost=%.9g\n", c.Name, c.Cost)
		if err := mbsp.WriteSchedule(&buf, c.Schedule); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPortfolioDeterministicAcrossGOMAXPROCS asserts byte-identical
// schedules for identical seeds under GOMAXPROCS 1, 2 and 8, and under
// different worker-pool widths. Run with -race (scripts/verify.sh does).
// Under Options.ILP.NodeLimit every candidate — including dnc-ilp, whose
// partitioning and sub-ILP stages are node-limited through the knob, and
// the warm-started dual-simplex ILP path — must land in the guarantee;
// the sealed shared incumbent must not break it either.
//
// The guarantee covers node-bound candidates only: one cut by its clock
// returns a timing-dependent best-so-far schedule (Degraded), so the
// fixture asserts none was. As in TestChaosDeterministicByteIdentical,
// ILP.MaxModelRows keeps the registry instances' holistic models (5949 to
// 31989 rows at P=4, seconds per cold root relaxation) on the warm-start
// + local-search path, and a small P=1 DAG's 586-row model is where the
// node-limited tree search runs.
func TestPortfolioDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type fixture struct {
		g    *graph.DAG
		arch mbsp.Arch
	}
	var fixtures []fixture
	for _, name := range []string{"spmv_N6", "CG_N2_K2", "k-means"} {
		inst, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{inst.DAG, baseArch(inst.DAG)})
	}
	tree := graph.RandomLayered("determinism-tree", 4, 4, 0.5, 9, 5, 2)
	fixtures = append(fixtures, fixture{tree, mbsp.Arch{P: 1, R: 3 * tree.MinCache(), G: 1, L: 10}})
	for _, fx := range fixtures {
		name, arch := fx.g.Name(), fx.arch
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 4} {
				opts := deterministicOpts(workers)
				opts.ILP.MaxModelRows = 3000
				res, _, err := run(context.Background(), fx.g, arch, opts)
				if err != nil {
					t.Fatalf("%s (GOMAXPROCS=%d workers=%d): %v", name, procs, workers, err)
				}
				for _, c := range res.Candidates {
					if c.Degraded {
						t.Fatalf("%s (GOMAXPROCS=%d workers=%d): candidate %s was cut by its clock after %v, not its node limit",
							name, procs, workers, c.Name, c.Elapsed)
					}
				}
				got := snapshot(t, res)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: schedules differ at GOMAXPROCS=%d workers=%d\nfirst run:\n%s\nthis run:\n%s",
						name, procs, workers, want, got)
				}
			}
		}
	}
}

// TestSharedBoundIsSealedBaseline pins the shared incumbent to one
// value fixed by the input: the memoized baseline's cost, sealed before
// any candidate starts, in node-limited and wall-clock runs alike. A
// candidate that beats the baseline must not lower it, or pruning would
// depend on which candidate finished first.
func TestSharedBoundIsSealedBaseline(t *testing.T) {
	inst, err := workloads.ByName("CG_N2_K2")
	if err != nil {
		t.Fatal(err)
	}
	arch := baseArch(inst.DAG)
	for _, nodeLimit := range []int{deterministicOpts(4).ILP.NodeLimit, 0} {
		opts := deterministicOpts(4)
		opts.ILP.NodeLimit = nodeLimit
		res, sh, err := run(context.Background(), inst.DAG, arch, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := sh.warm.Cost(mbsp.Sync)
		if got := sh.inc.Get(); got != base {
			t.Errorf("NodeLimit %d: shared bound %g after the run, want the baseline cost %g", nodeLimit, got, base)
		}
		if res.BestCost >= base {
			t.Errorf("NodeLimit %d: best cost %g does not beat the baseline %g; the instance no longer tests the seal", nodeLimit, res.BestCost, base)
		}
	}
}

// TestCandidateSeedStable pins the per-candidate seed derivation: it must
// depend only on the portfolio seed and the candidate name, never on
// position or scheduling order.
func TestCandidateSeedStable(t *testing.T) {
	if candidateSeed(1, "ilp") != candidateSeed(1, "ilp") {
		t.Fatal("candidateSeed not a pure function")
	}
	if candidateSeed(1, "ilp") == candidateSeed(1, "cilk+lru") {
		t.Fatal("different candidates share a seed")
	}
	if candidateSeed(1, "ilp") == candidateSeed(2, "ilp") {
		t.Fatal("portfolio seed ignored")
	}
}

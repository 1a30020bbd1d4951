package portfolio

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mbsp/internal/dnc"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// testOpts returns budgets sized for the test suite: small enough to run
// the full candidate set on every instance, large enough for the ILP to
// do real work.
func testOpts() Options {
	return Options{ILP: ilpsched.Options{
		Model:             mbsp.Sync,
		TimeLimit:         150 * time.Millisecond,
		LocalSearchBudget: 200,
		Seed:              1,
	}}
}

func baseArch(g *graph.DAG) mbsp.Arch {
	return mbsp.Arch{P: 4, R: 3 * g.MinCache(), G: 1, L: 10}
}

// TestPortfolioValidAndBestOnTiny is the core cross-scheduler validation
// suite: on every tiny-dataset workload, every candidate produces a
// schedule that passes mbsp.Validate and yields finite positive values
// under both cost functions, and the portfolio's winner is no worse than
// any individual candidate run on its own.
func TestPortfolioValidAndBestOnTiny(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		arch := baseArch(inst.DAG)
		opts := testOpts()
		res, _, err := run(context.Background(), inst.DAG, arch, opts)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if res.Best == nil || res.BestName == "" {
			t.Fatalf("%s: no best schedule", inst.Name)
		}
		for _, c := range res.Candidates {
			if errors.Is(c.Err, dnc.ErrIncumbentCutoff) {
				// A losing candidate cutting off against the shared
				// incumbent is the portfolio working as intended, not a
				// failure.
				continue
			}
			if c.Err != nil {
				t.Fatalf("%s: candidate %s failed: %v", inst.Name, c.Name, c.Err)
			}
			if err := c.Schedule.Validate(); err != nil {
				t.Fatalf("%s: candidate %s invalid: %v", inst.Name, c.Name, err)
			}
			for _, cost := range []float64{c.SyncCost, c.AsyncCost} {
				if math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 {
					t.Fatalf("%s: candidate %s has degenerate cost %g", inst.Name, c.Name, cost)
				}
			}
			if res.BestCost > c.Cost+1e-9 {
				t.Fatalf("%s: best %g (%s) worse than candidate %s at %g",
					inst.Name, res.BestCost, res.BestName, c.Name, c.Cost)
			}
		}
		// Re-running a single candidate individually with the portfolio's
		// own options must never beat the portfolio.
		for _, cand := range DefaultCandidates(inst.DAG, arch) {
			s, err := cand.Run(context.Background(), inst.DAG, arch, opts)
			if err != nil {
				t.Fatalf("%s: individual %s: %v", inst.Name, cand.Name, err)
			}
			if c := s.Cost(opts.ILP.Model); res.BestCost > c+1e-9 {
				t.Fatalf("%s: individual %s cost %g beats portfolio best %g",
					inst.Name, cand.Name, c, res.BestCost)
			}
		}
	}
}

// TestPortfolioAllRegistryDatasets runs the two-stage candidate subset
// (cheap, deterministic) across every dataset in the workload registry,
// validating each schedule under both cost functions. The ILP-based
// candidates are covered on the tiny dataset above; here the point is
// that every registered workload — including the paper-scale ones — is
// schedulable by every applicable pipeline.
func TestPortfolioAllRegistryDatasets(t *testing.T) {
	datasets := map[string][]workloads.Instance{
		"tiny":  workloads.Tiny(),
		"small": workloads.Small(),
	}
	if !testing.Short() {
		datasets["paper-tiny"] = workloads.PaperTiny()
		datasets["paper-small"] = workloads.PaperSmall()
	}
	for dname, insts := range datasets {
		for _, inst := range insts {
			arch := baseArch(inst.DAG)
			opts := testOpts()
			var cheap []Candidate
			for _, c := range DefaultCandidates(inst.DAG, arch) {
				if c.Name != "ilp" && c.Name != "dnc-ilp" {
					cheap = append(cheap, c)
				}
			}
			opts.Candidates = cheap
			res, _, err := run(context.Background(), inst.DAG, arch, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", dname, inst.Name, err)
			}
			for _, c := range res.Candidates {
				if c.Err != nil {
					t.Fatalf("%s/%s: candidate %s failed: %v", dname, inst.Name, c.Name, c.Err)
				}
				if err := c.Schedule.Validate(); err != nil {
					t.Fatalf("%s/%s: candidate %s invalid: %v", dname, inst.Name, c.Name, err)
				}
				if c.SyncCost <= 0 || c.AsyncCost <= 0 {
					t.Fatalf("%s/%s: candidate %s degenerate costs %g/%g",
						dname, inst.Name, c.Name, c.SyncCost, c.AsyncCost)
				}
			}
		}
	}
}

// TestPortfolioSingleProcessor checks the P=1 candidate set (DFS
// pipelines + ILP with the exact-pebbler backend).
func TestPortfolioSingleProcessor(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	res, _, err := run(context.Background(), inst.DAG, arch, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Err != nil {
			t.Fatalf("candidate %s failed: %v", c.Name, c.Err)
		}
	}
	if len(res.Candidates) < 3 {
		t.Fatalf("expected at least dfs×2 + ilp for P=1, got %d candidates", len(res.Candidates))
	}
}

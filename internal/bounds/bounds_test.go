package bounds

import (
	"testing"
	"testing/quick"

	"mbsp/internal/bsp"
	"mbsp/internal/exact"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

func TestLowerBoundChain(t *testing.T) {
	g := graph.Chain(5) // source + 4 unit computes
	arch := mbsp.Arch{P: 2, R: 100, G: 2, L: 3}
	r, err := LowerBound(g, arch)
	if err != nil {
		t.Fatal(err)
	}
	if r.CriticalPath != 4 {
		t.Fatalf("critical path %g want 4", r.CriticalPath)
	}
	if r.WorkPerProc != 2 {
		t.Fatalf("work/proc %g want 2", r.WorkPerProc)
	}
	if r.SinkSave != 2 || r.SourceLoad != 2 {
		t.Fatalf("io bounds %g/%g want 2/2", r.SinkSave, r.SourceLoad)
	}
	if Lower(g, arch, mbsp.Sync) != 4 || Lower(g, arch, mbsp.Async) != 4 {
		t.Fatalf("LBs %g/%g want 4", Lower(g, arch, mbsp.Sync), Lower(g, arch, mbsp.Async))
	}
}

func TestLowerBoundEmptyWork(t *testing.T) {
	g := graph.New("only-sources")
	g.AddNode(0, 1)
	arch := mbsp.Arch{P: 1, R: 10, G: 1, L: 7}
	if lb := Lower(g, arch, mbsp.Sync); lb != 0 {
		t.Fatalf("no-work LB %g want 0", lb)
	}
}

// Every two-stage pipeline's cost must respect the lower bound on every
// tiny instance and a spread of architectures.
func TestAllPipelinesRespectLowerBound(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		for _, p := range []int{1, 2, 4} {
			for _, rf := range []float64{1, 3} {
				arch := mbsp.Arch{P: p, R: rf * inst.DAG.MinCache(), G: 1, L: 10}
				for _, pl := range twostage.Pipelines(arch) {
					s, err := pl.Run(inst.DAG, arch, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					if s.SyncCost() < Lower(inst.DAG, arch, mbsp.Sync)-1e-9 {
						t.Fatalf("%s P=%d rf=%g %s: sync cost %g below LB %g",
							inst.Name, p, rf, pl.Name(), s.SyncCost(), Lower(inst.DAG, arch, mbsp.Sync))
					}
					if s.AsyncCost() < Lower(inst.DAG, arch, mbsp.Async)-1e-9 {
						t.Fatalf("%s P=%d rf=%g %s: async cost %g below LB %g",
							inst.Name, p, rf, pl.Name(), s.AsyncCost(), Lower(inst.DAG, arch, mbsp.Async))
					}
				}
			}
		}
	}
}

// The exact P=1 optimum must also respect the bound — and this validates
// the bound's soundness against a true optimum rather than a heuristic.
func TestExactOptimumRespectsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomDAG("p", 8, 0.3, 3, 3, 2, seed)
		arch := mbsp.Arch{P: 1, R: 1.5 * g.MinCache(), G: 2, L: 0}
		res, err := exact.Solve(g, arch.R, arch.G)
		if err != nil {
			return false
		}
		return res.Cost >= Lower(g, arch, mbsp.Sync)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: random DAGs, random architectures, Cilk+LRU pipeline.
func TestRandomSchedulesRespectLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomLayered("p", 3, 4, 0.4, 5, 4, seed)
		p := 1 + int(seed%4+4)%4
		arch := mbsp.Arch{P: p, R: 2 * g.MinCache(), G: 1, L: 5}
		b, berr := bsp.Cilk(g, p, seed)
		if berr != nil {
			return false
		}
		s, err := twostage.Convert(b, arch, memmgr.LRU{}, nil)
		if err != nil {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		return s.SyncCost() >= Lower(g, arch, mbsp.Sync)-1e-9 &&
			s.AsyncCost() >= Lower(g, arch, mbsp.Async)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package exact

import (
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"

	bspsched "mbsp/internal/bsp"
)

func TestChainOptimal(t *testing.T) {
	g := graph.Chain(5) // source + 4 computes
	res, err := Solve(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// load source (1) + 4 computes + save sink (1) = 6.
	if res.Cost != 6 {
		t.Fatalf("cost=%g want 6", res.Cost)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.SyncCost(); got != res.Cost {
		t.Fatalf("schedule cost %g != reported %g", got, res.Cost)
	}
}

func TestDiamondOptimal(t *testing.T) {
	g := graph.Diamond()
	res, err := Solve(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 5 {
		t.Fatalf("cost=%g want 5", res.Cost)
	}
}

func TestCacheTooSmall(t *testing.T) {
	g := graph.Diamond()
	if _, err := Solve(g, 1, 1); err == nil {
		t.Fatal("expected error for r < r0")
	}
}

func TestTooLarge(t *testing.T) {
	g := graph.Chain(MaxNodes + 1)
	if _, err := Solve(g, 100, 1); err == nil {
		t.Fatal("expected size error")
	}
}

func TestTightCacheForcesIO(t *testing.T) {
	// Two parallel chains from one source with r too small to hold both:
	// must spill or recompute; generous r avoids it.
	g := graph.New("x")
	s0 := g.AddNode(0, 1)
	a1 := g.AddNode(1, 1)
	a2 := g.AddNode(1, 1)
	b1 := g.AddNode(1, 1)
	sink := g.AddNode(1, 1)
	g.AddEdge(s0, a1)
	g.AddEdge(a1, a2)
	g.AddEdge(s0, b1)
	g.AddEdge(a2, sink)
	g.AddEdge(b1, sink)
	loose, err := Solve(g, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Solve(g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Cost < loose.Cost {
		t.Fatalf("tight cache cheaper (%g) than loose (%g)?", tight.Cost, loose.Cost)
	}
	if err := tight.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputationBeatsIOWhenGHigh(t *testing.T) {
	// Zipper-like: recomputing a cheap chain should beat paying g per
	// load when g is large. Just verify the exact cost is below the
	// baseline's (which never recomputes).
	z := graph.NewZipperGadget(3, 2)
	g := z.DAG
	arch := mbsp.Arch{P: 1, R: 4, G: 8, L: 0}
	base, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > base.SyncCost()+1e-9 {
		t.Fatalf("exact %g worse than baseline %g", res.Cost, base.SyncCost())
	}
	if res.Cost == base.SyncCost() {
		t.Logf("exact matched baseline at %g (no recomputation advantage here)", res.Cost)
	}
}

func TestBaselineNeverBelowExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomDAG("r", 8, 0.3, 3, 3, 2, seed)
		r := 1.5 * g.MinCache()
		ex, err := Solve(g, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		arch := mbsp.Arch{P: 1, R: r, G: 2, L: 0}
		b := bspsched.DFS(g)
		base, err := twostage.Convert(b, arch, memmgr.Clairvoyant{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.SyncCost() < ex.Cost-1e-9 {
			t.Fatalf("seed %d: baseline %g below exact optimum %g", seed, base.SyncCost(), ex.Cost)
		}
	}
}

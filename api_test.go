package mbsp

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func buildAPIDAG(t *testing.T) *DAG {
	t.Helper()
	g := NewDAG("api")
	x := g.AddNode(0, 2)
	a := g.AddNode(3, 1)
	b := g.AddNode(2, 1)
	c := g.AddNode(1, 1)
	g.AddEdge(x, a)
	g.AddEdge(x, b)
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicBaseline(t *testing.T) {
	g := buildAPIDAG(t)
	arch := Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 5}
	s, err := ScheduleBaseline(g, arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.SyncCost() <= 0 || s.AsyncCost() <= 0 {
		t.Fatal("degenerate costs")
	}
}

func TestPublicILPNeverWorse(t *testing.T) {
	g := buildAPIDAG(t)
	arch := Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 5}
	base, err := ScheduleBaseline(g, arch)
	if err != nil {
		t.Fatal(err)
	}
	s, stats, err := ScheduleILP(g, arch, ILPOptions{TimeLimit: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.SyncCost() > base.SyncCost()+1e-9 {
		t.Fatalf("ILP %g worse than baseline %g (stats=%+v)", s.SyncCost(), base.SyncCost(), stats)
	}
}

func TestPublicCilkLRU(t *testing.T) {
	g := buildAPIDAG(t)
	arch := Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 5}
	s, err := ScheduleCilkLRU(g, arch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExactP1(t *testing.T) {
	g := buildAPIDAG(t)
	res, err := SolveExactP1(g, 3*g.MinCache(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// load x (2) + compute a,b,c (6) + save c (1) = 9.
	if res.Cost != 9 {
		t.Fatalf("exact cost %g want 9", res.Cost)
	}
	arch := Arch{P: 1, R: 3 * g.MinCache(), G: 1, L: 0}
	base, err := ScheduleBaseline(g, arch)
	if err != nil {
		t.Fatal(err)
	}
	if base.SyncCost() < res.Cost {
		t.Fatal("baseline below exact optimum")
	}
}

func TestPublicRefine(t *testing.T) {
	inst, err := InstanceByName("kNN_N4_K3")
	if err != nil {
		t.Fatal(err)
	}
	arch := Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	base, err := ScheduleBaseline(inst.DAG, arch)
	if err != nil {
		t.Fatal(err)
	}
	res := Refine(base, RefineOptions{Budget: 300, Seed: 1})
	if res.Cost > base.SyncCost() {
		t.Fatal("refine made things worse")
	}
}

func TestPublicDNC(t *testing.T) {
	inst, err := InstanceByName("spmv_N25")
	if err != nil {
		t.Fatal(err)
	}
	arch := Arch{P: 4, R: 5 * inst.DAG.MinCache(), G: 1, L: 10}
	s, stats, err := ScheduleDNC(inst.DAG, arch, 0, ILPOptions{
		TimeLimit:         300 * time.Millisecond,
		LocalSearchBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Parts < 2 {
		t.Fatalf("parts=%d", stats.Parts)
	}
}

func TestPublicDAGIO(t *testing.T) {
	g := buildAPIDAG(t)
	var buf bytes.Buffer
	if err := WriteDAG(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadDAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("round trip mismatch")
	}
	buf.Reset()
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("DOT output")
	}
}

func TestPublicDatasets(t *testing.T) {
	if len(Tiny()) != 15 || len(Small()) != 10 {
		t.Fatalf("dataset sizes: %d, %d", len(Tiny()), len(Small()))
	}
	if len(PaperTiny()) != 15 || len(PaperSmall()) != 10 {
		t.Fatal("paper dataset sizes")
	}
}

func TestPublicExperimentConfig(t *testing.T) {
	cfg := BaseConfig()
	if cfg.P != 4 || cfg.RFactor != 3 || cfg.G != 1 || cfg.L != 10 {
		t.Fatalf("base config %+v", cfg)
	}
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean %g", g)
	}
}

func TestTwoStageGapCostsAPI(t *testing.T) {
	two, holo, err := TwoStageGapCosts(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if two <= holo {
		t.Fatalf("two-stage %g should exceed holistic %g", two, holo)
	}
}

func TestPublicSchedulePortfolio(t *testing.T) {
	g := buildAPIDAG(t)
	arch := Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 5}
	res, err := SchedulePortfolio(context.Background(), g, arch, PortfolioOptions{
		ILP: ILPOptions{TimeLimit: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	// The portfolio contains the baseline and the ILP, so it can be worse
	// than neither.
	base, err := ScheduleBaseline(g, arch)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > base.SyncCost()+1e-9 {
		t.Fatalf("portfolio best %g worse than baseline %g", res.BestCost, base.SyncCost())
	}
	if len(res.Candidates) != len(DefaultCandidates(g, arch)) {
		t.Fatalf("expected %d candidate results, got %d", len(DefaultCandidates(g, arch)), len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Err != nil {
			t.Fatalf("candidate %s failed: %v", c.Name, c.Err)
		}
	}
}

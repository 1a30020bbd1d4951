package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbsp/internal/bsp"
	"mbsp/internal/lp"
	"mbsp/internal/memmgr"
	"mbsp/internal/mip"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// quickCfg keeps tests fast: tiny solver budgets.
func quickCfg() Config {
	c := Base()
	c.ILP.TimeLimit = 200 * time.Millisecond
	c.ILP.LocalSearchBudget = 300
	return c
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean=%g want 2", g)
	}
	if g := GeoMean([]float64{0.5, 0.5}); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("geomean=%g want 0.5", g)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty geomean should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	b := Summarize("x", []float64{0.5, 0.7, 0.9, 1.0, 1.1})
	if b.Min != 0.5 || b.Max != 1.1 || b.Median != 0.9 {
		t.Fatalf("summary=%+v", b)
	}
	if b.Q1 < b.Min || b.Q3 > b.Max || b.Q1 > b.Median || b.Median > b.Q3 {
		t.Fatalf("quantiles disordered: %+v", b)
	}
}

func TestTable1ShapeOnSubset(t *testing.T) {
	insts := workloads.Tiny()[:4]
	tab, err := Table1(insts, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Methods) != 2 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Methods))
	}
	// The ILP column must never exceed the baseline (warm-started).
	for _, r := range tab.Rows {
		if r.Costs[1] > r.Costs[0]+1e-9 {
			t.Fatalf("%s: ilp %g > base %g", r.Instance, r.Costs[1], r.Costs[0])
		}
	}
	gm := GeoMean(tab.Ratio("ilp", "base"))
	if gm > 1.0+1e-12 {
		t.Fatalf("geomean ratio %g above 1", gm)
	}
}

func TestRenderAndCSV(t *testing.T) {
	insts := workloads.Tiny()[:2]
	tab, err := Table1(insts, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "geomean ratio") || !strings.Contains(out, insts[0].Name) {
		t.Fatalf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines=%d want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "instance,base,ilp") {
		t.Fatalf("csv header %q", lines[0])
	}
}

func TestTable4VariantsMutateConfig(t *testing.T) {
	cfg := Base()
	for _, v := range Table4Variants() {
		mut := v.Mutate(cfg)
		switch v.Label {
		case "r=5r0":
			if mut.RFactor != 5 {
				t.Fatal("r=5r0 variant wrong")
			}
		case "r=r0":
			if mut.RFactor != 1 {
				t.Fatal("r=r0 variant wrong")
			}
		case "P=8":
			if mut.P != 8 {
				t.Fatal("P=8 variant wrong")
			}
		case "L=0":
			if mut.L != 0 {
				t.Fatal("L=0 variant wrong")
			}
		case "async":
			if mut.L != 0 || mut.ILP.Model.String() != "async" {
				t.Fatal("async variant wrong")
			}
		}
	}
}

func TestSingleProcessorExperiment(t *testing.T) {
	insts := workloads.Tiny()[:2]
	tab, err := SingleProcessor(insts, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r.Costs[1] > r.Costs[0]+1e-9 {
			t.Fatalf("%s: P=1 ilp worse than baseline", r.Instance)
		}
	}
}

func TestTable2OnOneInstance(t *testing.T) {
	inst, err := workloads.ByName("spmv_N25")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.ILP.TimeLimit = 300 * time.Millisecond
	tab, err := Table2([]workloads.Instance{inst}, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatal("wrong row count")
	}
	ratio := tab.Rows[0].Costs[1] / tab.Rows[0].Costs[0]
	t.Logf("dnc/base = %.3f", ratio)
	if ratio > 2.5 {
		t.Fatalf("D&C wildly worse than baseline: %g", ratio)
	}
}

func TestRenderBoxes(t *testing.T) {
	var buf bytes.Buffer
	RenderBoxes(&buf, []BoxSummary{Summarize("base", []float64{0.8, 0.9, 1.0})})
	if !strings.Contains(buf.String(), "base") || !strings.Contains(buf.String(), "geomean") {
		t.Fatalf("box render:\n%s", buf.String())
	}
}

// TestBSPILPPlusILPNotAboveBSPILP checks Table 3's last two columns on
// every tiny instance: the holistic ILP is warm-started from the very
// schedule the bsp-ilp column reports, so it can only match or beat it,
// whichever of the instance's two cells reaches the shared stage-1 solve
// first.
func TestBSPILPPlusILPNotAboveBSPILP(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := quickCfg()
		cfg.ILP.TimeLimit = 100 * time.Millisecond
		cfg.Workers = workers
		base, plus := bspILPMethods()
		tab, err := Run("bsp-ilp", workloads.Tiny(), cfg, base, plus)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range tab.Rows {
			if r.Costs[1] > r.Costs[0] {
				t.Errorf("workers=%d %s: bsp-ilp+ilp %g > bsp-ilp %g", workers, r.Instance, r.Costs[1], r.Costs[0])
			}
		}
	}
}

// TestBSPILPRunsInGridTree: the bsp-ilp stage 1 runs in the grid's tree
// environment. A cancelled ILP.Context stops its tree before the root
// relaxation, so the grid's LUStats count no factorization and the
// column is the warm start's; a tree that ignored the context would
// factor the root within its 200 ms TimeLimit.
func TestBSPILPRunsInGridTree(t *testing.T) {
	inst, err := workloads.ByName("bicgstab")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := quickCfg()
	cfg.ILP.Context, cfg.ILP.LUStats = ctx, &lp.FactorStats{}
	arch := cfg.Arch(inst.DAG)
	base, _ := bspILPMethods()
	got, err := base.Run(inst.DAG, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *cfg.ILP.LUStats != (lp.FactorStats{}) {
		t.Fatalf("the stage-1 tree factored under a cancelled context: %+v", *cfg.ILP.LUStats)
	}
	b, err := bsp.ILP(inst.DAG, arch.P, arch.G, arch.L, mip.Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twostage.Convert(b, arch, memmgr.Clairvoyant{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Cost(cfg.ILP.Model), want.Cost(cfg.ILP.Model); g != w {
		t.Fatalf("bsp-ilp cost %g under a cancelled context, want the warm start's %g", g, w)
	}
}

// TestRunRejectsPerCellILPFields: the grid's ILP options are shared by
// every cell, so a warm start, incumbent or boundary set on them is
// refused before any cell runs.
func TestRunRejectsPerCellILPFields(t *testing.T) {
	insts := workloads.Tiny()[:1]
	warm, err := Baseline().Run(insts[0].DAG, Base().Arch(insts[0].DAG), Base())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Base()
	cfg.ILP.WarmStart = warm
	var calls atomic.Int64
	if _, err := Run("warm", insts, cfg, countingMethod("base", &calls)); err == nil {
		t.Fatal("Run accepted a grid-wide WarmStart")
	}
	if calls.Load() != 0 {
		t.Fatalf("a rejected grid ran %d cells", calls.Load())
	}
}

// TestPortfolioCarriesGridILP: the portfolio legs of a grid run under the
// grid's own solver environment, the fields its table columns honour but
// the portfolio never re-declared (ExtraSteps, NoRecompute,
// NoStepMerging, NoPerturb) included. Only LUStats moves, to the
// portfolio's run-wide accumulator.
func TestPortfolioCarriesGridILP(t *testing.T) {
	cfg := Base()
	cfg.Workers = 3
	cfg.ILP.ExtraSteps = 5
	cfg.ILP.NoRecompute = true
	cfg.ILP.NoStepMerging = true
	cfg.ILP.NoPerturb = true
	cfg.ILP.NodeLimit = 300
	cfg.ILP.MaxModelRows = 3000
	cfg.ILP.LUStats = &lp.FactorStats{}
	o := cfg.Portfolio()
	if o.Workers != cfg.Workers || o.LUStats != cfg.ILP.LUStats || o.ILP.LUStats != nil {
		t.Fatalf("Workers %d, LUStats moved %v, ILP.LUStats cleared %v",
			o.Workers, o.LUStats == cfg.ILP.LUStats, o.ILP.LUStats == nil)
	}
	want := cfg.ILP
	want.LUStats = nil
	if !reflect.DeepEqual(o.ILP, want) {
		t.Fatalf("portfolio ILP %+v, want the grid's %+v", o.ILP, want)
	}
}

package ilpsched

import (
	"testing"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// TestWarmStartEncodingFeasible is the keystone test of the ILP
// formulation: every two-stage baseline schedule, encoded as an ILP
// variable assignment, must satisfy all constraints of the model — for
// both cost models, several cache sizes and processor counts.
func TestWarmStartEncodingFeasible(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
			for _, p := range []int{1, 2, 4} {
				for _, rf := range []float64{1, 3} {
					arch := mbsp.Arch{P: p, R: rf * inst.DAG.MinCache(), G: 1, L: 10}
					warm, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
					if err != nil {
						t.Fatalf("%s: %v", inst.Name, err)
					}
					opts := Options{Model: model}.withDefaults()
					skel, err := buildSkeleton(warm)
					if err != nil {
						t.Fatalf("%s: %v", inst.Name, err)
					}
					im := buildModel(inst.DAG, arch, opts, len(skel)+2)
					x := im.assignment(skel)
					if err := im.m.CheckFeasible(x, 1e-6); err != nil {
						t.Fatalf("%s (model=%v P=%d rf=%g): warm start infeasible: %v",
							inst.Name, model, p, rf, err)
					}
				}
			}
		}
	}
}

// TestWarmStartObjectiveMatchesCost checks that the encoded warm start's
// ILP objective is close to the schedule's exact cost (the merged
// formulation may deviate slightly: within a communication phase the ILP
// lumps save and load volumes, and a trailing compute phase carries no L).
func TestWarmStartObjectiveMatchesCost(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 2, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	warm, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Model: mbsp.Sync}.withDefaults()
	skel, err := buildSkeleton(warm)
	if err != nil {
		t.Fatal(err)
	}
	im := buildModel(inst.DAG, arch, opts, len(skel)+2)
	x := im.assignment(skel)
	if err := im.m.CheckFeasible(x, 1e-6); err != nil {
		t.Fatal(err)
	}
	obj := im.m.ObjValue(x)
	cost := warm.SyncCost()
	if obj > cost+1e-6 {
		t.Fatalf("ILP objective %g exceeds exact schedule cost %g", obj, cost)
	}
	if obj < 0.5*cost {
		t.Fatalf("ILP objective %g implausibly far below exact cost %g", obj, cost)
	}
}

func microArch(g *graph.DAG, p int) mbsp.Arch {
	return mbsp.Arch{P: p, R: 3 * g.MinCache(), G: 1, L: 0}
}

func TestSolveDiamondP1Optimal(t *testing.T) {
	g := graph.Diamond()
	arch := microArch(g, 1)
	s, stats, err := Solve(g, arch, Options{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Optimum: load source (1) + compute a,b,t (3) + save t (1) = 5.
	if got := s.SyncCost(); got != 5 {
		t.Fatalf("cost=%g want 5 (stats=%+v)\n%s", got, stats, s)
	}
	if !stats.UsedILP {
		t.Fatal("tree search should run on this tiny model")
	}
}

// TestSolveOnlyReadsIncumbent: Solve prunes against Options.Incumbent
// but never writes to it, even when it is unsealed and every schedule
// Solve finds beats it. The portfolio relies on this to keep its shared
// bound at the sealed baseline cost.
func TestSolveOnlyReadsIncumbent(t *testing.T) {
	g := graph.Diamond()
	inc := mip.NewIncumbent()
	inc.Offer(1e9)
	_, stats, err := Solve(g, microArch(g, 1), Options{
		TimeLimit: 20 * time.Second, Incumbent: inc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedILP {
		t.Fatal("tree search should run on this tiny model")
	}
	if got := inc.Get(); got != 1e9 {
		t.Fatalf("Solve moved the incumbent to %g, want it left at 1e9", got)
	}
}

func TestSolveNeverWorseThanWarmStart(t *testing.T) {
	for _, inst := range workloads.Tiny()[:6] {
		arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
		warm, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, stats, err := Solve(inst.DAG, arch, Options{
			WarmStart:         warm,
			TimeLimit:         2 * time.Second,
			LocalSearchBudget: 300,
		})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if s.SyncCost() > warm.SyncCost()+1e-9 {
			t.Fatalf("%s: ILP result %g worse than warm start %g (stats=%+v)",
				inst.Name, s.SyncCost(), warm.SyncCost(), stats)
		}
	}
}

func TestSolveChainRecomputationOpportunity(t *testing.T) {
	// Small instance where the holistic solver should at least match the
	// baseline exactly (chain has a unique sensible schedule).
	g := graph.Chain(5)
	arch := microArch(g, 1)
	s, _, err := Solve(g, arch, Options{TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 4 + 1 // load, computes, save
	if got := s.SyncCost(); got != want {
		t.Fatalf("cost=%g want %g", got, want)
	}
}

func TestSolveNoRecompute(t *testing.T) {
	g := graph.Diamond()
	arch := microArch(g, 2)
	s, _, err := Solve(g, arch, Options{
		NoRecompute: true,
		TimeLimit:   3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			for _, op := range s.Steps[i].Procs[p].Comp {
				if op.Kind == mbsp.OpCompute {
					counts[op.Node]++
				}
			}
		}
	}
	for v, c := range counts {
		if c > 1 {
			t.Fatalf("node %d computed %d times despite NoRecompute", v, c)
		}
	}
}

func TestSolveAsyncModel(t *testing.T) {
	g := graph.Diamond()
	arch := mbsp.Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 0}
	s, stats, err := Solve(g, arch, Options{Model: mbsp.Async, TimeLimit: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.FinalCost != s.AsyncCost() {
		t.Fatalf("stats cost %g != schedule async cost %g", stats.FinalCost, s.AsyncCost())
	}
}

func TestSolveSkipsHugeModels(t *testing.T) {
	inst, err := workloads.ByName("spmv_N10")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	_, stats, err := Solve(inst.DAG, arch, Options{
		TimeLimit:         time.Second,
		MaxModelRows:      100, // force skip
		LocalSearchBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsedILP {
		t.Fatal("tree search should have been skipped")
	}
	if stats.ILPStatus != "skipped-model-too-large" {
		t.Fatalf("status=%q", stats.ILPStatus)
	}
	// The skipped model is never built, yet its reported size is the
	// size a build would have: the same warm start gives the same horizon.
	warm, err := warmStart(inst.DAG, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}.withDefaults()
	_, T, err := horizon(warm, arch, opts)
	if err != nil {
		t.Fatal(err)
	}
	im := buildModel(inst.DAG, arch, opts, T)
	if stats.Steps != T || stats.ModelVars != im.m.NumVars() || stats.ModelRows != im.m.NumRows() {
		t.Fatalf("skipped model reports T=%d, %d vars, %d rows; a build has T=%d, %d vars, %d rows",
			stats.Steps, stats.ModelVars, stats.ModelRows, T, im.m.NumVars(), im.m.NumRows())
	}
}

// Lemma 6.1: with the minimal horizon the optimal restricted schedule may
// contain empty steps, yet a longer horizon admits a strictly cheaper
// schedule (recomputing a chain replaces an expensive load). We verify the
// monotone part computationally: allowing more steps never hurts, and on
// the zipper gadget with g >> d the solver with extra steps finds a
// schedule at least as cheap as with the tight horizon.
func TestZipperGadgetMoreStepsNeverWorse(t *testing.T) {
	z := graph.NewZipperGadget(3, 2)
	g := z.DAG
	arch := mbsp.Arch{P: 1, R: 4, G: 6, L: 0}
	warm, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := warm.SyncCost()
	var costs []float64
	for _, extra := range []int{1, 4} {
		s, _, err := Solve(g, arch, Options{
			WarmStart:  warm,
			ExtraSteps: extra,
			TimeLimit:  6 * time.Second,
			NodeLimit:  2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, s.SyncCost())
	}
	if costs[0] > base+1e-9 || costs[1] > base+1e-9 {
		t.Fatalf("solver worse than baseline: %v vs %g", costs, base)
	}
	if costs[1] > costs[0]+1e-9 {
		t.Fatalf("more steps hurt: T+4 cost %g > T+1 cost %g", costs[1], costs[0])
	}
}

// The base (non-merged) formulation must also accept its warm-start
// encoding and never lose to the baseline.
func TestNoStepMergingWarmStartFeasible(t *testing.T) {
	g := graph.Diamond()
	arch := mbsp.Arch{P: 1, R: 3 * g.MinCache(), G: 1, L: 0}
	warm, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NoStepMerging: true}.withDefaults()
	skel, err := buildSkeleton(warm)
	if err != nil {
		t.Fatal(err)
	}
	skel = explodeSkeleton(skel, arch.P)
	im := buildModel(g, arch, opts, len(skel)+2)
	x := im.assignment(skel)
	if err := im.m.CheckFeasible(x, 1e-6); err != nil {
		t.Fatalf("non-merged warm start infeasible: %v", err)
	}
	// One op per (p, t) in the exploded assignment.
	for tt := 0; tt < im.T; tt++ {
		ops := 0
		for v := 0; v < g.N(); v++ {
			if j := im.compute[0][v][tt]; j >= 0 && x[j] > 0.5 {
				ops++
			}
			if j := im.save[0][v][tt]; j >= 0 && x[j] > 0.5 {
				ops++
			}
			if j := im.load[0][v][tt]; j >= 0 && x[j] > 0.5 {
				ops++
			}
		}
		if ops > 1 {
			t.Fatalf("step %d has %d ops despite NoStepMerging", tt, ops)
		}
	}
}

func TestNoStepMergingSolve(t *testing.T) {
	g := graph.Diamond()
	arch := mbsp.Arch{P: 1, R: 3 * g.MinCache(), G: 1, L: 0}
	s, stats, err := Solve(g, arch, Options{
		NoStepMerging: true,
		TimeLimit:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.SyncCost() > stats.WarmCost+1e-9 {
		t.Fatalf("non-merged solve %g worse than warm %g", s.SyncCost(), stats.WarmCost)
	}
}

// Property: warm-start encodings stay feasible on random layered DAGs
// across architectures — the formulation must accept any valid baseline
// schedule, not just the bundled benchmark shapes.
func TestWarmStartEncodingFeasibleRandom(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := graph.RandomLayered("p", 3, 3, 0.4, 4, 4, seed)
		p := 1 + int(seed%3)
		arch := mbsp.Arch{P: p, R: (1 + float64(seed%3)) * g.MinCache(), G: 2, L: 3}
		warm, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
			opts := Options{Model: model}.withDefaults()
			skel, err := buildSkeleton(warm)
			if err != nil {
				t.Fatal(err)
			}
			im := buildModel(g, arch, opts, len(skel)+2)
			x := im.assignment(skel)
			if err := im.m.CheckFeasible(x, 1e-6); err != nil {
				t.Fatalf("seed %d P=%d model=%v: %v", seed, p, model, err)
			}
		}
	}
}

// TestModelSizeMatchesBuild pins modelSize, the count Solve checks
// against MaxModelRows before it allocates anything, to what buildModel
// actually emits: every constraint family, both objectives, the option
// variants that add or drop rows, and a NeedBlue list shaped like the
// ones divide-and-conquer passes (interior nodes, possibly sources)
// with duplicates and sinks mixed in. T ∈ {1, 2} exercise every family's first-step special
// case; the real horizon is built too while P·n·T stays modest, so the
// test stays quick under -race. The sources-only DAG, whose t = 0
// memory row is empty, has an empty warm start and so no horizon.
func TestModelSizeMatchesBuild(t *testing.T) {
	sources := graph.New("sources")
	for i := 0; i < 3; i++ {
		sources.AddNode(1, 1)
	}
	insts := append(workloads.Tiny(), workloads.Small()...)
	insts = append(insts, workloads.Instance{Name: "sources", DAG: sources})
	for _, inst := range insts {
		g := inst.DAG
		needBlue := []int{0}
		for v := 0; v < g.N(); v += 3 {
			needBlue = append(needBlue, v)
		}
		needBlue = append(needBlue, g.Sinks()...)
		variants := map[string]Options{
			"default":         {},
			"no-step-merging": {NoStepMerging: true},
			"no-recompute":    {NoRecompute: true},
			"need-blue":       {NeedBlue: needBlue},
		}
		for P := 1; P <= 4; P++ {
			arch := mbsp.Arch{P: P, R: 3 * g.MinCache(), G: 1, L: 10}
			warm, err := warmStart(g, arch, Options{})
			if err != nil {
				t.Fatalf("%s P=%d: %v", inst.Name, P, err)
			}
			for name, opts := range variants {
				horizons := []int{1, 2}
				if len(warm.Steps) > 0 {
					_, T, err := horizon(warm, arch, opts.withDefaults())
					if err != nil {
						t.Fatalf("%s P=%d %s: %v", inst.Name, P, name, err)
					}
					if P*g.N()*T <= 4000 {
						horizons = append(horizons, T)
					}
				}
				for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
					opts.Model = model
					o := opts.withDefaults()
					for _, T := range horizons {
						im := buildModel(g, arch, o, T)
						vars, rows := modelSize(g, arch, o, T)
						if vars != im.m.NumVars() || rows != im.m.NumRows() {
							t.Fatalf("%s P=%d %s %v T=%d: modelSize gives %d vars, %d rows; buildModel %d, %d",
								inst.Name, P, name, model, T, vars, rows, im.m.NumVars(), im.m.NumRows())
						}
					}
				}
			}
		}
	}
}

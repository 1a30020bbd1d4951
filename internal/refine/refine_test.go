package refine

import (
	"testing"

	"mbsp/internal/mbsp"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

func TestImproveNeverWorse(t *testing.T) {
	for _, inst := range workloads.Tiny()[:8] {
		arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
		base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := Improve(base, Options{Budget: 400, Seed: 1})
		if res.Cost > base.SyncCost()+1e-9 {
			t.Fatalf("%s: refined cost %g worse than base %g", inst.Name, res.Cost, base.SyncCost())
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
	}
}

func TestImproveFindsImprovementSomewhere(t *testing.T) {
	// Across the tiny set with a reasonable budget, local search should
	// improve at least one instance — otherwise it is inert.
	improved := 0
	for _, inst := range workloads.Tiny() {
		arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
		base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := Improve(base, Options{Budget: 800, Seed: 42})
		if res.Improved {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("local search never improved any tiny instance")
	}
	t.Logf("improved %d/15 instances", improved)
}

func TestImproveP1NoOp(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 0}
	base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Improve(base, Options{Budget: 100, Seed: 1})
	if res.Evals != 0 || res.Schedule != base {
		t.Fatalf("P=1 should be a no-op, got evals=%d", res.Evals)
	}
}

func TestInitialAssignment(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 2, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc := InitialAssignment(base)
	for v := 0; v < inst.DAG.N(); v++ {
		if inst.DAG.IsSource(v) {
			if proc[v] != -1 {
				t.Fatalf("source %d assigned to %d", v, proc[v])
			}
		} else if proc[v] < 0 || proc[v] >= arch.P {
			t.Fatalf("node %d unassigned (%d)", v, proc[v])
		}
	}
}

func TestImproveRespectsBudget(t *testing.T) {
	inst, err := workloads.ByName("kNN_N4_K3")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Improve(base, Options{Budget: 50, Seed: 3})
	if res.Evals > 50 {
		t.Fatalf("evals=%d exceeds budget", res.Evals)
	}
}

func TestImproveDeterministic(t *testing.T) {
	inst, err := workloads.ByName("exp_N4_K2")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Improve(base, Options{Budget: 300, Seed: 9})
	b := Improve(base, Options{Budget: 300, Seed: 9})
	if a.Cost != b.Cost || a.Evals != b.Evals {
		t.Fatalf("nondeterministic: (%g,%d) vs (%g,%d)", a.Cost, a.Evals, b.Cost, b.Evals)
	}
}

// BenchmarkRefineImprove times one local search at the ILP candidate's
// budget. Its sync and async cases run on a small-dataset DAG at P=4,
// where the lower bound screens almost no move; spmv_N6-P2-async runs on
// a tiny DAG where it screens most of them. Each move derives a BSP
// schedule from the trial assignment and bounds its cost; a move the
// bound does not rule out is converted and costed, and only a candidate
// the search would adopt is validated. screened/op counts the moves
// rejected by the bound.
//
//	go test -run '^$' -bench '^BenchmarkRefineImprove$' -benchmem ./internal/refine
func BenchmarkRefineImprove(b *testing.B) {
	cases := []struct {
		name, inst string
		p          int
		model      mbsp.CostModel
	}{
		{"sync", "CG_N5_K4", 4, mbsp.Sync},
		{"async", "CG_N5_K4", 4, mbsp.Async},
		{"spmv_N6-P2-async", "spmv_N6", 2, mbsp.Async},
	}
	for _, bc := range cases {
		inst, err := workloads.ByName(bc.inst)
		if err != nil {
			b.Fatal(err)
		}
		arch := mbsp.Arch{P: bc.p, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
		base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			screened := 0
			for b.Loop() {
				screened += Improve(base, Options{Budget: 2000, Seed: 1, Model: bc.model}).Screened
			}
			b.ReportMetric(float64(screened)/float64(b.N), "screened/op")
		})
	}
}

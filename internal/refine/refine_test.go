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
// budget on a small-dataset DAG at P=4, once per cost model. Each move
// derives a BSP schedule from the trial assignment, converts it and
// costs it; only a candidate the search would adopt is validated.
//
//	go test -run '^$' -bench '^BenchmarkRefineImprove$' -benchmem ./internal/refine
func BenchmarkRefineImprove(b *testing.B) {
	inst, err := workloads.ByName("CG_N5_K4")
	if err != nil {
		b.Fatal(err)
	}
	arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	base, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
		b.Run(model.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Improve(base, Options{Budget: 2000, Seed: 1, Model: model})
			}
		})
	}
}

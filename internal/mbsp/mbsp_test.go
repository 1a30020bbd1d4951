package mbsp

import (
	"fmt"
	"strings"
	"testing"

	"mbsp/internal/graph"
)

// twoNodeDAG: source s -> compute node c.
func twoNodeDAG() *graph.DAG {
	g := graph.New("two")
	s := g.AddNode(0, 1)
	c := g.AddNode(3, 2)
	g.AddEdge(s, c)
	return g
}

func arch1() Arch { return Arch{P: 1, R: 10, G: 1, L: 0} }

// handSchedule builds: load s; compute c; save c — a minimal valid
// schedule for twoNodeDAG on one processor, split into two supersteps
// (load in superstep 0's load phase, compute+save in superstep 1).
func handSchedule(g *graph.DAG, a Arch) *Schedule {
	s := NewSchedule(g, a)
	st0 := s.AddSuperstep()
	st0.Procs[0].Load = []int{0}
	st1 := s.AddSuperstep()
	st1.Procs[0].Comp = []Op{{OpCompute, 1}}
	st1.Procs[0].Save = []int{1}
	return s
}

func TestValidateMinimalSchedule(t *testing.T) {
	g := twoNodeDAG()
	s := handSchedule(g, arch1())
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckComputesAll(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncCostMinimalSchedule(t *testing.T) {
	g := twoNodeDAG()
	a := Arch{P: 1, R: 10, G: 2, L: 5}
	s := handSchedule(g, a)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Superstep 0: load μ=1 → g·1 = 2, plus L=5.
	// Superstep 1: comp 3 + save g·2=4, plus L=5.
	want := (2.0 + 5) + (3 + 4 + 5)
	if got := s.SyncCost(); got != want {
		t.Fatalf("SyncCost=%g want %g", got, want)
	}
}

func TestAsyncCostMinimalSchedule(t *testing.T) {
	g := twoNodeDAG()
	a := Arch{P: 1, R: 10, G: 2, L: 5}
	s := handSchedule(g, a)
	// Async ignores L: load 2, compute 3, save 4 → 9.
	if got := s.AsyncCost(); got != 9 {
		t.Fatalf("AsyncCost=%g want 9", got)
	}
}

func TestAsyncLeqSyncWhenLZero(t *testing.T) {
	g := graph.RandomLayered("r", 4, 4, 0.4, 5, 3, 3)
	a := Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 0}
	s := serialSchedule(t, g, a)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.AsyncCost() > s.SyncCost()+1e-9 {
		t.Fatalf("async %g > sync %g with L=0", s.AsyncCost(), s.SyncCost())
	}
}

// serialSchedule builds a trivially valid schedule: proc 0 computes all
// nodes in topological order, loading parents and saving+evicting
// aggressively (one superstep per node). Slow but always valid when
// r >= r0.
func serialSchedule(t *testing.T, g *graph.DAG, a Arch) *Schedule {
	t.Helper()
	s := NewSchedule(g, a)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range order {
		if g.IsSource(v) {
			continue
		}
		// Superstep A: load parents.
		stA := s.AddSuperstep()
		stA.Procs[0].Load = append([]int(nil), g.Parents(v)...)
		// Superstep B: compute v, save it, evict everything.
		stB := s.AddSuperstep()
		stB.Procs[0].Comp = []Op{{OpCompute, v}}
		stB.Procs[0].Save = []int{v}
		stB.Procs[0].Del = append(append([]int(nil), g.Parents(v)...), v)
	}
	return s
}

func TestSerialScheduleValidOnRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := graph.RandomDAG("r", 12, 0.3, 4, 5, 5, seed)
		a := Arch{P: 1, R: g.MinCache(), G: 1, L: 1}
		s := serialSchedule(t, g, a)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestValidateCatchesMissingParent(t *testing.T) {
	g := twoNodeDAG()
	s := NewSchedule(g, arch1())
	st := s.AddSuperstep()
	st.Procs[0].Comp = []Op{{OpCompute, 1}} // parent 0 never loaded
	err := s.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	ve, ok := err.(*ValidationError)
	if !ok || ve.Op != "compute" || ve.Node != 1 {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestValidateCatchesComputeOfSource(t *testing.T) {
	g := twoNodeDAG()
	s := NewSchedule(g, arch1())
	st := s.AddSuperstep()
	st.Procs[0].Comp = []Op{{OpCompute, 0}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "source") {
		t.Fatalf("expected source error, got %v", err)
	}
}

func TestValidateCatchesLoadWithoutBlue(t *testing.T) {
	g := twoNodeDAG()
	s := NewSchedule(g, arch1())
	st := s.AddSuperstep()
	st.Procs[0].Load = []int{1} // node 1 never saved
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "blue") {
		t.Fatalf("expected blue-pebble error, got %v", err)
	}
}

func TestValidateCatchesSaveWithoutRed(t *testing.T) {
	g := twoNodeDAG()
	s := NewSchedule(g, arch1())
	st := s.AddSuperstep()
	st.Procs[0].Save = []int{1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "red") {
		t.Fatalf("expected red-pebble error, got %v", err)
	}
}

func TestValidateCatchesDeleteWithoutRed(t *testing.T) {
	g := twoNodeDAG()
	s := NewSchedule(g, arch1())
	st := s.AddSuperstep()
	st.Procs[0].Del = []int{0}
	if err := s.Validate(); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateCatchesMemoryOverflow(t *testing.T) {
	g := twoNodeDAG()
	a := Arch{P: 1, R: 0.5, G: 1, L: 0} // cannot even hold the source
	s := NewSchedule(g, a)
	st := s.AddSuperstep()
	st.Procs[0].Load = []int{0}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "memory bound") {
		t.Fatalf("expected memory error, got %v", err)
	}
}

func TestValidateRequiresSinkBlue(t *testing.T) {
	g := twoNodeDAG()
	s := NewSchedule(g, arch1())
	st := s.AddSuperstep()
	st.Procs[0].Load = []int{0}
	st2 := s.AddSuperstep()
	st2.Procs[0].Comp = []Op{{OpCompute, 1}}
	// no save of the sink
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("expected sink error, got %v", err)
	}
}

func TestSaveVisibleToLoadSameSuperstep(t *testing.T) {
	// Proc 0 computes and saves v; proc 1 loads v in the same superstep.
	g := graph.New("x")
	s0 := g.AddNode(0, 1)
	v := g.AddNode(1, 1)
	w := g.AddNode(1, 1)
	g.AddEdge(s0, v)
	g.AddEdge(v, w)
	a := Arch{P: 2, R: 10, G: 1, L: 0}
	s := NewSchedule(g, a)
	st0 := s.AddSuperstep()
	st0.Procs[0].Load = []int{s0}
	st1 := s.AddSuperstep()
	st1.Procs[0].Comp = []Op{{OpCompute, v}}
	st1.Procs[0].Save = []int{v}
	st1.Procs[1].Load = []int{v} // same superstep: must be legal
	st2 := s.AddSuperstep()
	st2.Procs[1].Comp = []Op{{OpCompute, w}}
	st2.Procs[1].Save = []int{w}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadBeforeSaveInEarlierSuperstepFails(t *testing.T) {
	// Proc 1 loads v in a superstep *before* v is saved: invalid.
	g := graph.New("x")
	s0 := g.AddNode(0, 1)
	v := g.AddNode(1, 1)
	g.AddEdge(s0, v)
	a := Arch{P: 2, R: 10, G: 1, L: 0}
	s := NewSchedule(g, a)
	st0 := s.AddSuperstep()
	st0.Procs[0].Load = []int{s0}
	st0.Procs[1].Load = []int{v}
	if err := s.Validate(); err == nil {
		t.Fatal("expected error: load before save")
	}
}

func TestAsyncGammaWait(t *testing.T) {
	// Two procs: proc 0 computes heavy v then saves; proc 1 loads v and
	// computes w. Proc 1's load must wait for Γ(v).
	g := graph.New("x")
	s0 := g.AddNode(0, 1)
	v := g.AddNode(10, 1)
	w := g.AddNode(1, 1)
	g.AddEdge(s0, v)
	g.AddEdge(v, w)
	a := Arch{P: 2, R: 10, G: 1, L: 0}
	s := NewSchedule(g, a)
	st0 := s.AddSuperstep()
	st0.Procs[0].Load = []int{s0}
	st1 := s.AddSuperstep()
	st1.Procs[0].Comp = []Op{{OpCompute, v}}
	st1.Procs[0].Save = []int{v}
	st1.Procs[1].Load = []int{v}
	st2 := s.AddSuperstep()
	st2.Procs[1].Comp = []Op{{OpCompute, w}}
	st2.Procs[1].Save = []int{w}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// γ(proc0): load 1 + comp 10 + save 1 = 12. Γ(v)=12.
	// γ(proc1): load of v waits until 12, +1 → 13; comp 1 → 14; save 1 → 15.
	if got := s.AsyncCost(); got != 15 {
		t.Fatalf("AsyncCost=%g want 15", got)
	}
	// Sync: step0: load 1; step1: comp 10 + save 1 + load 1; step2: comp 1 + save 1.
	if got := s.SyncCost(); got != 1+10+1+1+1+1 {
		t.Fatalf("SyncCost=%g want 15", got)
	}
}

func TestCloneDeep(t *testing.T) {
	g := twoNodeDAG()
	s := handSchedule(g, arch1())
	c := s.Clone()
	c.Steps[1].Procs[0].Comp[0].Node = 0
	if s.Steps[1].Procs[0].Comp[0].Node != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestOpsCount(t *testing.T) {
	g := twoNodeDAG()
	s := handSchedule(g, arch1())
	c, sv, ld, dl := s.Ops()
	if c != 1 || sv != 1 || ld != 1 || dl != 0 {
		t.Fatalf("ops=(%d,%d,%d,%d)", c, sv, ld, dl)
	}
}

func TestStringRendering(t *testing.T) {
	g := twoNodeDAG()
	s := handSchedule(g, arch1())
	out := s.String()
	if !strings.Contains(out, "compute(1)") || !strings.Contains(out, "load(0)") {
		t.Fatalf("String output missing ops:\n%s", out)
	}
}

func TestArchValidate(t *testing.T) {
	if err := (Arch{P: 0, R: 1}).Validate(); err == nil {
		t.Fatal("P=0 must be invalid")
	}
	if err := (Arch{P: 1, R: -1}).Validate(); err == nil {
		t.Fatal("negative r must be invalid")
	}
	if err := (Arch{P: 2, R: 5, G: 1, L: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelString(t *testing.T) {
	if Sync.String() != "sync" || Async.String() != "async" {
		t.Fatal("CostModel strings")
	}
}

func TestFinalRedSetsAscending(t *testing.T) {
	// Six sources feed one sink; processor 0 loads the sources out of
	// order and never deletes them, so seven red pebbles remain there.
	// On P = 130, processors 70 and 129 (kept as list entries, not bits)
	// load some sources and delete one each, from the middle and the
	// head of a value's list.
	g := graph.New("fan-in")
	for i := 0; i < 6; i++ {
		g.AddNode(0, 1)
	}
	sink := g.AddNode(1, 1)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, sink)
	}
	for _, procs := range []int{2, 130} {
		s := NewSchedule(g, Arch{P: procs, R: 10, G: 1, L: 0})
		st0 := s.AddSuperstep()
		st0.Procs[0].Load = []int{5, 3, 1, 0, 4, 2}
		st1 := s.AddSuperstep()
		st1.Procs[0].Comp = []Op{{OpCompute, sink}}
		st1.Procs[0].Save = []int{sink}
		want := map[int][]int{0: {0, 1, 2, 3, 4, 5, 6}}
		if procs > 129 {
			st0.Procs[70].Load = []int{2, 4}
			st0.Procs[129].Load = []int{4, 0, 2}
			st1.Procs[70].Del = []int{2}
			st1.Procs[129].Del = []int{0}
			want[70], want[129] = []int{4}, []int{2, 4}
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			reds, err := s.FinalRedSets()
			if err != nil {
				t.Fatal(err)
			}
			if len(reds) != procs {
				t.Fatalf("P=%d: %d red sets", procs, len(reds))
			}
			for p, red := range reds {
				if fmt.Sprint(red) != fmt.Sprint(want[p]) {
					t.Fatalf("P=%d: final red set of processor %d is %v, want %v", procs, p, red, want[p])
				}
			}
		}
	}
}

func TestMergeStepsFoldsOps(t *testing.T) {
	g := twoNodeDAG()
	s := handSchedule(g, Arch{P: 1, R: 10, G: 1, L: 5})
	s.mergeStep(0)
	if len(s.Steps) != 1 {
		t.Fatalf("steps %d want 1", len(s.Steps))
	}
	if ps := s.Steps[0].Procs[0]; len(ps.Load) != 1 || len(ps.Comp) != 1 || len(ps.Save) != 1 {
		t.Fatalf("merged superstep lost ops: %+v", ps)
	}
}

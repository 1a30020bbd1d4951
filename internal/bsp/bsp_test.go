package bsp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mip"
	"mbsp/internal/workloads"
)

// mustSched adapts the error-returning schedulers for tests that treat
// any scheduler failure as fatal.
func mustSched(t *testing.T) func(*Schedule, error) *Schedule {
	return func(s *Schedule, err error) *Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// within returns a tree environment whose clock stops d from now.
func within(t *testing.T, d time.Duration) mip.Options {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return mip.Options{Context: ctx}
}

func TestBSPgValidOnTinySet(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		for _, p := range []int{1, 2, 4, 8} {
			s := mustSched(t)(BSPg(inst.DAG, p, 1))
			if err := s.Validate(); err != nil {
				t.Errorf("%s P=%d: %v", inst.Name, p, err)
			}
			if err := s.CheckOrder(); err != nil {
				t.Errorf("%s P=%d: %v", inst.Name, p, err)
			}
		}
	}
}

func TestBSPgUsesMultipleProcessors(t *testing.T) {
	// A wide DAG should engage more than one processor.
	g := workloads.SpMV(10, 1)
	s := mustSched(t)(BSPg(g, 4, 1))
	used := map[int]bool{}
	for v := 0; v < g.N(); v++ {
		if s.Proc[v] >= 0 {
			used[s.Proc[v]] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("BSPg used only %d processors on a wide DAG", len(used))
	}
}

func TestBSPgBeatsSerialOnParallelWork(t *testing.T) {
	g := workloads.SpMV(10, 1)
	s4 := mustSched(t)(BSPg(g, 4, 1))
	s1 := mustSched(t)(BSPg(g, 1, 1))
	if s4.Cost(1, 1) >= s1.Cost(1, 1) {
		t.Fatalf("P=4 cost %g not below P=1 cost %g", s4.Cost(1, 1), s1.Cost(1, 1))
	}
}

func TestCilkValidAndDeterministic(t *testing.T) {
	for _, inst := range workloads.Tiny()[:5] {
		a := mustSched(t)(Cilk(inst.DAG, 4, 7))
		b := mustSched(t)(Cilk(inst.DAG, 4, 7))
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := a.CheckOrder(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		for v := 0; v < inst.DAG.N(); v++ {
			if a.Proc[v] != b.Proc[v] || a.Step[v] != b.Step[v] {
				t.Fatalf("%s: nondeterministic for fixed seed", inst.Name)
			}
		}
	}
}

func TestDFSOrderIsTopological(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		g := inst.DAG
		order := DFSOrder(g)
		pos := make(map[int]int)
		for i, v := range order {
			pos[v] = i
		}
		count := 0
		for v := 0; v < g.N(); v++ {
			if g.IsSource(v) {
				continue
			}
			count++
			for _, u := range g.Parents(v) {
				if g.IsSource(u) {
					continue
				}
				if pos[u] >= pos[v] {
					t.Fatalf("%s: DFS order violates edge (%d,%d)", inst.Name, u, v)
				}
			}
		}
		if len(order) != count {
			t.Fatalf("%s: DFS order covers %d of %d nodes", inst.Name, len(order), count)
		}
	}
}

func TestDFSDescendsIntoChains(t *testing.T) {
	// On a chain, DFS computes it straight through.
	g := graph.Chain(6)
	order := DFSOrder(g)
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("DFS order on chain: %v", order)
		}
	}
}

func TestDFSScheduleSingleSuperstep(t *testing.T) {
	g := workloads.SpMV(6, 1)
	s := DFS(g)
	if s.NumSteps != 1 {
		t.Fatalf("DFS schedule has %d supersteps", s.NumSteps)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsCrossProcSameStep(t *testing.T) {
	g := graph.Chain(3) // 0 -> 1 -> 2; node 0 is a source
	s := NewSchedule(g, 2)
	s.Assign(1, 0, 0)
	s.Assign(2, 1, 0) // depends on node 1, other proc, same superstep
	if err := s.Validate(); err == nil {
		t.Fatal("expected cross-processor violation")
	}
}

func TestValidateRejectsUnassigned(t *testing.T) {
	g := graph.Chain(3)
	s := NewSchedule(g, 2)
	s.Assign(1, 0, 0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected unassigned error")
	}
}

func TestFromAssignmentEarliestSteps(t *testing.T) {
	// 0 (source) -> 1 -> 2 -> 3, procs alternate: each cross edge bumps
	// the superstep.
	g := graph.Chain(4)
	proc := []int{-1, 0, 1, 0}
	s := mustSched(t)(FromAssignment(g, 2, proc))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Step[1] != 0 || s.Step[2] != 1 || s.Step[3] != 2 {
		t.Fatalf("steps=%v", s.Step)
	}
}

func TestCostAccountsWorkAndComm(t *testing.T) {
	// Two nodes on different procs with a cross edge.
	g := graph.New("x")
	s0 := g.AddNode(0, 2)
	a := g.AddNode(3, 2)
	b := g.AddNode(5, 1)
	g.AddEdge(s0, a)
	g.AddEdge(a, b)
	sch := NewSchedule(g, 2)
	sch.Assign(a, 0, 0)
	sch.Assign(b, 1, 1)
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	// Superstep -1 (source receive): h = μ(s0)=2 → g·2.
	// Superstep 0: work 3, send μ(a)=2 → g·2.
	// Superstep 1: work 5.
	gg, ll := 2.0, 10.0
	want := (gg*2 + ll) + (3 + gg*2 + ll) + (5 + ll)
	if got := sch.Cost(gg, ll); got != want {
		t.Fatalf("cost=%g want %g", got, want)
	}
}

func TestCostSkipsEmptySupersteps(t *testing.T) {
	g := graph.Chain(2)
	s := NewSchedule(g, 2)
	s.Assign(1, 0, 5) // artificially late superstep
	cost := s.Cost(1, 10)
	// Only two non-empty slots: the source receive and the work step.
	want := (1.0 + 10) + (1.0 + 10)
	if cost != want {
		t.Fatalf("cost=%g want %g", cost, want)
	}
}

func TestComputeOrderRespectsAssignmentOrder(t *testing.T) {
	// Two independent nodes on the same proc+step keep assignment order.
	g := graph.New("x")
	s0 := g.AddNode(0, 1)
	a := g.AddNode(1, 1)
	b := g.AddNode(1, 1)
	g.AddEdge(s0, a)
	g.AddEdge(s0, b)
	s := NewSchedule(g, 1)
	s.Assign(b, 0, 0)
	s.Assign(a, 0, 0)
	order := s.ComputeOrder()
	if order[0][0][0] != b || order[0][0][1] != a {
		t.Fatalf("order=%v", order[0][0])
	}
}

func TestILPBSPValidAndNotWorse(t *testing.T) {
	for _, inst := range workloads.Tiny()[:4] {
		g := inst.DAG
		warm := mustSched(t)(BSPg(g, 2, 1))
		s := mustSched(t)(ILP(g, 2, 1, 10, within(t, 2*time.Second)))
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := s.CheckOrder(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		// The ILP's own objective is a different relaxation, but the
		// schedule should not be wildly worse in BSP cost terms.
		if s.Cost(1, 10) > 1.5*warm.Cost(1, 10) {
			t.Fatalf("%s: ILP BSP cost %g far above BSPg %g", inst.Name, s.Cost(1, 10), warm.Cost(1, 10))
		}
	}
}

// TestILPBSPFallsBackOnHugeModel: exp_N10_K8 at P = 4 builds an
// 11,788-row model, above the default row cap, so ILP returns the BSPg
// warm start without a tree search.
func TestILPBSPFallsBackOnHugeModel(t *testing.T) {
	inst, err := workloads.ByName("exp_N10_K8")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSched(t)(ILP(inst.DAG, 4, 1, 10, mip.Options{}))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	warm := mustSched(t)(BSPg(inst.DAG, 4, 1))
	if !slices.Equal(s.Proc, warm.Proc) || !slices.Equal(s.Step, warm.Step) {
		t.Fatal("ILP did not fall back to the BSPg schedule")
	}
}

// ilpGoldenDigest is the SHA-256 over Proc and Step of every ILP schedule
// TestILPGoldenDigest builds.
const ilpGoldenDigest = "0344bb0a4ff3c2e7c435f19bc53c72efc2f4592c4d38f36d328d18701f870a90"

// TestILPGoldenDigest pins the ILP schedules of cases whose tree finishes
// within its node budget in seconds; no clock runs, so the bytes are
// deterministic.
func TestILPGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, c := range []struct {
		name string
		p    int
	}{{"spmv_N6", 2}, {"spmv_N10", 2}, {"spmv_N10", 4}} {
		inst, err := workloads.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		s := mustSched(t)(ILP(inst.DAG, c.p, 1, 10, mip.Options{Workers: 2}))
		fmt.Fprintf(h, "%s P=%d\n%v\n%v\n", c.name, c.p, s.Proc, s.Step)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ilpGoldenDigest {
		t.Fatalf("ILP golden digest %s, want %s", got, ilpGoldenDigest)
	}
}

package partition

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/mip"
	"mbsp/internal/workloads"
)

func TestBipartitionChain(t *testing.T) {
	g := graph.Chain(9)
	part, cut, res, err := Bipartition(g, mip.Options{NodeLimit: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 {
		t.Fatalf("chain cut=%d want 1", cut)
	}
	if res.Status != mip.Optimal {
		t.Fatal("chain bipartition should be proven optimal")
	}
	if !g.IsAcyclicPartition(part, 2) {
		t.Fatal("partition not acyclic")
	}
	// Balance.
	ones := 0
	for _, p := range part {
		ones += p
	}
	if ones < 3 || ones > 6 {
		t.Fatalf("unbalanced: %d of 9 in part 1", ones)
	}
}

func TestBipartitionRespectsAcyclicity(t *testing.T) {
	for _, inst := range workloads.Tiny()[:5] {
		part, _, _, err := Bipartition(inst.DAG, mip.Options{NodeLimit: 20000})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if !inst.DAG.IsAcyclicPartition(part, 2) {
			t.Fatalf("%s: cyclic quotient", inst.Name)
		}
	}
}

func TestBipartitionBeatsOrMatchesGreedy(t *testing.T) {
	for _, inst := range workloads.Tiny()[:6] {
		_, gcut, gerr := GreedyBipartition(inst.DAG)
		if gerr != nil {
			t.Fatalf("%s: %v", inst.Name, gerr)
		}
		_, icut, _, err := Bipartition(inst.DAG, mip.Options{NodeLimit: 20000})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if icut > gcut {
			t.Fatalf("%s: ILP cut %d worse than greedy %d", inst.Name, icut, gcut)
		}
	}
}

func TestGreedyBipartitionBalanced(t *testing.T) {
	g := workloads.SpMV(10, 3)
	part, cut, err := GreedyBipartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsAcyclicPartition(part, 2) {
		t.Fatal("greedy produced cyclic quotient")
	}
	if cut < 0 {
		t.Fatal("negative cut?")
	}
	ones := 0
	for _, p := range part {
		ones += p
	}
	n := g.N()
	if ones < n/3 || ones > n-n/3 {
		t.Fatalf("unbalanced: %d of %d", ones, n)
	}
}

func TestRecursiveSplitsToSize(t *testing.T) {
	for _, inst := range workloads.Small()[:3] {
		res, err := Recursive(inst.DAG, 30, &mip.Options{})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		parts := Parts(res.Part, res.K)
		for i, nodes := range parts {
			if len(nodes) == 0 {
				t.Fatalf("%s: empty part %d", inst.Name, i)
			}
			if len(nodes) > 30 {
				t.Fatalf("%s: part %d has %d nodes", inst.Name, i, len(nodes))
			}
		}
		if !inst.DAG.IsAcyclicPartition(res.Part, res.K) {
			t.Fatalf("%s: quotient cyclic", inst.Name)
		}
		// Parts must be numbered topologically: every edge goes to an
		// equal or higher part id.
		for u := 0; u < inst.DAG.N(); u++ {
			for _, v := range inst.DAG.Children(u) {
				if res.Part[u] > res.Part[v] {
					t.Fatalf("%s: edge (%d,%d) goes from part %d to %d",
						inst.Name, u, v, res.Part[u], res.Part[v])
				}
			}
		}
	}
}

// TestRecursiveCancelled: an already-cancelled Context must stop the
// partitioning before any bipartition tree is searched.
func TestRecursiveCancelled(t *testing.T) {
	inst, err := workloads.ByName("CG_N5_K2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Recursive(inst.DAG, 45, &mip.Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.ILPSolves != 0 || res.Solver.ILPNodes != 0 {
		t.Fatalf("cancelled run made %d ILP solves over %d nodes, want none", res.ILPSolves, res.Solver.ILPNodes)
	}
}

func TestRecursiveGreedyOnly(t *testing.T) {
	inst, err := workloads.ByName("exp_N10_K8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recursive(inst.DAG, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ILPSolves != 0 {
		t.Fatalf("greedy-only run used %d ILP solves", res.ILPSolves)
	}
	if !inst.DAG.IsAcyclicPartition(res.Part, res.K) {
		t.Fatal("quotient cyclic")
	}
}

func TestRecursiveSmallInputNoSplit(t *testing.T) {
	g := graph.Diamond()
	res, err := Recursive(g, 10, &mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("K=%d want 1", res.K)
	}
}

// TestRecursiveCyclicInputErrors: a cyclic graph has no acyclic split,
// so Recursive reports the degenerate split instead of inventing one.
func TestRecursiveCyclicInputErrors(t *testing.T) {
	g := graph.New("cycle")
	for i := 0; i < 6; i++ {
		g.AddNode(1, 1)
	}
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	for _, ilp := range []*mip.Options{nil, {}} {
		_, err := Recursive(g, 2, ilp)
		if err == nil || !strings.Contains(err.Error(), "degenerate split of 6 nodes") {
			t.Fatalf("ilp=%v: err = %v, want a degenerate split of 6 nodes", ilp != nil, err)
		}
	}
}

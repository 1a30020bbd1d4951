package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/workloads"
)

// sortedTopoOrder is the Kahn's-algorithm order TopoOrder computed before
// its ready set became a heap: it re-sorts the ready list before every
// pop. TopoOrder must return exactly this order.
func sortedTopoOrder(g *graph.DAG) ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(v)
	}
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range g.Children(v) {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, graph.ErrCyclic
	}
	return order, nil
}

// relabeled returns g with node v renamed perm[v], so that edges no
// longer run from lower to higher ids and the ready set holds nodes in
// no particular order.
func relabeled(g *graph.DAG, perm []int) *graph.DAG {
	h := graph.New(g.Name())
	inv := make([]int, g.N())
	for v, w := range perm {
		inv[w] = v
	}
	for w := range inv {
		h.AddNode(g.Comp(inv[w]), g.Mem(inv[w]))
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Children(u) {
			h.AddEdge(perm[u], perm[v])
		}
	}
	return h
}

func TestTopoOrderMatchesSortedReadyList(t *testing.T) {
	check := func(g *graph.DAG) {
		t.Helper()
		got, err := g.TopoOrder()
		want, werr := sortedTopoOrder(g)
		if err != werr || !slices.Equal(got, want) {
			t.Fatalf("%s: TopoOrder = %v, %v; sorted ready list gives %v, %v", g.Name(), got, err, want, werr)
		}
	}
	for _, inst := range workloads.Tiny() {
		check(inst.DAG)
	}
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 200; seed++ {
		var g *graph.DAG
		if seed%2 == 0 {
			g = graph.RandomDAG("random", 2+rng.Intn(60), 0.2, 5, 5, 5, seed)
		} else {
			g = graph.RandomLayered("layered", 1+rng.Intn(8), 1+rng.Intn(8), 0.4, 5, 5, seed)
		}
		check(g)
		check(relabeled(g, rng.Perm(g.N())))
	}
	// A cycle is reported by both.
	g := graph.New("cycle")
	for i := 0; i < 4; i++ {
		g.AddNode(1, 1)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(3, 2)
	check(g)
}

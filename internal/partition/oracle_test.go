package partition

import (
	"fmt"
	"math/bits"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/mip"
)

// oracleDAGs are the exhaustive-oracle fixtures: seeded random DAGs of at
// most 12 nodes (all 2^n part vectors stay cheap) plus the chain and
// diamond fixtures.
func oracleDAGs() []*graph.DAG {
	out := []*graph.DAG{graph.Chain(9), graph.Diamond()}
	for seed := int64(1); seed <= 24; seed++ {
		n := 4 + int(seed)%9
		p := []float64{0.2, 0.35, 0.5}[seed%3]
		out = append(out, graph.RandomDAG(fmt.Sprintf("rand%d", seed), n, p, 3, 5, 5, seed))
	}
	return out
}

// TestBipartitionExhaustiveOracle checks the cut-indicator-free model
// against brute force over every part vector: its degree-difference
// objective equals the quotient's cut count on every acyclic vector, a
// proven-optimal Bipartition reaches the exhaustive minimum over balanced
// acyclic bipartitions, and the returned cut is the cut of the returned
// vector.
func TestBipartitionExhaustiveOracle(t *testing.T) {
	for _, g := range oracleDAGs() {
		n := g.N()
		lo := int(minFraction*float64(n) + 0.999999)
		hi := n - lo
		m := bipartitionModel(g, lo, hi)
		if m.NumVars() != n || m.NumRows() != g.M()+2 {
			t.Fatalf("%s: model has %d columns and %d rows, want %d and %d",
				g.Name(), m.NumVars(), m.NumRows(), n, g.M()+2)
		}
		best := -1
		part := make([]int, n)
		x := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for v := range part {
				part[v] = mask >> v & 1
				x[v] = float64(part[v])
			}
			if !forwardOnly(g, part) {
				continue
			}
			degSum := 0
			for v, p := range part {
				degSum += p * (g.InDegree(v) - g.OutDegree(v))
			}
			_, qcut := g.Quotient(part, 2)
			if degSum != qcut || m.ObjValue(x) != float64(qcut) {
				t.Fatalf("%s part=%v: Σ part·(indeg−outdeg)=%d, model objective %g, quotient cut %d",
					g.Name(), part, degSum, m.ObjValue(x), qcut)
			}
			if ones := bits.OnesCount(uint(mask)); ones >= lo && ones <= hi && (best < 0 || qcut < best) {
				best = qcut
			}
		}
		got, cut, res, err := Bipartition(g, mip.Options{NodeLimit: 20000})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if _, qcut := g.Quotient(got, 2); cut != qcut {
			t.Fatalf("%s: returned cut %d, cut of the returned part vector %d", g.Name(), cut, qcut)
		}
		if !forwardOnly(g, got) {
			t.Fatalf("%s: returned part vector %v has a 1→0 edge", g.Name(), got)
		}
		if res.Status == mip.Optimal && cut != best {
			t.Fatalf("%s: proven-optimal cut %d, exhaustive minimum %d", g.Name(), cut, best)
		}
	}
}

// forwardOnly reports whether no edge of g goes from part 1 to part 0,
// the acyclicity rows of the bipartition model.
func forwardOnly(g *graph.DAG, part []int) bool {
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Children(u) {
			if part[u] > part[v] {
				return false
			}
		}
	}
	return true
}

// perSplitGreedy is the O(n·m) GreedyBipartition the difference-array
// sweep replaced, kept as its oracle: it recounts every edge for each
// candidate split and keeps the first minimum.
func perSplitGreedy(g *graph.DAG) ([]int, int) {
	n := g.N()
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	lo := int(minFraction*float64(n) + 0.999999)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	bestSplit, bestCut := -1, 1<<30
	for split := lo; split <= n-lo; split++ {
		cut := 0
		for u := 0; u < n; u++ {
			for _, v := range g.Children(u) {
				if pos[u] < split && pos[v] >= split {
					cut++
				}
			}
		}
		if cut < bestCut {
			bestCut, bestSplit = cut, split
		}
	}
	part := make([]int, n)
	for i, v := range order {
		if i >= bestSplit {
			part[v] = 1
		}
	}
	return part, bestCut
}

// TestGreedyBipartitionMatchesPerSplitCount: the one-sweep greedy split
// returns exactly the part vector and cut of the per-split recount, and
// an error when no split is balanced.
func TestGreedyBipartitionMatchesPerSplitCount(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n := 2 + int(seed*7)%80
		g := graph.RandomDAG(fmt.Sprintf("rand%d", seed), n, 0.15, 4, 5, 5, seed)
		part, cut, err := GreedyBipartition(g)
		if err != nil {
			t.Fatal(err)
		}
		wantPart, wantCut := perSplitGreedy(g)
		if got, want := fmt.Sprint(part, cut), fmt.Sprint(wantPart, wantCut); got != want {
			t.Fatalf("%s (n=%d): sweep %s, per-split %s", g.Name(), n, got, want)
		}
	}
	if part, cut, err := GreedyBipartition(graph.Chain(1)); err == nil {
		t.Fatalf("n=1: got part %v cut %d, want an error", part, cut)
	}
}

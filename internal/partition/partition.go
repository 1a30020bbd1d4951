// Package partition implements acyclic DAG partitioning for the
// divide-and-conquer ILP scheduler (Section 6.3): an exact ILP
// formulation of acyclic bipartitioning with balance constraints and a
// cut-minimizing objective, a greedy topological fallback, and a
// recursive splitter that keeps bisecting until every part is small
// enough for the scheduling sub-ILPs.
//
// Run control is a context.Context: each bipartition ILP runs under its
// caller's Context narrowed by a per-split clock (see Bipartition), and
// Recursive stops splitting with the context's error once it is done.
package partition

import (
	"context"
	"fmt"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mip"
)

// minFraction is the minimum fraction of nodes per side of every split
// (the paper's value).
const minFraction = 1.0 / 3.0

// Bipartition splits g into two parts {0,1} such that the quotient graph
// is acyclic (every edge goes 0→0, 1→1 or 0→1), both sides hold at least
// a third of the nodes, and the number of cut edges is minimized. It
// solves the ILP over one binary per node
//
//	min Σ_v part_v·(indeg v − outdeg v)
//	s.t. part_u ≤ part_v            for every edge (u,v)   (acyclicity)
//	     ⌈f·n⌉ ≤ Σ part_v ≤ ⌊(1−f)·n⌋                      (balance)
//
// whose objective is the cut: under acyclicity an edge (u,v) is cut
// exactly when part_v − part_u = 1, and Σ_(u,v) (part_v − part_u)
// regroups per node into the degree difference (see DESIGN.md,
// "Bipartition without cut indicators").
//
// run configures the branch-and-bound search, with three exceptions: a
// NodeLimit of 0 selects 20000, Bipartition's own warm start (the
// topological prefix split) replaces run.WarmStart, and run.Context is
// narrowed by a clock of 2s per split, or of a minute when the caller
// sets NodeLimit, so that the node limit is what binds. res is the
// solver's result: res.Status == mip.Optimal proves the cut minimal, and
// res.Counters holds the tree's work even when err is set.
func Bipartition(g *graph.DAG, run mip.Options) (part []int, cut int, res mip.Result, err error) {
	res.Status = mip.NoSolution
	n := g.N()
	if n < 2 {
		return nil, 0, res, fmt.Errorf("partition: need at least 2 nodes, have %d", n)
	}
	lo := int(float64(minFraction*float64(n)) + 0.999999)
	hi := n - lo
	if lo > hi {
		return nil, 0, res, fmt.Errorf("partition: balance bounds infeasible for n=%d", n)
	}
	order, oerr := g.TopoOrder()
	if oerr != nil {
		return nil, 0, res, fmt.Errorf("partition: %w", oerr)
	}
	m := bipartitionModel(g, lo, hi)

	// Warm start: the topological prefix split, its last lo nodes in part 1.
	ws := make([]float64, n)
	for _, v := range order[n-lo:] {
		ws[v] = 1
	}

	limit := 2 * time.Second
	if run.NodeLimit > 0 {
		limit = time.Minute
	}
	if run.NodeLimit == 0 {
		run.NodeLimit = 20000
	}
	if run.Context == nil {
		run.Context = context.Background()
	}
	var cancel context.CancelFunc
	run.Context, cancel = context.WithTimeout(run.Context, limit)
	defer cancel()
	run.WarmStart = ws
	res = m.Solve(run)
	if res.X == nil {
		return nil, 0, res, fmt.Errorf("partition: solver found no solution (%v)", res.Status)
	}
	part = make([]int, n)
	for v := 0; v < n; v++ {
		if res.X[v] > 0.5 {
			part[v] = 1
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			if part[u] != part[v] {
				cut++
			}
		}
	}
	return part, cut, res, nil
}

// bipartitionModel builds Bipartition's ILP: column v is part_v, then one
// acyclicity row per edge and the two balance rows, so the model has
// g.N() columns and g.M()+2 rows.
func bipartitionModel(g *graph.DAG, lo, hi int) *mip.Model {
	n := g.N()
	m := mip.NewModel()
	for v := 0; v < n; v++ {
		m.AddBinary("part", float64(g.InDegree(v)-g.OutDegree(v)))
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			m.AddLE(0, lp.Coef{Var: u, Val: 1}, lp.Coef{Var: v, Val: -1})
		}
	}
	bal := make([]lp.Coef, n)
	for v := range bal {
		bal[v] = lp.Coef{Var: v, Val: 1}
	}
	m.AddRow(bal, lp.GE, float64(lo))
	m.AddRow(bal, lp.LE, float64(hi))
	return m
}

// GreedyBipartition is the heuristic fallback: a topological prefix split
// at the position minimizing the cut subject to the balance bound.
// Returns graph.ErrCyclic for a cyclic input graph, and an error when no
// split meets the balance bound (a one-node graph).
func GreedyBipartition(g *graph.DAG) ([]int, int, error) {
	n := g.N()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	lo := int(float64(minFraction*float64(n)) + 0.999999)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	// Edge (u,v) is cut by exactly the splits in (pos u, pos v]: one
	// difference-array sweep over the positions counts every split's cut.
	diff := make([]int, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			diff[pos[u]+1]++
			diff[pos[v]+1]--
		}
	}
	bestSplit, bestCut := -1, 1<<30
	cut := 0
	for split := 0; split <= n-lo; split++ {
		cut += diff[split]
		if split >= lo && cut < bestCut {
			bestCut, bestSplit = cut, split
		}
	}
	if bestSplit < 0 {
		return nil, 0, fmt.Errorf("partition: balance bounds infeasible for n=%d", n)
	}
	part := make([]int, n)
	for i, v := range order {
		if i >= bestSplit {
			part[v] = 1
		}
	}
	return part, bestCut, nil
}

// Result of a recursive partitioning.
type Result struct {
	Part      []int // node -> part id, 0..K-1, topologically numbered
	K         int
	CutEdges  int
	ILPSolves int
	Optimal   int          // bipartitions proven optimal
	Solver    mip.Counters // summed over every bipartition ILP
}

// Recursive splits g into acyclic parts of at most maxPartSize nodes
// (≤ 0 selects 24; the paper uses 60 with a commercial solver) by
// recursive bipartitioning. Part ids are assigned so that the quotient
// graph respects a topological order of the parts.
//
// A nil run splits greedily. Otherwise every split solves the exact
// bipartition ILP under *run (see Bipartition) and falls back to the
// greedy split when the ILP fails. A done run.Context stops the
// partitioning with its error (a partial split is not a partitioning).
func Recursive(g *graph.DAG, maxPartSize int, run *mip.Options) (Result, error) {
	if maxPartSize <= 0 {
		maxPartSize = 24
	}
	res := Result{Part: make([]int, g.N())}
	type job struct {
		nodes []int
	}
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	var finished [][]int
	queue := []job{{nodes: all}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if len(j.nodes) <= maxPartSize {
			finished = append(finished, j.nodes)
			continue
		}
		if run != nil && run.Context != nil && run.Context.Err() != nil {
			return res, fmt.Errorf("partition: cancelled after %d bipartitions: %w", res.ILPSolves, run.Context.Err())
		}
		sub, orig := g.SubDAG(j.nodes)
		var part []int
		if run != nil {
			p, _, bres, err := Bipartition(sub, *run)
			res.ILPSolves++
			res.Solver.Add(bres.Counters)
			if err == nil {
				part = p
				if bres.Status == mip.Optimal {
					res.Optimal++
				}
			}
		}
		if part == nil {
			if p, _, gerr := GreedyBipartition(sub); gerr == nil {
				part = p
			}
		}
		var a, b []int
		if part != nil {
			for i, v := range orig {
				if part[i] == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
		}
		if len(a) == 0 || len(b) == 0 {
			// Balance keeps both ILP sides non-empty, so only a body the
			// greedy split also rejects (a cyclic one) gets here.
			return res, fmt.Errorf("partition: degenerate split of %d nodes", len(j.nodes))
		}
		queue = append(queue, job{a}, job{b})
	}
	// Topologically order the parts via the quotient graph.
	tmp := make([]int, g.N())
	for id, nodes := range finished {
		for _, v := range nodes {
			tmp[v] = id
		}
	}
	q, cut := g.Quotient(tmp, len(finished))
	res.CutEdges = cut
	order, err := q.TopoOrder()
	if err != nil {
		return res, fmt.Errorf("partition: quotient not acyclic: %w", err)
	}
	rank := make([]int, len(finished))
	for i, id := range order {
		rank[id] = i
	}
	for v := 0; v < g.N(); v++ {
		res.Part[v] = rank[tmp[v]]
	}
	res.K = len(finished)
	return res, nil
}

// Parts groups node ids by part id, ordered by part.
func Parts(part []int, k int) [][]int {
	out := make([][]int, k)
	for v, p := range part {
		out[p] = append(out[p], v)
	}
	return out
}

// Package partition implements acyclic DAG partitioning for the
// divide-and-conquer ILP scheduler (Section 6.3): an exact ILP
// formulation of acyclic bipartitioning with balance constraints and a
// cut-minimizing objective, a greedy topological fallback, and a
// recursive splitter that keeps bisecting until every part is small
// enough for the scheduling sub-ILPs.
//
// Run control is a context.Context: each bipartition ILP runs under its
// caller's Context narrowed by its own TimeLimit, and Recursive stops
// splitting with the context's error once it is done.
package partition

import (
	"context"
	"fmt"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mip"
)

// minFraction is the minimum fraction of nodes per side of every split
// (the paper's value).
const minFraction = 1.0 / 3.0

// BipartitionOptions configures one exact bipartition solve.
type BipartitionOptions struct {
	// Context, when non-nil, stops the branch-and-bound search once it is
	// done; the best bipartition found so far is still returned.
	Context   context.Context
	TimeLimit time.Duration // default 5s
	NodeLimit int           // default 20000
	// ColdStartLP disables the warm-started dual re-solves inside the
	// branch-and-bound tree (solver ablation benchmarks).
	ColdStartLP bool
	// Workers bounds the goroutines solving branch-and-bound node
	// relaxations concurrently (mip.Options.Workers). The partition — and
	// every solver counter — is identical for any value; see DESIGN.md.
	Workers int
	// Stats, when non-nil, accumulates solver counters across solves.
	Stats *SolverStats
	// Inject, when non-nil, threads the deterministic fault-injection
	// harness into the bipartition ILP's branch-and-bound tree
	// (mip.Options.Inject).
	Inject *faultinject.Injector
	// LUStats, when non-nil, accumulates the LP factorization counters of
	// the tree search (mip.Options.LUStats). Observability only — never
	// folded into SolverStats, whose fields must stay byte-identical
	// across Workers values while factorization reuse depends on worker
	// scheduling.
	LUStats *lp.FactorStats
}

// SolverStats accumulates branch-and-bound solver counters across
// bipartition solves (the solver benchmark reads them).
type SolverStats struct {
	Nodes        int
	LPs          int
	SimplexIters int
	WarmLPs      int
	ColdLPs      int
	PerturbedLPs int
	CleanupIters int
}

func (st *SolverStats) add(res mip.Result) {
	if st == nil {
		return
	}
	st.Nodes += res.Nodes
	st.LPs += res.LPs
	st.SimplexIters += res.SimplexIters
	st.WarmLPs += res.WarmLPs
	st.ColdLPs += res.ColdLPs
	st.PerturbedLPs += res.PerturbedLPs
	st.CleanupIters += res.CleanupIters
}

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
// "Bipartition without cut indicators"). It reports whether the
// solution is proven optimal.
func Bipartition(g *graph.DAG, opts BipartitionOptions) (part []int, cut int, optimal bool, err error) {
	if opts.TimeLimit == 0 {
		opts.TimeLimit = 5 * time.Second
	}
	if opts.NodeLimit == 0 {
		opts.NodeLimit = 20000
	}
	n := g.N()
	if n < 2 {
		return nil, 0, false, fmt.Errorf("partition: need at least 2 nodes, have %d", n)
	}
	lo := int(minFraction*float64(n) + 0.999999)
	hi := n - lo
	if lo > hi {
		return nil, 0, false, fmt.Errorf("partition: balance bounds infeasible for n=%d", n)
	}
	order, oerr := g.TopoOrder()
	if oerr != nil {
		return nil, 0, false, fmt.Errorf("partition: %w", oerr)
	}
	m := bipartitionModel(g, lo, hi)

	// Warm start: the topological prefix split, its last lo nodes in part 1.
	ws := make([]float64, n)
	for _, v := range order[n-lo:] {
		ws[v] = 1
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, opts.TimeLimit)
	defer cancel()
	res := m.Solve(mip.Options{
		Context: ctx, NodeLimit: opts.NodeLimit,
		WarmStart: ws, ColdStart: opts.ColdStartLP, Workers: opts.Workers,
		Inject: opts.Inject, LUStats: opts.LUStats,
	})
	opts.Stats.add(res)
	if res.X == nil {
		return nil, 0, false, fmt.Errorf("partition: solver found no solution (%v)", res.Status)
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
	return part, cut, res.Status == mip.Optimal, nil
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
	lo := int(minFraction*float64(n) + 0.999999)
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
	Optimal   int // bipartitions proven optimal
}

// Recursive splits g into acyclic parts of at most maxPartSize nodes
// (≤ 0 selects 24; the paper uses 60 with a commercial solver) by
// recursive bipartitioning. Part ids are assigned so that the quotient
// graph respects a topological order of the parts.
//
// A nil ilp splits greedily. Otherwise every split solves the exact
// bipartition ILP under *ilp — its Stats accumulate the counters of every
// tree — and falls back to the greedy split when the ILP fails. A done
// ilp.Context stops the partitioning with its error (a partial split is
// not a partitioning).
func Recursive(g *graph.DAG, maxPartSize int, ilp *BipartitionOptions) (Result, error) {
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
		if ilp != nil && ilp.Context != nil && ilp.Context.Err() != nil {
			return res, fmt.Errorf("partition: cancelled after %d bipartitions: %w", res.ILPSolves, ilp.Context.Err())
		}
		sub, orig := g.SubDAG(j.nodes)
		var part []int
		if ilp != nil {
			p, _, opt, err := Bipartition(sub, *ilp)
			res.ILPSolves++
			if err == nil {
				part = p
				if opt {
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

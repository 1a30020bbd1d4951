// Package mip implements a mixed-integer linear programming solver: a
// model builder over package lp plus LP-relaxation branch-and-bound with
// best-bound node selection, most-fractional branching, warm-start
// incumbents, node limits and context cancellation. It stands in for the
// commercial MILP solver used by the paper (see DESIGN.md).
//
// The search re-solves LPs warm: the constraint matrix is prepared once
// (lp.Prepare), every node carries its parent's optimal basis, and child
// relaxations — which differ from the parent by a single variable bound
// — are dual-reoptimized with lp.SolveFrom in a handful of iterations
// instead of a cold phase-1 start.
//
// The tree search itself is parallel: Options.Workers goroutines solve
// node relaxations pulled from a shared best-bound work queue, with
// deterministic node accounting (creation-sequence budgets, serial wave
// commits, sequence tie-breaking) making the reported solution and every
// Result counter byte-identical for any worker count — see search.go and
// DESIGN.md.
package mip

import (
	"context"
	"fmt"
	"math"

	"mbsp/internal/faultinject"
	"mbsp/internal/lp"
)

// Model is a MILP: an LP plus integrality markers.
type Model struct {
	prob    *lp.Problem
	integer []bool
	names   []string
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{prob: lp.NewProblem(0)}
}

// AddVar adds a continuous variable with bounds [lo, hi] and objective
// coefficient obj; returns its index.
func (m *Model) AddVar(name string, lo, hi, obj float64) int {
	m.prob.Obj = append(m.prob.Obj, obj)
	m.prob.Lb = append(m.prob.Lb, lo)
	m.prob.Ub = append(m.prob.Ub, hi)
	m.integer = append(m.integer, false)
	m.names = append(m.names, name)
	return len(m.integer) - 1
}

// AddBinary adds a {0,1} variable.
func (m *Model) AddBinary(name string, obj float64) int {
	j := m.AddVar(name, 0, 1, obj)
	m.integer[j] = true
	return j
}

// AddRow appends the constraint Σ coefs ◦ rhs and returns its index.
func (m *Model) AddRow(coefs []lp.Coef, sense lp.Sense, rhs float64) int {
	return m.prob.AddRow(coefs, sense, rhs)
}

// AddLE is shorthand for AddRow(coefs, LE, rhs).
func (m *Model) AddLE(rhs float64, coefs ...lp.Coef) int { return m.AddRow(coefs, lp.LE, rhs) }

// AddGE is shorthand for AddRow(coefs, GE, rhs).
func (m *Model) AddGE(rhs float64, coefs ...lp.Coef) int { return m.AddRow(coefs, lp.GE, rhs) }

// FixVar clamps variable j to a single value.
func (m *Model) FixVar(j int, v float64) {
	m.prob.Lb[j] = v
	m.prob.Ub[j] = v
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.integer) }

// LP returns the model's LP relaxation (integrality dropped). It is the
// model's own problem, not a copy: callers must not modify it.
func (m *Model) LP() *lp.Problem { return m.prob }

// NumRows returns the number of constraints.
func (m *Model) NumRows() int { return len(m.prob.Rows) }

// Name returns the name of variable j.
func (m *Model) Name(j int) string { return m.names[j] }

// ObjValue evaluates the model objective at x.
func (m *Model) ObjValue(x []float64) float64 {
	obj := 0.0
	for j, c := range m.prob.Obj {
		obj += float64(c * x[j])
	}
	return obj
}

// CheckFeasible verifies that x satisfies all rows, bounds and
// integrality within tol; returns a descriptive error otherwise.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) != m.NumVars() {
		return fmt.Errorf("mip: solution has %d values, model has %d variables", len(x), m.NumVars())
	}
	for j := range x {
		if x[j] < m.prob.Lb[j]-tol || x[j] > m.prob.Ub[j]+tol {
			return fmt.Errorf("mip: variable %s=%g outside [%g,%g]", m.names[j], x[j], m.prob.Lb[j], m.prob.Ub[j])
		}
		if m.integer[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return fmt.Errorf("mip: variable %s=%g not integral", m.names[j], x[j])
		}
	}
	for i, row := range m.prob.Rows {
		lhs := 0.0
		for _, c := range row.Coefs {
			lhs += float64(c.Val * x[c.Var])
		}
		switch row.Sense {
		case lp.LE:
			if lhs > row.RHS+tol {
				return fmt.Errorf("mip: row %d violated: %g > %g", i, lhs, row.RHS)
			}
		case lp.GE:
			if lhs < row.RHS-tol {
				return fmt.Errorf("mip: row %d violated: %g < %g", i, lhs, row.RHS)
			}
		case lp.EQ:
			if math.Abs(lhs-row.RHS) > tol {
				return fmt.Errorf("mip: row %d violated: %g != %g", i, lhs, row.RHS)
			}
		}
	}
	return nil
}

// Status of a MIP solve.
type Status int8

// Solve outcomes.
const (
	// Optimal: search completed, incumbent proven optimal.
	Optimal Status = iota
	// Feasible: a solution was found but the search hit a limit.
	Feasible
	// Infeasible: no feasible solution exists.
	Infeasible
	// NoSolution: limits hit before any solution was found.
	NoSolution
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Result of a MIP solve. Every counter is deterministic: for a fixed
// model and options, runs with any Options.Workers value report the same
// ILPNodes, ILPLPs, iteration split and solution bytes (context cancellation
// aside — see Options).
type Result struct {
	Status Status
	Obj    float64
	X      []float64
	Bound  float64 // global dual (lower) bound on the optimum
	Counters
}

// Counters are the search's deterministic work counters, embedded in
// Result; callers that run several trees sum them with Add.
type Counters struct {
	// ILPNodes counts tree nodes whose relaxation was solved and committed;
	// the node *budget* (Options.NodeLimit) is charged against creation
	// sequence numbers instead, so the two can differ once the limit
	// truncates the tree.
	ILPNodes int
	ILPLPs   int
	// SimplexIters is the total simplex iteration count across every LP
	// solved in the tree — the headline metric of the warm-start
	// optimization (BENCH_solver.json tracks it).
	SimplexIters int
	// WarmLPs counts node relaxations dual-reoptimized from the parent
	// basis; ColdLPs counts cold solves (the root, nodes without a
	// usable parent basis, and warm solves that fell back).
	WarmLPs, ColdLPs int
	// PerturbedLPs counts node relaxations solved under EXPAND bound
	// perturbation (all of them unless Options.NoPerturb); CleanupIters is
	// the share of SimplexIters spent removing the shifts and their
	// residuals at the end of those solves.
	PerturbedLPs int
	CleanupIters int
	// InjectedFaults counts faults that Options.Inject actually fired
	// during this solve: LP solves forced onto fallback paths plus
	// injected spurious cancellations. Deterministic under node-limited
	// runs, like every other counter.
	InjectedFaults int
	// Panics counts panics the search recovered from (per-node relaxation
	// solves and the engine loop). A panicking node is treated as a failed
	// relaxation: its subtree stays unexplored and the result is demoted
	// exactly as for an LP iteration-limit node.
	Panics int
}

// Add sums o into c.
func (c *Counters) Add(o Counters) {
	c.ILPNodes += o.ILPNodes
	c.ILPLPs += o.ILPLPs
	c.SimplexIters += o.SimplexIters
	c.WarmLPs += o.WarmLPs
	c.ColdLPs += o.ColdLPs
	c.PerturbedLPs += o.PerturbedLPs
	c.CleanupIters += o.CleanupIters
	c.InjectedFaults += o.InjectedFaults
	c.Panics += o.Panics
}

// DefaultMaxModelRows is the shared default row ceiling above which the
// scheduling front ends (internal/ilpsched, internal/bsp) skip the tree
// search and keep the warm-start schedule. The trail: 2600 while warm
// dual re-solves routinely stalled (fixed by the Harris/BFRT ratio tests
// and EXPAND perturbation), then 3000 while the basis inverse was a
// dense m×m matrix and O(rows²) per simplex iteration made ≳3400-row
// roots unfinishable in interactive budgets. The sparse LU core removed
// that wall: per-iteration cost is O(nnz of the factors), and the
// scheduling bases factor with low fill (see BENCH_solver.json's "lu"
// leg). Measured on the registry workloads: the 4856-row spmv_N7 P=4
// holistic model — formerly skipped — now builds, factors with ~1.15×
// fill, and explores a node-limited tree in seconds per node (ilpsched
// TestLargeModelEntersTreeSearch pins this), and the 9964-row pregel
// P=4 model factors the same way. The binding cost has moved from the
// LP core to the node budget callers are willing to spend — a root
// solve on a ~5000-row model is seconds, not unfinishable — so the
// default ceiling is 10000; beyond that, root relaxations genuinely
// outgrow interactive budgets even sparse.
const DefaultMaxModelRows = 10000

// intTol is the integrality tolerance: a relaxation value within intTol
// of an integer counts as integral.
const intTol = 1e-6

// absGap is the pruning gap: a node whose relaxation bound is within
// absGap of the best known objective cannot improve on it.
const absGap = 1e-6

// Options controls the branch-and-bound search.
type Options struct {
	// Context, when non-nil, stops the search once it is done (cancelled
	// or past its deadline), keeping the incumbent; callers with a time
	// budget pass a context.WithTimeout. Nil never stops the search.
	Context   context.Context
	NodeLimit int       // default 200000
	WarmStart []float64 // optional feasible solution used as incumbent

	// Workers bounds the goroutines concurrently solving node relaxations
	// (default 1: the search runs entirely on the calling goroutine). The
	// engine's deterministic node accounting makes the result — solution
	// bytes, status, bound, and every counter — identical for any value,
	// so callers can size the pool purely for throughput; see DESIGN.md.
	// The effective pool is capped by the wave width. Context
	// cancellation cuts nondeterministically: runs that must be
	// reproducible should let NodeLimit bind instead.
	Workers int

	// ColdStart disables dual re-solves from the parent basis, cold
	// starting every node as the pre-warm-start solver did (ablation and
	// cross-check baseline).
	ColdStart bool
	// ReferenceLP routes every node relaxation through the preserved
	// dense reference solver (lp.SolveDense); implies cold starts. Used
	// by the cross-check tests to pin the sparse/warm path against the
	// original solver stack.
	ReferenceLP bool
	// NoPerturb disables the deterministic EXPAND bound perturbation of
	// node relaxations (ablation and cross-check baseline). Perturbation
	// is on by default: it is what keeps the dual re-solves from stalling
	// on massively degenerate scheduling models, and it never changes
	// reported solutions — shifts are removed before an LP result is
	// returned.
	NoPerturb bool
	// Inject, when non-nil, enables the deterministic fault-injection
	// harness: forced cold fallbacks and simulated singular
	// refactorizations inside warm node re-solves (threaded to
	// lp.Options.Inject), injected per-node latency before relaxation
	// solves, and spurious cancellations at wave boundaries. Every
	// decision is a pure function of (instance fingerprint, node creation
	// sequence), so node-limited chaos runs stay byte-identical for any
	// Workers value; only the latency mode interacts with the context's
	// deadline.
	Inject *faultinject.Injector

	// LUStats, when non-nil, accumulates the LP factorization counters
	// (refactorizations, eta pivots, hot reuses, FTRAN/BTRAN counts and
	// times) summed over every worker instance the search used. It is
	// observability plumbing, deliberately NOT part of Result: hot-reuse
	// and refactorization counts depend on which worker solved which node
	// — scheduling noise — while every Result field is byte-identical
	// across worker counts.
	LUStats *lp.FactorStats
}

// Solve runs branch and bound, minimizing the model objective. The
// search is the deterministic parallel engine of search.go: identical
// results for any Options.Workers value.
func (m *Model) Solve(opts Options) Result {
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	if opts.NodeLimit == 0 {
		opts.NodeLimit = 200000
	}
	res := Result{Status: NoSolution, Obj: math.Inf(1), Bound: math.Inf(-1)}
	if opts.WarmStart != nil && m.CheckFeasible(opts.WarmStart, 1e-6) == nil {
		res.X = append([]float64(nil), opts.WarmStart...)
		res.Obj = m.ObjValue(res.X)
		res.Status = Feasible
	}

	e := newEngine(m, &opts, &res)
	if opts.LUStats != nil {
		// Deferred so every return path (abort, infeasible, optimal)
		// reports; lazily-created worker slots may be nil.
		defer func() {
			for _, inst := range e.insts {
				if inst != nil {
					opts.LUStats.Add(inst.Stats())
				}
			}
		}()
	}
	func() {
		// Panic containment: a panic escaping the serial wave loop (heap,
		// commit, bound materialization) is converted into an aborted
		// search that keeps the validated best-so-far incumbent instead of
		// unwinding through the caller. Panics inside concurrent node
		// solves are recovered per node in solveNode, which runs on worker
		// goroutines where an escape would be fatal to the process.
		defer func() {
			if r := recover(); r != nil {
				res.Panics++
				e.aborted = true
			}
		}()
		e.run()
	}()

	if e.aborted {
		// The context cut the search: best-so-far semantics.
		if res.X != nil {
			res.Status = Feasible
		}
		res.Bound = e.rootBound
		return res
	}
	if res.X == nil {
		if e.truncated {
			// Part of the tree went unexplored (see bbEngine.truncated):
			// the model is not proven infeasible.
			res.Status = NoSolution
			res.Bound = e.rootBound
			return res
		}
		res.Status = Infeasible
		res.Bound = math.Inf(1)
		return res
	}
	if e.truncated {
		// Part of the tree went unexplored: the incumbent is not proven
		// optimal.
		res.Status = Feasible
		res.Bound = e.rootBound
		return res
	}
	res.Status = Optimal
	res.Bound = res.Obj
	return res
}

// RowDef exposes row i for diagnostics.
func (m *Model) RowDef(i int) lp.RowDef { return m.prob.Rows[i] }

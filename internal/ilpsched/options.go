// Package ilpsched implements the paper's core contribution: representing
// MBSP scheduling as an Integer Linear Program (Section 6 and Appendix C)
// and solving it holistically.
//
// The formulation uses binary variables compute/save/load per (processor,
// node, time step) and hasred/hasblue state variables, with the step
// merging optimization (several compute operations, or several I/O
// operations, may share an ILP time step), both the synchronous and the
// asynchronous cost function, an optional no-recomputation restriction,
// and boundary conditions for divide-and-conquer subproblems.
//
// The branch-and-bound engine of package mip replaces the paper's
// commercial solver. Exactly as in the paper, the solver is initialized
// with the two-stage baseline solution, so the returned schedule is never
// worse than the warm start. A holistic local-search primal heuristic
// (package refine) supplements the tree search on instances whose ILP
// models exceed what the bundled LP solver handles comfortably; DESIGN.md
// documents this substitution.
package ilpsched

import (
	"context"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
)

// Options configures the ILP scheduler. The divide-and-conquer scheduler
// (package dnc) takes the same Options and reads these fields: the Tree
// fields for its partitioning stage; Model and Incumbent for its
// between-parts cutoff; and all of them for each part's sub-ILP, which
// runs under a copy with the part's own WarmStart and NeedBlue, Seed+k
// for part k, and no Incumbent.
type Options struct {
	// Context, when non-nil, cancels the tree search and the local-search
	// heuristic early (and skips the exact pebbler once done). Solve still
	// returns the best schedule found so far (at minimum the warm start),
	// never an error, on cancellation.
	Context context.Context
	// Model selects the synchronous or asynchronous objective.
	Model mbsp.CostModel
	// ExtraSteps is added to the warm start's step count to give the
	// solver slack for better solutions (Lemma 6.1 shows empty steps do
	// not certify optimality, so slack genuinely matters). Default 2.
	ExtraSteps int
	// NoRecompute forbids computing a node more than once across all
	// processors and steps.
	NoRecompute bool
	// NoStepMerging switches to the paper's base formulation: every ILP
	// time step holds at most one operation per processor (constraint
	// (6) of Figure 3) and the compute rule requires parents red at the
	// step start (constraint (3) without the same-step term). The time
	// horizon grows accordingly; only small instances remain tractable.
	NoStepMerging bool
	// TimeLimit bounds the branch-and-bound search: Solve runs the tree
	// search under Context narrowed by this timeout. Default 10s.
	TimeLimit time.Duration
	// NodeLimit bounds the search tree size. Default 5000.
	NodeLimit int
	// MaxModelRows skips the tree search (keeping warm start + local
	// search) when the ILP would have more rows than this. Since the
	// sparse LU core the ceiling is a node-budget guard, not an LP-core
	// one: registry-scale holistic models (thousands of rows) factor and
	// solve fine, but tree search on them still costs real time. Default
	// mip.DefaultMaxModelRows.
	MaxModelRows int
	// LocalSearchBudget bounds local-search evaluations. Default 4000.
	LocalSearchBudget int
	// WarmStart seeds the solver with an existing MBSP schedule (the
	// paper initializes its solver with the two-stage baseline). When
	// nil, Solve builds twostage.Baseline itself.
	WarmStart *mbsp.Schedule
	// Incumbent, when non-nil, is a read-only upper bound on the schedule
	// cost under Model (the portfolio's sealed baseline cost): Solve
	// prunes the branch-and-bound tree against it and never writes to
	// it. Costs are only comparable across solvers of the same instance
	// and model; the caller owns that invariant.
	Incumbent *mip.Incumbent
	// NeedBlue is the divide-and-conquer subproblems' boundary
	// condition: nodes (besides sinks) that must be blue at the end.
	NeedBlue []int
	// MIPWorkers bounds the goroutines solving branch-and-bound node
	// relaxations concurrently (mip.Options.Workers). The solver's
	// deterministic node accounting makes the schedule identical for any
	// value, so callers size it purely for throughput. Default 1.
	MIPWorkers int
	// NoPerturb disables the solver's deterministic EXPAND anti-degeneracy
	// perturbation (mip.Options.NoPerturb); exists for the degenerate-model
	// ablation benchmark.
	NoPerturb bool
	// Seed drives the local-search heuristic.
	Seed int64
	// Inject threads the deterministic fault-injection harness into the
	// branch-and-bound tree (mip.Options.Inject); nil disables injection.
	Inject *faultinject.Injector
	// LUStats, when non-nil, accumulates the LP factorization counters of
	// the tree search (mip.Options.LUStats): observability only, never
	// part of Stats (the counts depend on worker scheduling; Stats stays
	// byte-identical across MIPWorkers values).
	LUStats *lp.FactorStats
}

// Tree returns the branch-and-bound environment of every tree these
// options run, as set: Solve's and the divide-and-conquer partitioner's.
func (o Options) Tree() mip.Options {
	return mip.Options{
		Context:   o.Context,
		NodeLimit: o.NodeLimit,
		Workers:   o.MIPWorkers,
		NoPerturb: o.NoPerturb,
		Inject:    o.Inject,
		LUStats:   o.LUStats,
	}
}

func (o Options) withDefaults() Options {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.ExtraSteps == 0 {
		o.ExtraSteps = 2
	}
	if o.TimeLimit == 0 {
		o.TimeLimit = 10 * time.Second
	}
	if o.NodeLimit == 0 {
		o.NodeLimit = 5000
	}
	if o.MaxModelRows == 0 {
		o.MaxModelRows = mip.DefaultMaxModelRows
	}
	if o.LocalSearchBudget == 0 {
		o.LocalSearchBudget = 4000
	}
	return o
}

// Stats reports what the solver did. The embedded mip.Counters are the
// branch-and-bound tree's, zero when the tree search is skipped.
type Stats struct {
	ModelVars int
	ModelRows int
	Steps     int
	UsedILP   bool
	ILPStatus string
	mip.Counters
	LocalMoves  int
	WarmCost    float64
	FinalCost   float64
	Source      string // "ilp", "local-search", "exact-pebbler", or "warm-start"
	ProvedBound float64
}

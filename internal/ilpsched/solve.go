package ilpsched

import (
	"context"
	"fmt"

	"mbsp/internal/exact"
	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/refine"
	"mbsp/internal/twostage"
)

// Solve finds an MBSP schedule for g on arch with the holistic ILP-based
// method: it builds the ILP of Section 6 (when it fits MaxModelRows),
// warm-starts the branch-and-bound with the two-stage baseline (exactly
// as the paper seeds its solver), and runs a holistic local-search primal
// heuristic alongside. The returned schedule is always valid and never
// worse than the warm start under the selected cost model.
func Solve(g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, Stats, error) {
	return solve(g, arch, opts, false)
}

// solve is Solve; reference routes every tree-search relaxation through
// the dense reference LP (mip.Options.ReferenceLP), which the in-package
// cross-check compares the production stack against.
func solve(g *graph.DAG, arch mbsp.Arch, opts Options, reference bool) (*mbsp.Schedule, Stats, error) {
	opts = opts.withDefaults()
	var stats Stats

	warm, err := warmStart(g, arch, opts)
	if err != nil {
		return nil, stats, err
	}
	best := warm
	bestCost := warm.Cost(opts.Model)
	stats.WarmCost = bestCost
	stats.Source = "warm-start"

	skel, T, err := horizon(warm, arch, opts)
	if err != nil {
		return nil, stats, err
	}
	// Size the model before building it: an oversized one is never
	// allocated.
	stats.Steps = T
	stats.ModelVars, stats.ModelRows = modelSize(g, arch, opts, T)

	if stats.ModelRows <= opts.MaxModelRows {
		im := buildModel(g, arch, opts, T)
		x := im.assignment(skel)
		if im.m.CheckFeasible(x, 1e-6) != nil {
			x = nil // the encoding is rejected: solve cold
		}
		stats.UsedILP = true
		ctx, cancel := context.WithTimeout(opts.Context, opts.TimeLimit)
		run := opts.Tree()
		run.Context, run.WarmStart, run.ReferenceLP, run.SharedIncumbent = ctx, x, reference, opts.Incumbent
		res := im.m.Solve(run)
		cancel()
		stats.ILPStatus = res.Status.String()
		stats.Counters = res.Counters
		stats.ProvedBound = res.Bound
		if res.X != nil {
			if sched, err := im.extract(res.X); err == nil {
				if c := sched.Cost(opts.Model); c < bestCost {
					best, bestCost = sched, c
					stats.Source = "ilp"
				}
			}
		}
	} else {
		stats.ILPStatus = "skipped-model-too-large"
	}

	// Specialized exact backend: for single-processor instances small
	// enough for the configuration-space search (and without superstep
	// costs or subproblem boundary conditions), the red-blue pebbler
	// yields a provably optimal schedule — including recomputation
	// decisions the tree search rarely reaches.
	if arch.P == 1 && arch.L == 0 && g.N() <= exact.MaxNodes &&
		len(opts.NeedBlue) == 0 && opts.Context.Err() == nil {
		res, exErr := exact.SolveOpts(g, arch.R, arch.G, exact.Options{
			NoRecompute: opts.NoRecompute,
			StateBudget: 2_000_000,
		})
		if exErr == nil && res.Schedule.Validate() == nil {
			if c := res.Schedule.Cost(opts.Model); c < bestCost {
				best, bestCost = res.Schedule, c
				stats.Source = "exact-pebbler"
			}
		}
	}

	if arch.P > 1 {
		r := refine.Improve(best, refine.Options{
			Budget:    opts.LocalSearchBudget,
			Seed:      opts.Seed,
			Model:     opts.Model,
			ExtraSave: opts.NeedBlue,
			Context:   opts.Context,
		})
		stats.LocalMoves = r.Evals
		if r.Cost < bestCost-1e-9 {
			best, bestCost = r.Schedule, r.Cost
			stats.Source = "local-search"
		}
	}

	stats.FinalCost = bestCost
	if err := best.Validate(); err != nil {
		return nil, stats, fmt.Errorf("ilpsched: final schedule invalid: %w", err)
	}
	return best, stats, nil
}

// warmStart returns the validated warm start: opts.WarmStart, or the
// two-stage baseline when that is nil.
func warmStart(g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, error) {
	warm := opts.WarmStart
	if warm == nil {
		var err error
		warm, err = twostage.Baseline(arch).Run(g, arch, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("ilpsched: building baseline warm start: %w", err)
		}
	}
	if err := warm.Validate(); err != nil {
		return nil, fmt.Errorf("ilpsched: warm start invalid: %w", err)
	}
	return warm, nil
}

// horizon returns the warm start's skeleton and the time horizon the
// ILP is sized by: the warm start's steps plus slack.
func horizon(warm *mbsp.Schedule, arch mbsp.Arch, opts Options) ([]skelStep, int, error) {
	skel, err := buildSkeleton(warm)
	if err != nil {
		return nil, 0, err
	}
	if opts.NoStepMerging {
		skel = explodeSkeleton(skel, arch.P)
	}
	return skel, len(skel) + opts.ExtraSteps, nil
}

// Relaxation returns the LP relaxation of the ILP that Solve builds for
// g on arch under opts — the root LP of its tree search. The LP kernel
// benchmarks factor its bases.
func Relaxation(g *graph.DAG, arch mbsp.Arch, opts Options) (*lp.Problem, error) {
	opts = opts.withDefaults()
	warm, err := warmStart(g, arch, opts)
	if err != nil {
		return nil, err
	}
	_, T, err := horizon(warm, arch, opts)
	if err != nil {
		return nil, err
	}
	return buildModel(g, arch, opts, T).m.LP(), nil
}

package ilpsched

import (
	"fmt"
	"time"

	"mbsp/internal/exact"
	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/refine"
	"mbsp/internal/twostage"
)

// Solve finds an MBSP schedule for g on arch with the holistic ILP-based
// method: it builds the ILP of Section 6, warm-starts the branch-and-bound
// with the two-stage baseline (exactly as the paper seeds its solver), and
// runs a holistic local-search primal heuristic alongside. The returned
// schedule is always valid and never worse than the warm start under the
// selected cost model.
func Solve(g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	var stats Stats
	var done <-chan struct{}
	if opts.Context != nil {
		done = opts.Context.Done()
	}

	warm, err := warmStart(g, arch, opts)
	if err != nil {
		return nil, stats, err
	}
	best := warm
	bestCost := warm.Cost(opts.Model)
	stats.WarmCost = bestCost
	stats.Source = "warm-start"
	// Publish the baseline cost to the portfolio-wide incumbent: any
	// concurrent solver that cannot beat it may cut off immediately.
	opts.Incumbent.Offer(bestCost)

	skel, T, err := horizon(warm, arch, opts)
	if err != nil {
		return nil, stats, err
	}
	im := buildModel(g, arch, opts, T)
	stats.Steps = T
	stats.ModelVars = im.m.NumVars()
	stats.ModelRows = im.m.NumRows()

	if stats.ModelRows <= opts.MaxModelRows {
		x := im.assignment(skel)
		if err := im.m.CheckFeasible(x, 1e-6); err != nil {
			opts.Logf("ilpsched: warm-start encoding rejected (%v); solving cold", err)
			x = nil
		}
		stats.UsedILP = true
		res := im.m.Solve(mip.Options{
			TimeLimit:       opts.TimeLimit,
			NodeLimit:       opts.NodeLimit,
			WarmStart:       x,
			Logf:            opts.Logf,
			Cancel:          done,
			Workers:         opts.MIPWorkers,
			ColdStart:       opts.LPColdStart,
			ReferenceLP:     opts.LPReference,
			NoPerturb:       opts.NoPerturb,
			Inject:          opts.Inject,
			LUStats:         opts.LUStats,
			SharedIncumbent: opts.Incumbent,
			// Publish improving tree-search incumbents mid-search, but
			// only after extraction and validation: the shared bound must
			// carry real schedule costs, never raw model objectives.
			OnIncumbent: func(x []float64, obj float64) {
				if opts.Incumbent == nil {
					return
				}
				if sched, err := im.extract(x); err == nil && sched.Validate() == nil {
					opts.Incumbent.Offer(sched.Cost(opts.Model))
				}
			},
		})
		stats.ILPStatus = res.Status.String()
		stats.ILPNodes = res.Nodes
		stats.ILPLPs = res.LPs
		stats.SimplexIters = res.SimplexIters
		stats.WarmLPs = res.WarmLPs
		stats.ColdLPs = res.ColdLPs
		stats.PerturbedLPs = res.PerturbedLPs
		stats.CleanupIters = res.CleanupIters
		stats.ProvedBound = res.Bound
		if res.X != nil {
			if sched, err := im.extract(res.X); err == nil {
				if c := sched.Cost(opts.Model); c < bestCost {
					best, bestCost = sched, c
					stats.Source = "ilp"
				}
			} else {
				opts.Logf("ilpsched: extraction failed: %v", err)
			}
		}
	} else {
		stats.ILPStatus = "skipped-model-too-large"
		opts.Logf("ilpsched: model has %d rows (> %d), skipping tree search", stats.ModelRows, opts.MaxModelRows)
	}

	// Specialized exact backend: for single-processor instances small
	// enough for the configuration-space search (and without superstep
	// costs or subproblem boundary conditions), the red-blue pebbler
	// yields a provably optimal schedule — including recomputation
	// decisions the tree search rarely reaches.
	if arch.P == 1 && arch.L == 0 && g.N() <= exact.MaxNodes &&
		len(opts.InitialRed) == 0 && len(opts.NeedBlue) == 0 &&
		(opts.Context == nil || opts.Context.Err() == nil) {
		res, exErr := exact.SolveOpts(g, arch.R, arch.G, exact.Options{
			NoRecompute: opts.NoRecompute,
			StateBudget: 2_000_000,
		})
		if exErr == nil {
			if err := res.Schedule.Validate(); err == nil {
				if c := res.Schedule.Cost(opts.Model); c < bestCost {
					best, bestCost = res.Schedule, c
					stats.Source = "exact-pebbler"
				}
			}
		} else {
			opts.Logf("ilpsched: exact pebbler unavailable: %v", exErr)
		}
	}

	if !opts.DisableLocalSearch && arch.P > 1 && len(opts.InitialRed) == 0 {
		r := refine.Improve(best, refine.Options{
			Budget:    opts.LocalSearchBudget,
			Seed:      opts.Seed,
			Model:     opts.Model,
			ExtraSave: opts.NeedBlue,
			Cancel:    done,
		})
		stats.LocalMoves = r.Evals
		if r.Cost < bestCost-1e-9 {
			best, bestCost = r.Schedule, r.Cost
			stats.Source = "local-search"
		}
	}

	stats.FinalCost = bestCost
	stats.SolveTime = time.Since(start)
	if err := best.Validate(); err != nil {
		return nil, stats, fmt.Errorf("ilpsched: final schedule invalid: %w", err)
	}
	opts.Incumbent.Offer(bestCost)
	return best, stats, nil
}

// warmStart returns the validated warm start: opts.WarmStart, or the
// two-stage baseline when that is nil.
func warmStart(g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, error) {
	warm := opts.WarmStart
	if warm == nil {
		pl := twostage.BSPgClairvoyant(arch.G, arch.L)
		if arch.P == 1 {
			pl = twostage.DFSClairvoyant()
		}
		var err error
		warm, err = pl.Run(g, arch)
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
	skel, err := buildSkeleton(warm, opts.InitialRed)
	if err != nil {
		return nil, 0, err
	}
	if opts.NoStepMerging {
		skel = explodeSkeleton(skel, arch.P)
	}
	T := len(skel) + opts.ExtraSteps
	if opts.Steps > 0 {
		T = opts.Steps
	}
	return skel, T, nil
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

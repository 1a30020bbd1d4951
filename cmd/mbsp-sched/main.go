// Command mbsp-sched schedules a computational DAG on an MBSP
// architecture and prints the schedule and its cost.
//
// Usage:
//
//	mbsp-sched -dag file.dag | -instance spmv_N6
//	           [-method base|cilk|ilp|dnc|exact]
//	           [-portfolio] [-workers 0] [-mip-workers 0]
//	           [-solver-stats]
//	           [-p 4] [-rfactor 3] [-r 0] [-g 1] [-l 10]
//	           [-model sync|async] [-timeout 5s] [-print] [-json]
//
// With -portfolio, every applicable scheduler races concurrently over a
// bounded worker pool and the cheapest valid schedule wins; -method is
// then ignored. -solver-stats prints the solver-core
// counters (simplex iterations, warm vs cold LP re-solves, injected
// faults, recovered panics) for the ILP-based methods. -mip-workers
// sizes the worker pool *inside* each branch-and-bound tree (parallel
// node relaxations): schedules are byte-identical for any value thanks
// to the solver's deterministic node accounting, so the knob trades
// goroutines for throughput only. 0 picks GOMAXPROCS for -method ilp/dnc
// and an automatic candidate/tree split under -portfolio. -fault-seed
// injects faults into the portfolio or the single method's trees. The
// DAG comes either from a text file (see internal/graph format) or from
// a named benchmark instance.
//
// With -json, stdout carries a single JSON document in the same shape as
// the scheduling server's POST /v1/schedule response (modulo the
// server-only cache stamp); the human-readable progress lines move to
// stderr. A single method with a fixed seed emits byte-identical JSON
// on every invocation, which is what makes CLI and server output
// diffable. -portfolio sets no node limit, so its candidates stop on
// wall-clock budgets (-timeout, the divide-and-conquer partitioning
// clock) and its JSON repeats only when no budget binds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mbsp"
)

func main() {
	var (
		dagFile   = flag.String("dag", "", "DAG file in the text format")
		instance  = flag.String("instance", "", "named benchmark instance (e.g. spmv_N6)")
		method    = flag.String("method", "ilp", "scheduler: base, cilk, ilp, dnc, exact")
		p         = flag.Int("p", 4, "number of processors")
		rfactor   = flag.Float64("rfactor", 3, "fast memory capacity as a multiple of r0")
		rabs      = flag.Float64("r", 0, "absolute fast memory capacity, ≥ 0 (overrides -rfactor; 0: use -rfactor)")
		gcost     = flag.Float64("g", 1, "communication cost per memory unit")
		lcost     = flag.Float64("l", 10, "synchronization cost per superstep")
		model     = flag.String("model", "sync", "cost model: sync or async")
		timeout   = flag.Duration("timeout", 5*time.Second, "solver time limit")
		print     = flag.Bool("print", false, "print the full schedule")
		seed      = flag.Int64("seed", 1, "random seed for heuristics")
		pfolio    = flag.Bool("portfolio", false, "race all applicable schedulers concurrently and keep the best")
		workers   = flag.Int("workers", 0, "portfolio worker pool size (0: GOMAXPROCS)")
		mipWork   = flag.Int("mip-workers", 0, "worker pool size inside each branch-and-bound tree; results are identical for any value (0: GOMAXPROCS for -method ilp/dnc, automatic budget under -portfolio)")
		solvStats = flag.Bool("solver-stats", false, "print solver-core counters (simplex iterations, warm/cold LP re-solves, injected faults, recovered panics) for ILP-based methods")
		deadline  = flag.Duration("deadline", 0, "overall wall-clock deadline (0: none); under -portfolio the run degrades gracefully and still prints the best schedule found, -method ilp keeps its best schedule so far, and a deadline that cuts -method dnc during partitioning or between parts exits with its error")
		faultSeed = flag.Uint64("fault-seed", 0, "enable the deterministic fault-injection harness with this seed (0: off); same seed, same faults")
		faultMode = flag.String("fault-modes", "all", "comma-separated injected fault classes: cold, singular, latency, cancel, or all")
		faultRate = flag.Float64("fault-rate", 0, "per-decision injection probability (0: default)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON on stdout (the server response shape); progress lines go to stderr")
	)
	flag.Parse()

	// Under -json, stdout is reserved for the single JSON document.
	var info io.Writer = os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	g, err := loadDAG(*dagFile, *instance)
	if err != nil {
		fatal(err)
	}
	if *rabs < 0 {
		fatal(fmt.Errorf("bad -r %g: must be ≥ 0 (0: use -rfactor)", *rabs))
	}
	r := *rfactor * g.MinCache()
	if *rabs > 0 {
		r = *rabs
	}
	arch := mbsp.Arch{P: *p, R: r, G: *gcost, L: *lcost}
	var costModel mbsp.CostModel
	switch *model {
	case "sync":
		costModel = mbsp.Sync
	case "async":
		costModel = mbsp.Async
	default:
		fatal(fmt.Errorf("bad -model %q (sync|async)", *model))
	}
	fmt.Fprintf(info, "dag %s: n=%d m=%d r0=%g\n", g.Name(), g.N(), g.M(), g.MinCache())
	fmt.Fprintf(info, "arch %v, model %v\n", arch, costModel)

	var inject *mbsp.FaultInjector
	if *faultSeed != 0 {
		modes, merr := mbsp.ParseFaultModes(*faultMode)
		if merr != nil {
			fatal(merr)
		}
		inject = mbsp.NewFaultInjector(*faultSeed, *faultRate, 0, modes...)
		fmt.Fprintf(info, "fault injection: %v\n", inject)
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var s *mbsp.Schedule
	var res *mbsp.PortfolioResult
	winner := *method
	opts := mbsp.ILPOptions{Model: costModel, TimeLimit: *timeout,
		Seed: *seed, MIPWorkers: *mipWork, Inject: inject}
	if *pfolio {
		var perr error
		res, perr = mbsp.SchedulePortfolio(ctx, g, arch, mbsp.PortfolioOptions{
			Workers: *workers,
			ILP:     opts,
		})
		if perr != nil {
			// Anytime contract: only an instance that admits no valid
			// schedule at all (or unusable options) reaches this fatal.
			fatal(perr)
		}
		fmt.Fprintf(info, "portfolio: %d candidates, %d workers, %.2fs total\n",
			len(res.Candidates), res.Workers, res.Elapsed.Seconds())
		for _, c := range res.Candidates {
			if c.Err != nil {
				fmt.Fprintf(info, "  %-18s failed: %v\n", c.Name, c.Err)
				continue
			}
			marker := " "
			if c.Name == res.BestName {
				marker = "*"
			}
			note := ""
			if c.Degraded {
				note = " [degraded]"
			}
			fmt.Fprintf(info, "  %s %-16s cost %-12g (sync %g, async %g) in %.3fs%s\n",
				marker, c.Name, c.Cost, c.SyncCost, c.AsyncCost, c.Elapsed.Seconds(), note)
		}
		fmt.Fprintf(info, "certificate: %v\n", res.Certificate)
		for _, f := range res.Certificate.Failed {
			fmt.Fprintf(info, "  failure %-16s %s\n", f.Candidate, f.Kind)
		}
		s = res.Best
		winner = res.BestName
	} else {
		opts.Context = ctx
		if opts.MIPWorkers == 0 {
			opts.MIPWorkers = runtime.GOMAXPROCS(0)
		}
		s, err = runMethod(info, *method, g, arch, opts, *solvStats)
		if err != nil {
			fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		fatal(fmt.Errorf("produced schedule invalid: %w", err))
	}
	fmt.Fprintf(info, "supersteps: %d\n", s.NumSupersteps())
	comp, save, load, del := s.Ops()
	fmt.Fprintf(info, "ops: %d computes, %d saves, %d loads, %d deletes\n", comp, save, load, del)
	fmt.Fprintf(info, "sync cost:  %g\n", s.SyncCost())
	fmt.Fprintf(info, "async cost: %g\n", s.AsyncCost())
	if *jsonOut {
		var resp *mbsp.ScheduleResponse
		if res != nil {
			resp, err = mbsp.NewPortfolioResponse(g, arch, costModel, res)
		} else {
			resp, err = mbsp.NewScheduleResponse(g, arch, costModel, winner, s)
		}
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatal(err)
		}
	} else if *print {
		fmt.Print(s)
	}
}

// runMethod runs one scheduler under opts (cilk reads only its Seed).
func runMethod(info io.Writer, method string, g *mbsp.DAG, arch mbsp.Arch, opts mbsp.ILPOptions, solvStats bool) (*mbsp.Schedule, error) {
	var s *mbsp.Schedule
	var err error
	switch method {
	case "base":
		s, err = mbsp.ScheduleBaseline(g, arch)
	case "cilk":
		s, err = mbsp.ScheduleCilkLRU(g, arch, opts.Seed)
	case "ilp":
		var stats mbsp.ILPStats
		s, stats, err = mbsp.ScheduleILP(g, arch, opts)
		if err == nil {
			fmt.Fprintf(info, "ilp: vars=%d rows=%d status=%s nodes=%d warm=%g final=%g source=%s\n",
				stats.ModelVars, stats.ModelRows, stats.ILPStatus, stats.ILPNodes,
				stats.WarmCost, stats.FinalCost, stats.Source)
			if solvStats {
				fmt.Fprintf(info, "solver: simplex-iters=%d lp-resolves warm=%d cold=%d faults=%d panics=%d\n",
					stats.SimplexIters, stats.WarmLPs, stats.ColdLPs, stats.InjectedFaults, stats.Panics)
			}
		}
	case "dnc":
		var stats mbsp.DNCStats
		s, stats, err = mbsp.ScheduleDNC(g, arch, 0, opts)
		if err == nil {
			fmt.Fprintf(info, "dnc: parts=%d cut=%d streamline-win=%g\n",
				stats.Parts, stats.CutEdges, stats.StreamlineWin)
			if solvStats {
				all := stats.PartitionSolver
				all.Add(stats.SubILPs)
				fmt.Fprintf(info, "solver: simplex-iters=%d (partition %d) lp-resolves warm=%d cold=%d faults=%d panics=%d\n",
					all.SimplexIters, stats.PartitionSolver.SimplexIters, all.WarmLPs, all.ColdLPs, all.InjectedFaults, all.Panics)
			}
		}
	case "exact":
		var res mbsp.ExactResult
		res, err = mbsp.SolveExactP1(g, arch.R, arch.G)
		if err == nil {
			s = res.Schedule
			fmt.Fprintf(info, "exact: optimal cost %g (%d states explored)\n", res.Cost, res.States)
		}
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
	return s, err
}

func loadDAG(file, instance string) (*mbsp.DAG, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mbsp.ReadDAG(f)
	case instance != "":
		inst, err := mbsp.InstanceByName(instance)
		if err != nil {
			return nil, err
		}
		return inst.DAG, nil
	default:
		return nil, fmt.Errorf("provide -dag or -instance")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbsp-sched:", err)
	os.Exit(1)
}

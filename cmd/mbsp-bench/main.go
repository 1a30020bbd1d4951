// Command mbsp-bench reproduces the paper's evaluation: Tables 1–4,
// Figure 4, and the single-processor experiment, on the bundled datasets.
//
// Usage:
//
//	mbsp-bench [-experiment all|table1|table2|table3|table4|figure4|p1|portfolio|solver|chaos]
//	           [-dataset tiny|paper-tiny|paper-small] [-timeout 2s] [-budget 2000]
//	           [-workers 0] [-mip-workers 0]
//	           [-deadline 0] [-fault-seed 0] [-fault-modes all] [-fault-rate 0]
//	           [-checkpoint cells.ckpt] [-csv out.csv] [-json out.json]
//	           [-baseline old.json]
//
// The experiment grid (instances × methods) runs concurrently over
// -workers goroutines (0: GOMAXPROCS) with deterministic, ordered result
// collection; the default is sequential because concurrent solvers share
// the wall clock, making time-limited ILP numbers incomparable with
// sequential runs. -mip-workers additionally parallelizes the node
// relaxations *inside* each branch-and-bound tree; unlike -workers it
// never changes any result (deterministic node accounting in the
// solver). -checkpoint journals every completed grid cell to a
// crash-safe record log (internal/persist) and resumes completed cells
// on rerun: a killed grid run picks up where it left off and renders
// the identical merged table. The portfolio experiment races every applicable scheduler
// per instance and reports per-scheduler cost/timing; -json writes its
// results as JSON (scripts/verify.sh tracks BENCH_portfolio.json across
// PRs). The solver experiment measures the warm-started solver core:
// total simplex iterations across the branch-and-bound trees the
// registry workloads search, warm-started versus cold-started, failing
// if the warm path stops winning or proven-optimal results diverge — and
// the chaos experiment runs the anytime portfolio under a short -deadline
// with every fault-injection mode enabled in turn (-fault-seed seeds the
// deterministic harness), failing unless every instance still yields a
// valid schedule with a populated certificate — and
// the parallel engine: the same trees re-searched serially versus with a
// -mip-workers pool (default 4), failing on any divergence in partition,
// node count or iteration count, and on a node-throughput regression
// against -baseline (scripts/bench.sh tracks BENCH_solver.json). Budgets
// default to second-scale runs; raise -timeout and -budget (and use
// -dataset paper-tiny or paper-small) for runs closer to the paper's
// 60-minute solver budget.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"mbsp/internal/experiments"
	"mbsp/internal/faultinject"
	"mbsp/internal/ilpsched"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/partition"
	"mbsp/internal/portfolio"
	"mbsp/internal/workloads"
)

func main() {
	cfg := experiments.Base()
	var (
		exp       = flag.String("experiment", "all", "which experiment: all, table1, table2, table3, table4, figure4, p1, portfolio, solver, chaos")
		dataset   = flag.String("dataset", "tiny", "dataset for table1/3/4/figure4/portfolio/solver: tiny, paper-tiny or paper-small")
		timeout   = flag.Duration("timeout", cfg.ILP.TimeLimit, "ILP time limit per instance")
		budget    = flag.Int("budget", cfg.ILP.LocalSearchBudget, "local-search evaluation budget")
		seed      = flag.Int64("seed", cfg.ILP.Seed, "random seed")
		workers   = flag.Int("workers", 1, "concurrent grid cells / portfolio schedulers (0: GOMAXPROCS); default sequential — concurrent solvers share the wall clock, so parallel table numbers are not comparable with sequential runs")
		mipWork   = flag.Int("mip-workers", 0, "worker pool size inside each branch-and-bound tree; never changes results (0: serial for the grid, automatic budget for portfolio, 4 for the solver experiment's parallel leg)")
		deadline  = flag.Duration("deadline", 0, "wall-clock deadline per portfolio/chaos instance; runs degrade gracefully instead of failing (0: none)")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for the deterministic fault-injection harness (0: off for portfolio, 1 for chaos); same seed, same faults")
		faultMode = flag.String("fault-modes", "all", "comma-separated injected fault classes: cold, singular, latency, cancel, torn, short, flip, solver, fs, or all")
		faultRate = flag.Float64("fault-rate", 0, "per-decision injection probability (0: default)")
		chkpt     = flag.String("checkpoint", "", "journal completed (instance, method) grid cells to this file and resume them on rerun; tables render identically whether a cell was computed or resumed")
		csvOut    = flag.String("csv", "", "also write the last table as CSV to this file")
		jsonOut   = flag.String("json", "", "write portfolio/solver experiment results as JSON to this file")
		baseline  = flag.String("baseline", "", "previous solver-experiment JSON: fail if the parallel node-throughput speedup regresses against it")
	)
	flag.Parse()

	cfg.ILP.TimeLimit = *timeout
	cfg.ILP.LocalSearchBudget = *budget
	cfg.ILP.Seed = *seed
	cfg.ILP.MIPWorkers = *mipWork
	cfg.Workers = *workers

	if *chkpt != "" {
		cp, err := experiments.OpenCheckpoint(*chkpt)
		if err != nil {
			fatal(err)
		}
		defer cp.Close()
		if cp.Restored() > 0 || cp.Corrupt() > 0 {
			fmt.Printf("checkpoint %s: resuming %d completed cells (%d corrupt records dropped)\n",
				*chkpt, cp.Restored(), cp.Corrupt())
		}
		cfg.Checkpoint = cp
	}

	var insts []workloads.Instance
	switch *dataset {
	case "tiny":
		insts = workloads.Tiny()
	case "paper-tiny":
		insts = workloads.PaperTiny()
	case "paper-small":
		insts = workloads.PaperSmall()
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}

	var last *experiments.Table
	run := func(name string, f func() (*experiments.Table, error)) {
		start := time.Now()
		t, err := f()
		if err != nil {
			fatal(err)
		}
		t.Render(os.Stdout)
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
		last = t
	}

	switch *exp {
	case "all":
		run("table1", func() (*experiments.Table, error) { return experiments.Table1(insts, cfg) })
		run("table3", func() (*experiments.Table, error) { return experiments.Table3(insts, cfg) })
		runTable4(insts, cfg)
		runFigure4(insts, cfg)
		run("table2", func() (*experiments.Table, error) { return experiments.Table2(workloads.Small(), cfg, 45) })
		run("p1", func() (*experiments.Table, error) { return experiments.SingleProcessor(insts, cfg) })
	case "table1":
		run("table1", func() (*experiments.Table, error) { return experiments.Table1(insts, cfg) })
	case "table2":
		run("table2", func() (*experiments.Table, error) { return experiments.Table2(workloads.Small(), cfg, 45) })
	case "table3":
		run("table3", func() (*experiments.Table, error) { return experiments.Table3(insts, cfg) })
	case "table4":
		runTable4(insts, cfg)
	case "figure4":
		runFigure4(insts, cfg)
	case "p1":
		run("p1", func() (*experiments.Table, error) { return experiments.SingleProcessor(insts, cfg) })
	case "portfolio":
		if *faultSeed != 0 {
			cfg.ILP.Inject = mustInjector(*faultSeed, *faultRate, *faultMode)
		}
		runPortfolio(insts, cfg, *dataset, *deadline, *jsonOut)
	case "solver":
		runSolver(insts, *dataset, *timeout, *mipWork, *jsonOut, *baseline)
	case "chaos":
		seed := *faultSeed
		if seed == 0 {
			seed = 1
		}
		runChaos(insts, cfg, *deadline, seed, *faultRate, *faultMode)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}

	if *csvOut != "" && last != nil {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := last.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *csvOut)
	}
}

func runTable4(insts []workloads.Instance, cfg experiments.Config) {
	start := time.Now()
	tables, err := experiments.Table4(insts, cfg)
	if err != nil {
		fatal(err)
	}
	for _, v := range experiments.Table4Variants() {
		tables[v.Label].Render(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("(table4 took %.1fs)\n\n", time.Since(start).Seconds())
}

func runFigure4(insts []workloads.Instance, cfg experiments.Config) {
	start := time.Now()
	boxes, err := experiments.Figure4(insts, cfg)
	if err != nil {
		fatal(err)
	}
	experiments.RenderBoxes(os.Stdout, boxes)
	fmt.Printf("(figure4 took %.1fs)\n\n", time.Since(start).Seconds())
}

// portfolioJSON is the schema of -json output: one entry per instance
// plus aggregate timing, consumed by scripts/verify.sh to track the
// portfolio's performance trajectory across PRs.
type portfolioJSON struct {
	Dataset      string                  `json:"dataset"`
	Workers      int                     `json:"workers"`
	ILPTimeLimit string                  `json:"ilp_time_limit"`
	Seed         int64                   `json:"seed"`
	TotalSec     float64                 `json:"total_seconds"`
	Instances    []portfolioInstanceJSON `json:"instances"`
}

type portfolioInstanceJSON struct {
	Instance   string               `json:"instance"`
	Best       string               `json:"best"`
	BestCost   float64              `json:"best_cost"`
	ElapsedSec float64              `json:"elapsed_seconds"`
	Rung       string               `json:"rung,omitempty"`
	Gap        float64              `json:"gap,omitempty"`
	Failed     int                  `json:"failed,omitempty"`
	Candidates []portfolioCandsJSON `json:"candidates"`
}

type portfolioCandsJSON struct {
	Name       string  `json:"name"`
	Cost       float64 `json:"cost,omitempty"`
	ElapsedSec float64 `json:"elapsed_seconds"`
	Error      string  `json:"error,omitempty"`
}

// runPortfolio races the full scheduler portfolio on every instance under
// the anytime contract and reports per-scheduler cost and timing plus the
// win distribution; with -deadline or -fault-seed set, degraded runs still
// produce a schedule and the certificate ledger is reported.
func runPortfolio(insts []workloads.Instance, cfg experiments.Config, dataset string, deadline time.Duration, jsonPath string) {
	start := time.Now()
	out := portfolioJSON{
		Dataset:      dataset,
		ILPTimeLimit: cfg.ILP.TimeLimit.String(), Seed: cfg.ILP.Seed,
	}
	opts := cfg.Portfolio()
	wins := map[string]int{}
	fmt.Println("Portfolio: best-of-all-schedulers per instance")
	if opts.ILP.Inject != nil {
		fmt.Printf("fault injection: %v\n", opts.ILP.Inject)
	}
	fmt.Printf("%-20s%-18s%14s%10s\n", "Instance", "winner", "cost", "time")
	for _, inst := range insts {
		arch := cfg.Arch(inst.DAG)
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, deadline)
		}
		res, err := portfolio.RunAnytime(ctx, inst.DAG, arch, opts)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("portfolio on %s: %w", inst.Name, err))
		}
		out.Workers = res.Workers
		wins[res.BestName]++
		fmt.Printf("%-20s%-18s%14.4g%9.2fs\n", inst.Name, res.BestName, res.BestCost, res.Elapsed.Seconds())
		entry := portfolioInstanceJSON{
			Instance: inst.Name, Best: res.BestName, BestCost: res.BestCost,
			ElapsedSec: res.Elapsed.Seconds(),
		}
		cert := res.Certificate
		entry.Rung, entry.Gap, entry.Failed = cert.Rung, cert.Gap, len(cert.Failed)
		if cert.FallbackUsed || len(cert.Failed) > 0 {
			fmt.Printf("  certificate: %v\n", cert)
		}
		for _, c := range res.Candidates {
			cj := portfolioCandsJSON{Name: c.Name, ElapsedSec: c.Elapsed.Seconds()}
			if c.Err != nil {
				cj.Error = c.Err.Error()
			} else {
				cj.Cost = c.Cost
			}
			entry.Candidates = append(entry.Candidates, cj)
		}
		out.Instances = append(out.Instances, entry)
	}
	out.TotalSec = time.Since(start).Seconds()
	fmt.Printf("wins by scheduler: %v\n", wins)
	fmt.Printf("(portfolio took %.1fs)\n\n", out.TotalSec)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", jsonPath)
	}
}

// mustInjector builds a fault injector from the CLI flags or exits.
func mustInjector(seed uint64, rate float64, modeList string) *faultinject.Injector {
	modes, err := faultinject.ParseModes(modeList)
	if err != nil {
		fatal(err)
	}
	return faultinject.New(seed, rate, 0, modes...)
}

// runChaos is the acceptance harness for the anytime contract: for every
// enabled fault-injection mode in turn (and once with all modes at once
// when more than one is enabled), it runs the anytime portfolio on every
// instance under a short wall-clock deadline and fails unless each run
// returns a valid schedule with a populated certificate — never an error.
// The injector is seeded, so a failing (mode, instance, seed) triple
// reproduces exactly. A run that returns more than chaosMaxOverrun after
// its deadline also fails: degrading is only graceful if it is prompt.
func runChaos(insts []workloads.Instance, cfg experiments.Config, deadline time.Duration, seed uint64, rate float64, modeList string) {
	if deadline <= 0 {
		deadline = 50 * time.Millisecond
	}
	parsed, err := faultinject.ParseModes(modeList)
	if err != nil {
		fatal(err)
	}
	// The portfolio never consults the filesystem modes (those belong to
	// internal/persist, exercised by crash_smoke.sh and the persist
	// tests), so legs injecting only them would assert nothing here.
	var modes []faultinject.Mode
	for _, m := range parsed {
		switch m {
		case faultinject.TornWrite, faultinject.ShortWrite, faultinject.ChecksumFlip:
			fmt.Printf("note: skipping filesystem fault mode %v (not consumed by the portfolio; see crash_smoke.sh)\n", m)
		default:
			modes = append(modes, m)
		}
	}
	if len(modes) == 0 {
		fatal(fmt.Errorf("chaos experiment: no solver fault modes selected (got %q)", modeList))
	}
	legs := make([][]faultinject.Mode, 0, len(modes)+1)
	for _, m := range modes {
		legs = append(legs, []faultinject.Mode{m})
	}
	if len(modes) > 1 {
		legs = append(legs, modes)
	}
	start := time.Now()
	failures := 0
	var worst time.Duration
	worstName := ""
	fmt.Printf("Chaos: anytime portfolio under %v deadline, fault seed %d\n", deadline, seed)
	opts := cfg.Portfolio()
	for _, leg := range legs {
		opts.ILP.Inject = faultinject.New(seed, rate, 0, leg...)
		fmt.Printf("-- injecting %v\n", opts.ILP.Inject)
		for _, inst := range insts {
			arch := cfg.Arch(inst.DAG)
			runStart := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			res, err := portfolio.RunAnytime(ctx, inst.DAG, arch, opts)
			cancel()
			overrun := time.Since(runStart) - deadline
			if overrun > worst {
				worst, worstName = overrun, inst.Name
			}
			if overrun > chaosMaxOverrun {
				fmt.Printf("%-20s DEADLINE VIOLATION: returned %v after its %v deadline\n",
					inst.Name, overrun.Round(time.Millisecond), deadline)
				failures++
				continue
			}
			switch {
			case err != nil:
				fmt.Printf("%-20s ANYTIME VIOLATION: error %v\n", inst.Name, err)
				failures++
				continue
			case res.Best == nil:
				fmt.Printf("%-20s ANYTIME VIOLATION: nil schedule\n", inst.Name)
				failures++
				continue
			case res.Certificate == nil:
				fmt.Printf("%-20s ANYTIME VIOLATION: nil certificate\n", inst.Name)
				failures++
				continue
			}
			if verr := res.Best.Validate(); verr != nil {
				fmt.Printf("%-20s ANYTIME VIOLATION: invalid schedule: %v\n", inst.Name, verr)
				failures++
				continue
			}
			fmt.Printf("%-20s%-18s %v\n", inst.Name, res.BestName, res.Certificate)
		}
	}
	fmt.Printf("worst overrun past the deadline: %v (%s)\n", worst.Round(time.Millisecond), worstName)
	fmt.Printf("(chaos took %.1fs)\n\n", time.Since(start).Seconds())
	if failures > 0 {
		fatal(fmt.Errorf("chaos experiment: %d anytime-contract violations", failures))
	}
}

// chaosMaxOverrun is how long after its deadline a chaos run may return.
// It is a constant rather than a flag so no leg can loosen it; it is
// generous enough for -race and a loaded CI host, yet far below what an
// unpropagated cancellation costs (seconds of branch and bound).
const chaosMaxOverrun = 2 * time.Second

// solverJSON is the schema of the solver experiment's -json output
// (scripts/bench.sh tracks BENCH_solver.json across PRs): total simplex
// iterations across the branch-and-bound trees the dataset's workloads
// search — the warm-started dual-simplex path versus the cold-start
// ablation — plus the parallel tree-search leg: the same trees searched
// serially versus with a bounded worker pool, which must agree node for
// node (deterministic node accounting) while lifting node throughput.
type solverJSON struct {
	Dataset                string               `json:"dataset"`
	WarmIters              int                  `json:"warm_simplex_iters"`
	ColdIters              int                  `json:"cold_simplex_iters"`
	SpeedupIters           float64              `json:"iteration_speedup"`
	WarmSeconds            float64              `json:"warm_seconds"`
	ColdSeconds            float64              `json:"cold_seconds"`
	WarmLPs                int                  `json:"warm_lps"`
	ColdRestartLPs         int                  `json:"cold_restart_lps"`
	WarmRefactors          int64                `json:"warm_refactors"` // serial warm trees only (see runSolver)
	GoMaxProcs             int                  `json:"gomaxprocs"`
	ParallelWorkers        int                  `json:"parallel_workers"`
	BBNodes                int                  `json:"bb_nodes"`
	SerialSeconds          float64              `json:"serial_seconds"`
	ParallelSeconds        float64              `json:"parallel_seconds"`
	SerialNodeThroughput   float64              `json:"serial_node_throughput"`
	ParallelNodeThroughput float64              `json:"parallel_node_throughput"`
	ParallelSpeedup        float64              `json:"parallel_speedup"`
	Degenerate             *degenerateJSON      `json:"degenerate,omitempty"`
	LU                     *luJSON              `json:"lu,omitempty"`
	Instances              []solverInstanceJSON `json:"instances"`
}

// degenerateJSON records the degenerate-model leg: the P=1 k-means
// scheduling ILP whose massively degenerate relaxations used to stall
// the warm dual re-solves into cold fallbacks (the ROADMAP open item
// fixed by the Harris/BFRT ratio tests + EXPAND perturbation in
// internal/lp). The node limit binds, so every count is deterministic;
// the no-perturbation ablation re-searches the same tree with
// perturbation off to keep the before/after ratio visible across PRs.
type degenerateJSON struct {
	Instance       string  `json:"instance"`
	BBNodes        int     `json:"bb_nodes"`
	SimplexIters   int     `json:"simplex_iters"`
	CleanupIters   int     `json:"cleanup_iters"`
	WarmLPs        int     `json:"warm_lps"`
	ColdLPs        int     `json:"cold_lps"`
	PerturbedLPs   int     `json:"perturbed_lps"`
	NoPerturbIters int     `json:"noperturb_simplex_iters"`
	NoPerturbCold  int     `json:"noperturb_cold_lps"`
	Seconds        float64 `json:"seconds"`
}

// luJSON records the sparse-LU leg: a registry scheduling model beyond
// the former dense-inverse row ceiling (3000) enters tree search under a
// binding node limit, and the factorization counters — fill-in,
// refactorization count, eta updates, eta, triangular and PRICE terms
// and columns scanned, hot/replay reuse, and the share of wall time spent in
// triangular solves — are tracked across PRs. The
// node limit binds, so every count except the timings is deterministic.
type luJSON struct {
	Instance      string  `json:"instance"`
	ModelRows     int     `json:"model_rows"`
	BBNodes       int     `json:"bb_nodes"`
	SimplexIters  int     `json:"simplex_iters"`
	Refactors     int64   `json:"refactors"`
	Replays       int64   `json:"replays"`
	HotSolves     int64   `json:"hot_solves"`
	EtaPivots     int64   `json:"eta_pivots"`
	Ftrans        int64   `json:"ftrans"`
	Btrans        int64   `json:"btrans"`
	EtaTerms      int64   `json:"eta_terms"`   // eta entries the FTRAN/BTRAN eta passes visited
	TriTerms      int64   `json:"tri_terms"`   // stages and factor entries the L and U passes visited
	PriceTerms    int64   `json:"price_terms"` // matrix entries PRICE visited
	ScanCols      int64   `json:"scan_cols"`   // columns pricing, the Devex update and the dual's entering scan visited
	FillNnz       int64   `json:"fill_nnz"`
	BasisNnz      int64   `json:"basis_nnz"`
	FillRatio     float64 `json:"fill_ratio"`
	FactorSeconds float64 `json:"factor_seconds"`
	SolveSeconds  float64 `json:"solve_seconds"` // FTRAN + BTRAN time
	FtranShare    float64 `json:"ftran_time_share"`
	Seconds       float64 `json:"seconds"`
}

type solverInstanceJSON struct {
	Instance  string  `json:"instance"`
	Nodes     int     `json:"nodes"`
	WarmIters int     `json:"warm_simplex_iters"`
	ColdIters int     `json:"cold_simplex_iters"`
	Ratio     float64 `json:"iteration_ratio"`
	WarmCut   int     `json:"warm_cut"`
	ColdCut   int     `json:"cold_cut"`
	Optimal   bool    `json:"both_proven_optimal"`
	// Parallel leg: identical trees by construction, so only size and
	// timing (medians of solverTimingSamples searches per side) are
	// recorded.
	BBNodes         int     `json:"bb_nodes"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
}

// solverTimingSamples is the number of serial and of parallel searches
// of each tree in the solver experiment's parallel leg; the timing fields
// record their medians.
const solverTimingSamples = 5

// median returns the median of an odd number of samples, sorting xs in
// place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// runSolver measures the warm-started solver core on the branch-and-bound
// trees the dataset's workloads actually search — the DnC partitioning
// ILPs — and cross-checks the two paths: proven-optimal cut sizes must
// agree, and the warm path must use fewer total simplex iterations. It
// then re-searches the same trees serially and with a parallel worker
// pool, alternating, with the warm leg — which is exactly the serial
// engine — as the first serial sample: every parallel run must agree bit
// for bit with it (partition, node count, iteration count — the
// deterministic-node-accounting gate), and the median parallel node
// throughput is recorded and compared against -baseline. Any
// divergence or regression exits nonzero, so scripts/verify.sh can gate
// on it.
func runSolver(insts []workloads.Instance, dataset string, timeout time.Duration, mipWorkers int, jsonPath, baselinePath string) {
	if mipWorkers <= 0 {
		mipWorkers = 4
	}
	out := solverJSON{Dataset: dataset, GoMaxProcs: runtime.GOMAXPROCS(0), ParallelWorkers: mipWorkers}
	fmt.Println("Solver core: warm-started vs cold-started branch and bound")
	fmt.Printf("%-20s%6s%12s%12s%8s%10s\n", "Instance", "n", "warm-iters", "cold-iters", "ratio", "cut w/c")
	diverged := false
	parDiverged := false
	// The regression gate only compares instances both paths solved to
	// proven optimality: a clock-truncated run reports a truncated
	// iteration count for a different tree, which would make the
	// comparison meaningless either way.
	gateWarm, gateCold := 0, 0
	// bipartition searches inst's tree once: the default node limit binds
	// deterministically, and the -timeout clock is a backstop.
	bipartition := func(inst workloads.Instance, leg string, run mip.Options) ([]int, int, mip.Result, time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		run.Context, run.NodeLimit = ctx, 20000
		t0 := time.Now()
		part, cut, res, err := partition.Bipartition(inst.DAG, run)
		if err != nil {
			fatal(fmt.Errorf("solver experiment on %s (%s): %w", inst.Name, leg, err))
		}
		return part, cut, res, time.Since(t0)
	}
	for _, inst := range insts {
		if inst.DAG.N() < portfolio.DNCMinNodes {
			continue // below the portfolio's DnC gate; no partitioning tree
		}
		// The serial warm tree's refactorizations are deterministic (the
		// parallel trees' depend on which worker solves which node), so
		// only they feed warm_refactors and its baseline gate.
		var warmLU lp.FactorStats
		warmPart, warmCut, warm, warmElapsed := bipartition(inst, "warm", mip.Options{LUStats: &warmLU})
		out.WarmSeconds += warmElapsed.Seconds()
		_, coldCut, cold, coldElapsed := bipartition(inst, "cold", mip.Options{ColdStart: true})
		out.ColdSeconds += coldElapsed.Seconds()
		warmOpt, coldOpt := warm.Status == mip.Optimal, cold.Status == mip.Optimal
		entry := solverInstanceJSON{
			Instance: inst.Name, Nodes: inst.DAG.N(),
			WarmIters: warm.SimplexIters, ColdIters: cold.SimplexIters,
			WarmCut: warmCut, ColdCut: coldCut, Optimal: warmOpt && coldOpt,
		}
		if entry.WarmIters > 0 {
			entry.Ratio = float64(entry.ColdIters) / float64(entry.WarmIters)
		}
		out.WarmIters += entry.WarmIters
		out.ColdIters += entry.ColdIters
		out.WarmLPs += warm.WarmLPs
		out.ColdRestartLPs += warm.ColdLPs
		if entry.Optimal {
			gateWarm += entry.WarmIters
			gateCold += entry.ColdIters
		}

		// Parallel leg: the warm run above already *is* the serial engine
		// (Workers≤1, warm-started, node-limit bound), so it is the first
		// serial sample. Serial and worker-pool re-searches of the same
		// tree then alternate, under the same -timeout wall clock (the
		// default node limit is what binds deterministically; the clock is
		// a backstop), until each side has solverTimingSamples samples;
		// the medians go into the timing fields, so one run disturbed by
		// host load does not decide the speedup gates. Everything each
		// parallel search reports must agree exactly with the serial one —
		// unless a run actually ran into the clock, in which case the
		// trees were cut at nondeterministic wall-clock points and
		// comparing them would misreport the documented time-cut
		// nondeterminism as a node-accounting bug.
		serial := []float64{warmElapsed.Seconds()}
		var parallel []float64
		slowest := warmElapsed
		var mismatch string
		for k := 0; k < solverTimingSamples; k++ {
			if k > 0 {
				_, _, _, d := bipartition(inst, "serial", mip.Options{})
				serial = append(serial, d.Seconds())
				slowest = max(slowest, d)
			}
			parPart, parCut, par, d := bipartition(inst, "parallel", mip.Options{Workers: mipWorkers})
			parallel = append(parallel, d.Seconds())
			slowest = max(slowest, d)
			if mismatch == "" && (!slices.Equal(warmPart, parPart) || warmCut != parCut || warm.Status != par.Status ||
				warm.Counters != par.Counters) {
				mismatch = fmt.Sprintf("  PARALLEL DIVERGENCE (sample %d): serial cut=%d nodes=%d iters=%d vs %d-worker cut=%d nodes=%d iters=%d\n",
					k+1, warmCut, warm.ILPNodes, warm.SimplexIters,
					mipWorkers, parCut, par.ILPNodes, par.SimplexIters)
			}
		}
		entry.SerialSeconds = median(serial)
		entry.ParallelSeconds = median(parallel)
		entry.BBNodes = warm.ILPNodes
		if entry.ParallelSeconds > 0 {
			entry.ParallelSpeedup = entry.SerialSeconds / entry.ParallelSeconds
		}
		if slowest > timeout*9/10 {
			// The runs searched different, wall-clock-cut trees: neither
			// the divergence check nor the throughput totals (the speedup
			// gates' input) can use this instance.
			fmt.Printf("  note: %s ran into the %s wall-clock backstop, divergence check and throughput totals skip it (time cuts are nondeterministic by contract)\n",
				inst.Name, timeout)
		} else {
			out.BBNodes += warm.ILPNodes
			out.WarmRefactors += warmLU.Refactors
			out.SerialSeconds += entry.SerialSeconds
			out.ParallelSeconds += entry.ParallelSeconds
			if mismatch != "" {
				fmt.Print(mismatch)
				parDiverged = true
			}
		}

		out.Instances = append(out.Instances, entry)
		fmt.Printf("%-20s%6d%12d%12d%8.2f%7d/%d\n",
			inst.Name, entry.Nodes, entry.WarmIters, entry.ColdIters, entry.Ratio, warmCut, coldCut)
		if warmOpt && coldOpt && warmCut != coldCut {
			fmt.Printf("  DIVERGENCE: both proven optimal but cuts differ (%d vs %d)\n", warmCut, coldCut)
			diverged = true
		}
	}
	if len(out.Instances) == 0 {
		fatal(fmt.Errorf("solver experiment: dataset %q has no partitionable instances", dataset))
	}
	runDegenerateLeg(&out)
	runLULeg(&out)
	if out.WarmIters > 0 {
		out.SpeedupIters = float64(out.ColdIters) / float64(out.WarmIters)
	}
	if out.SerialSeconds > 0 {
		out.SerialNodeThroughput = float64(out.BBNodes) / out.SerialSeconds
	}
	if out.ParallelSeconds > 0 {
		out.ParallelNodeThroughput = float64(out.BBNodes) / out.ParallelSeconds
		out.ParallelSpeedup = out.SerialSeconds / out.ParallelSeconds
	}
	fmt.Printf("total: warm=%d cold=%d simplex iterations (%.2fx fewer), warm %.2fs vs cold %.2fs, %d warm refactorizations\n",
		out.WarmIters, out.ColdIters, out.SpeedupIters, out.WarmSeconds, out.ColdSeconds, out.WarmRefactors)
	fmt.Printf("parallel: %d B&B nodes per tree set, serial %.2fs (%.0f nodes/s) vs %d workers %.2fs (%.0f nodes/s): %.2fx node throughput on GOMAXPROCS=%d\n",
		out.BBNodes, out.SerialSeconds, out.SerialNodeThroughput,
		out.ParallelWorkers, out.ParallelSeconds, out.ParallelNodeThroughput,
		out.ParallelSpeedup, out.GoMaxProcs)

	if diverged {
		fatal(fmt.Errorf("solver experiment: warm/cold divergence on proven-optimal instances"))
	}
	if parDiverged {
		fatal(fmt.Errorf("solver experiment: Workers=%d output diverged from Workers=1 — deterministic node accounting is broken", mipWorkers))
	}
	if gateCold > 0 && gateWarm >= gateCold {
		fatal(fmt.Errorf("solver experiment: warm path used %d iterations vs %d cold on proven-optimal instances — warm start regressed",
			gateWarm, gateCold))
	}
	// Throughput gates. Wall-clock speedup needs real CPUs — on a runtime
	// narrower than the pool the parallel leg still proves determinism,
	// but a speedup gate would only measure scheduler overhead — and a
	// workload big enough to amortize per-wave spawn/join overhead, so
	// the absolute gate arms only when both hold; below the workload
	// floor (the tiny dataset's trees are ~10 nodes each, and even many
	// nodes searched in under two seconds are noise-dominated) a weak
	// speedup is reported loudly but the hard gate is the
	// baseline-relative regression check below.
	switch {
	case out.GoMaxProcs < 4:
		fmt.Printf("note: GOMAXPROCS=%d < 4, absolute speedup gate skipped (determinism gate still enforced)\n", out.GoMaxProcs)
	case out.SerialSeconds < 2 || out.BBNodes < 5000:
		if out.ParallelSpeedup < 1.5 {
			fmt.Printf("warning: %d workers lifted node throughput only %.2fx on a %d-wide runtime — workload too small (%d nodes, %.2fs serial) for the absolute gate\n",
				out.ParallelWorkers, out.ParallelSpeedup, out.GoMaxProcs, out.BBNodes, out.SerialSeconds)
		}
	case out.ParallelSpeedup < 1.5:
		fatal(fmt.Errorf("solver experiment: %d workers lifted node throughput only %.2fx on a %d-wide runtime — parallel tree search regressed",
			out.ParallelWorkers, out.ParallelSpeedup, out.GoMaxProcs))
	}
	if baselinePath != "" {
		if prev, err := readSolverBaseline(baselinePath); err != nil {
			fmt.Printf("note: baseline %s not comparable: %v\n", baselinePath, err)
		} else {
			if prev.ParallelSpeedup > 0 && out.ParallelSpeedup > 0 &&
				prev.GoMaxProcs == out.GoMaxProcs && prev.Dataset == out.Dataset &&
				prev.ParallelWorkers == out.ParallelWorkers &&
				out.ParallelSpeedup < 0.6*prev.ParallelSpeedup {
				fatal(fmt.Errorf("solver experiment: parallel node-throughput speedup regressed: %.2fx vs %.2fx in %s",
					out.ParallelSpeedup, prev.ParallelSpeedup, baselinePath))
			}
			// Warm-leg refactorization gate: the serial trees are
			// deterministic, so any rise is a real change to how warm
			// nodes reuse factorizations. Baselines predating the field
			// skip it.
			if prev.WarmRefactors > 0 && prev.Dataset == out.Dataset && out.WarmRefactors > prev.WarmRefactors {
				fatal(fmt.Errorf("solver experiment: warm trees regressed: %d refactorizations vs %d in %s",
					out.WarmRefactors, prev.WarmRefactors, baselinePath))
			}
			// Degenerate-model regression gate: the fixture's node limit
			// binds, so its counts are deterministic — any rise in
			// iterations or cold fallbacks is a real anti-degeneracy
			// regression, not noise, and fails. Baselines predating the
			// leg skip it.
			if prev.Degenerate != nil && out.Degenerate != nil &&
				prev.Degenerate.Instance == out.Degenerate.Instance {
				if out.Degenerate.SimplexIters > prev.Degenerate.SimplexIters {
					fatal(fmt.Errorf("solver experiment: degenerate leg regressed: %d simplex iterations vs %d in %s",
						out.Degenerate.SimplexIters, prev.Degenerate.SimplexIters, baselinePath))
				}
				if out.Degenerate.ColdLPs > prev.Degenerate.ColdLPs {
					fatal(fmt.Errorf("solver experiment: degenerate leg regressed: %d cold fallbacks vs %d in %s",
						out.Degenerate.ColdLPs, prev.Degenerate.ColdLPs, baselinePath))
				}
			}
			// LU-leg regression gates: the node limit binds and the
			// search is serial, so iteration, refactorization and fill
			// counts are deterministic — any rise is a real factorization
			// change, not noise, and fails. Baselines predating the leg
			// skip it.
			if prev.LU != nil && out.LU != nil && prev.LU.Instance == out.LU.Instance {
				if out.LU.SimplexIters > prev.LU.SimplexIters {
					fatal(fmt.Errorf("solver experiment: LU leg regressed: %d simplex iterations vs %d in %s",
						out.LU.SimplexIters, prev.LU.SimplexIters, baselinePath))
				}
				if out.LU.FillNnz > prev.LU.FillNnz {
					fatal(fmt.Errorf("solver experiment: LU leg regressed: fill-in %d nnz vs %d in %s",
						out.LU.FillNnz, prev.LU.FillNnz, baselinePath))
				}
				if out.LU.Refactors > prev.LU.Refactors {
					fatal(fmt.Errorf("solver experiment: LU leg regressed: %d refactorizations vs %d in %s",
						out.LU.Refactors, prev.LU.Refactors, baselinePath))
				}
				// Baselines predating a count read 0 and skip it.
				for _, c := range []struct {
					name      string
					got, prev int64
				}{
					{"eta terms", out.LU.EtaTerms, prev.LU.EtaTerms},
					{"triangular terms", out.LU.TriTerms, prev.LU.TriTerms},
					{"PRICE terms", out.LU.PriceTerms, prev.LU.PriceTerms},
					{"scanned columns", out.LU.ScanCols, prev.LU.ScanCols},
				} {
					if c.prev > 0 && c.got > c.prev {
						fatal(fmt.Errorf("solver experiment: LU leg regressed: %d %s vs %d in %s",
							c.got, c.name, c.prev, baselinePath))
					}
				}
			}
		}
	}
	// The JSON lands only after every gate passed: a failing run must not
	// overwrite the tracked file, or rerunning the bench would compare
	// the regression against itself and wave it through.
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", jsonPath)
	}
}

// runDegenerateLeg measures the anti-degeneracy machinery on the P=1
// k-means scheduling ILP — the fixture whose relaxations are degenerate
// enough that, before the Harris/BFRT ratio tests and EXPAND
// perturbation, warm dual re-solves exhausted their pivot budget and
// fell back to cold solves. The leg runs the tree search twice over the
// same 20-node limit (binding, hence deterministic counts): once with
// perturbation on (the default) and once with the NoPerturb ablation.
// Hard gates here catch wiring breaks (perturbation not reaching the
// tree search, clean-up dominating); the trajectory gate against
// -baseline lives with the other baseline checks in runSolver.
func runDegenerateLeg(out *solverJSON) {
	inst, err := workloads.ByName("k-means")
	if err != nil {
		fatal(fmt.Errorf("solver experiment (degenerate leg): %w", err))
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	// The node limit binds; the time limit is a generous backstop kept
	// independent of -timeout so the counts stay deterministic.
	opts := ilpsched.Options{
		Model:             mbsp.Sync,
		TimeLimit:         2 * time.Minute,
		NodeLimit:         20,
		LocalSearchBudget: 1,
		Seed:              7,
	}
	start := time.Now()
	_, stats, err := ilpsched.Solve(inst.DAG, arch, opts)
	if err != nil {
		fatal(fmt.Errorf("solver experiment (degenerate leg): %w", err))
	}
	opts.NoPerturb = true
	_, ablation, err := ilpsched.Solve(inst.DAG, arch, opts)
	if err != nil {
		fatal(fmt.Errorf("solver experiment (degenerate ablation): %w", err))
	}
	out.Degenerate = &degenerateJSON{
		Instance: "k-means-P1", BBNodes: stats.ILPNodes,
		SimplexIters: stats.SimplexIters, CleanupIters: stats.CleanupIters,
		WarmLPs: stats.WarmLPs, ColdLPs: stats.ColdLPs, PerturbedLPs: stats.PerturbedLPs,
		NoPerturbIters: ablation.SimplexIters, NoPerturbCold: ablation.ColdLPs,
		Seconds: time.Since(start).Seconds(),
	}
	d := out.Degenerate
	fmt.Printf("degenerate leg (k-means P=1, %d nodes): %d simplex iters (%d clean-up), warm/cold=%d/%d; NoPerturb ablation: %d iters, %d cold\n",
		d.BBNodes, d.SimplexIters, d.CleanupIters, d.WarmLPs, d.ColdLPs, d.NoPerturbIters, d.NoPerturbCold)
	if !stats.UsedILP {
		fatal(fmt.Errorf("solver experiment: degenerate fixture no longer enters the tree search (rows=%d)", stats.ModelRows))
	}
	if d.PerturbedLPs == 0 {
		fatal(fmt.Errorf("solver experiment: degenerate leg reports no perturbed relaxations — EXPAND perturbation is not reaching the tree search"))
	}
	if d.CleanupIters > d.SimplexIters/10 {
		fatal(fmt.Errorf("solver experiment: degenerate leg spends %d of %d iterations in shift-removal clean-up", d.CleanupIters, d.SimplexIters))
	}
}

// runLULeg measures the sparse LU core on a model the dense inverse
// could not carry: the spmv_N7 P=4 holistic scheduling ILP (4856 rows —
// beyond the former 3000-row DefaultMaxModelRows) enters tree search
// under a binding node limit, and the factorization counters are
// recorded. Hard gates pin the structural wins — the model actually
// enters the search, fill-in stays within a small multiple of the basis
// nonzeros, and warm nodes reuse factors (hot or replayed) instead of
// refactorizing from scratch; the trajectory gates against -baseline
// live with the other baseline checks in runSolver.
func runLULeg(out *solverJSON) {
	inst, err := workloads.ByName("spmv_N7")
	if err != nil {
		fatal(fmt.Errorf("solver experiment (LU leg): %w", err))
	}
	arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	var lu lp.FactorStats
	opts := ilpsched.Options{
		Model:             mbsp.Sync,
		TimeLimit:         2 * time.Minute, // backstop; the node limit binds
		NodeLimit:         4,
		LocalSearchBudget: 1,
		Seed:              7,
		LUStats:           &lu,
	}
	start := time.Now()
	_, stats, err := ilpsched.Solve(inst.DAG, arch, opts)
	if err != nil {
		fatal(fmt.Errorf("solver experiment (LU leg): %w", err))
	}
	elapsed := time.Since(start)
	l := &luJSON{
		Instance: "spmv_N7-P4", ModelRows: stats.ModelRows,
		BBNodes: stats.ILPNodes, SimplexIters: stats.SimplexIters,
		Refactors: lu.Refactors, Replays: lu.Replays, HotSolves: lu.HotSolves,
		EtaPivots: lu.EtaPivots, Ftrans: lu.Ftrans, Btrans: lu.Btrans,
		EtaTerms: lu.EtaTerms, TriTerms: lu.TriTerms, PriceTerms: lu.PriceTerms, ScanCols: lu.ScanCols,
		FillNnz: lu.FillNnz, BasisNnz: lu.BasisNnz,
		FactorSeconds: float64(lu.FactorNanos) / 1e9,
		SolveSeconds:  float64(lu.SolveNanos) / 1e9,
		Seconds:       elapsed.Seconds(),
	}
	if l.BasisNnz > 0 {
		l.FillRatio = float64(l.FillNnz) / float64(l.BasisNnz)
	}
	if l.Seconds > 0 {
		l.FtranShare = l.SolveSeconds / l.Seconds
	}
	out.LU = l
	fmt.Printf("LU leg (%s, %d rows, %d nodes): %d simplex iters, %d refactors, %d etas, %d eta terms, %d triangular terms, %d PRICE terms, %d scanned columns, hot/replay=%d/%d, fill %d/%d (%.2fx), factor %.2fs + solves %.2fs of %.2fs (%.0f%% in FTRAN/BTRAN)\n",
		l.Instance, l.ModelRows, l.BBNodes, l.SimplexIters, l.Refactors, l.EtaPivots, l.EtaTerms, l.TriTerms, l.PriceTerms, l.ScanCols,
		l.HotSolves, l.Replays, l.FillNnz, l.BasisNnz, l.FillRatio,
		l.FactorSeconds, l.SolveSeconds, l.Seconds, 100*l.FtranShare)
	if !stats.UsedILP {
		fatal(fmt.Errorf("solver experiment: LU leg no longer enters the tree search (rows=%d, status=%s) — the dense-ceiling unlock regressed", stats.ModelRows, stats.ILPStatus))
	}
	if stats.ModelRows <= 3000 {
		fatal(fmt.Errorf("solver experiment: LU leg fixture has %d rows — no longer beyond the former dense ceiling, the leg proves nothing", stats.ModelRows))
	}
	if l.FillRatio > 4 {
		fatal(fmt.Errorf("solver experiment: LU leg fill ratio %.2fx — factor storage is no longer sparse", l.FillRatio))
	}
	if l.Refactors < 1 {
		fatal(fmt.Errorf("solver experiment: LU leg reports no refactorizations — the counters are not wired"))
	}
	if l.HotSolves+l.Replays < 1 {
		fatal(fmt.Errorf("solver experiment: LU leg reports no hot or replayed warm starts — warm nodes are refactorizing from scratch"))
	}
}

// readSolverBaseline parses a previous solver-experiment JSON for the
// regression gate.
func readSolverBaseline(path string) (solverJSON, error) {
	var prev solverJSON
	b, err := os.ReadFile(path)
	if err != nil {
		return prev, err
	}
	if err := json.Unmarshal(b, &prev); err != nil {
		return prev, err
	}
	return prev, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbsp-bench:", err)
	os.Exit(1)
}

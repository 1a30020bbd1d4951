// Package portfolio races a set of MBSP schedulers ("candidates")
// concurrently over a bounded worker pool and returns the cheapest valid
// schedule. The paper evaluates many schedulers — two-stage baselines
// (BSPg/Cilk/DFS × clairvoyant/LRU), the holistic ILP and its
// divide-and-conquer variant — with no single winner across workloads
// and architectures; a portfolio turns that diversity into a strategy:
// run everything applicable in parallel, validate each result with the
// model checker, keep the best.
//
// The runner introduces no nondeterminism of its own: every candidate
// derives its seed from the portfolio seed and its name (never from
// worker identity or completion order), results are collected in
// candidate order, and ties are broken by that order. Candidates whose
// budgets bind deterministically (the two-stage pipelines always; the
// ILP under Options.ILP.NodeLimit) therefore produce identical schedules
// under any GOMAXPROCS or worker count; wall-clock budgets
// (ILP.TimeLimit, the DnC partitioning stage) cut wherever the solver
// happened to be and are only reproducible on an idle machine.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mbsp/internal/dnc"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/twostage"
)

// Options configures a portfolio run.
type Options struct {
	// Workers bounds the number of schedulers running concurrently.
	// Default GOMAXPROCS (and never more than the candidate count).
	Workers int
	// SchedulerTimeout is the per-candidate wall-clock budget; a candidate
	// that exceeds it is cancelled in place. The ILP candidate then
	// returns its best-so-far schedule (at minimum the warm start); the
	// divide-and-conquer candidate returns an error when cut between
	// parts, because a partial concatenation is never a valid schedule.
	// Default 30s; negative disables.
	SchedulerTimeout time.Duration
	// ILP is the solver environment of the ilp and dnc-ilp candidates
	// (and of dnc-ilp's per-part sub-ILPs); each runs under a copy with
	// its own Context, Seed and LUStats. ILP.Model ranks the candidates,
	// and ILP.Seed, mixed with each candidate's name, seeds every
	// randomized one, so the portfolio is reproducible end to end.
	//
	// The portfolio's defaults differ from ilpsched's: TimeLimit 2s and
	// LocalSearchBudget 2000. A NodeLimit binds deterministically, unlike
	// a wall clock: set it (with a generous TimeLimit) for reproducible
	// schedules. A latency-bound caller (the serving layer)
	// sets a small MaxModelRows, so that large models keep the warm-start
	// + local-search path instead of a seconds-long tree search.
	//
	// MIPWorkers 0 splits GOMAXPROCS between the Workers pool and the
	// candidates' branch-and-bound trees: max(1, GOMAXPROCS/Workers) LP
	// workers per tree, capped at mip.MaxWorkers, the engine's wave
	// width. Tree worker counts never change a schedule (deterministic
	// node accounting in package mip), so the budget adds no
	// nondeterminism. Negative means 1 worker per tree.
	//
	// Inject threads the deterministic fault-injection harness
	// (internal/faultinject) into every ILP-based candidate's solver
	// stack; node-limited chaos runs stay byte-identical.
	//
	// Context, WarmStart, Incumbent, NeedBlue and LUStats are set per
	// candidate and must stay unset (use Options.LUStats); run rejects a
	// set one.
	ILP ilpsched.Options
	// Candidates overrides the scheduler set. Nil selects
	// DefaultCandidates(g, arch).
	Candidates []Candidate
	// LUStats, when non-nil, accumulates the LP factorization counters of
	// every ILP-based candidate's solver stack. Candidates race
	// concurrently, so run hands each candidate a private accumulator and
	// sums them after the pool drains; the counters are observability
	// only and never influence candidate selection.
	LUStats *lp.FactorStats
	// PartitionMemo, when non-nil, serves the dnc candidate's
	// partitioning stage across runs on the same DAG (see dnc.Memo); a
	// hit returns what a recompute would, so it never changes a result.
	// Nil partitions afresh on every run.
	PartitionMemo *dnc.Memo
	// Logf receives progress messages.
	Logf func(format string, args ...interface{})

	// shared carries the per-run shared state (incumbent, memoized warm
	// start) from run to the candidates; external candidates ignore it.
	shared *sharedState
}

// sharedState is the per-run state run hands to every candidate: the
// portfolio-wide incumbent and the memoized two-stage baseline, which is
// a candidate, the ILP warm start and the anytime fallback at once.
type sharedState struct {
	inc     *mip.Incumbent // sealed at the baseline cost; +Inf when it failed
	warm    *mbsp.Schedule // the validated baseline; nil when it failed
	warmErr error          // why warm is nil
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SchedulerTimeout == 0 {
		o.SchedulerTimeout = 30 * time.Second
	}
	if o.ILP.TimeLimit == 0 {
		o.ILP.TimeLimit = 2 * time.Second
	}
	if o.ILP.LocalSearchBudget == 0 {
		o.ILP.LocalSearchBudget = 2000
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// CandidateResult reports one scheduler's outcome.
type CandidateResult struct {
	Name      string
	Cost      float64 // under Options.ILP.Model; NaN when Err != nil
	SyncCost  float64
	AsyncCost float64
	Elapsed   time.Duration
	Schedule  *mbsp.Schedule
	Err       error
	// Degraded records that the candidate's budget or the caller's
	// context fired before its search finished: the schedule is a valid
	// best-so-far result, not the candidate's full-budget answer.
	Degraded bool
}

// Result is a full portfolio outcome.
type Result struct {
	// Best is the cheapest valid schedule; BestName/BestCost identify it.
	Best     *mbsp.Schedule
	BestName string
	BestCost float64
	// Candidates holds per-scheduler results in candidate order,
	// independent of completion order.
	Candidates []CandidateResult
	// Workers is the effective worker-pool size the run used (after
	// defaulting and clamping to the candidate count).
	Workers int
	// Interrupted records that the parent context was cancelled before
	// every candidate finished; Best is then the best among those that
	// did (best-so-far semantics).
	Interrupted bool
	Elapsed     time.Duration
	// Certificate is the anytime-quality certificate: cost, proven lower
	// bound, gap, degradation rung and per-candidate ledger. Set whenever
	// RunAnytime returns no error.
	Certificate *Certificate
}

// ErrNoSchedule is returned when no candidate produced a valid schedule.
var ErrNoSchedule = errors.New("portfolio: no candidate produced a valid schedule")

// run races the candidates over a bounded worker pool and returns the
// best valid schedule under opts.ILP.Model, plus the run's shared state
// (nil on a pre-flight error) so RunAnytime can fall back to its
// memoized baseline. Every candidate schedule is re-validated with mbsp.Validate
// before it may win. On context cancellation run still waits for
// in-flight candidates (they are cancelled in place, so no goroutine
// outlives the call) and returns the best schedule completed so far, or
// ErrNoSchedule joined with the context error if there is none.
func run(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options) (*Result, *sharedState, error) {
	start := time.Now()
	if err := arch.Validate(); err != nil {
		return nil, nil, err
	}
	if o := opts.ILP; o.Context != nil || o.WarmStart != nil || o.Incumbent != nil ||
		o.NeedBlue != nil || o.LUStats != nil {
		return nil, nil, errors.New("portfolio: ILP.Context, WarmStart, Incumbent, NeedBlue and LUStats are set per candidate, not by the caller")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	cands := opts.Candidates
	if cands == nil {
		cands = DefaultCandidates(g, arch)
	}
	if len(cands) == 0 {
		return nil, nil, errors.New("portfolio: no candidates")
	}

	// Shared per-run state: memoize the two-stage baseline once — it is
	// a candidate, the ILP's warm start and the anytime fallback — and
	// seal the portfolio-wide incumbent at its cost before any candidate
	// starts. The bound is then one value fixed by the input, so pruning
	// against it never depends on which candidate finished first (see
	// DESIGN.md). Built even when the context is already done, because
	// the fallback needs it then.
	sh := &sharedState{inc: mip.NewIncumbent()}
	w, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
	if err == nil {
		if verr := w.Validate(); verr != nil {
			err = fmt.Errorf("%w: %v", errInvalidSchedule, verr)
		}
	}
	if err == nil {
		sh.warm = w
		sh.inc.Offer(w.Cost(opts.ILP.Model))
	} else {
		sh.warmErr = err
		opts.Logf("portfolio: baseline warm start unavailable: %v", err)
	}
	sh.inc.Seal()
	opts.shared = sh

	res := &Result{Candidates: make([]CandidateResult, len(cands))}
	workers := opts.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	res.Workers = workers
	// Budget the machine between the two parallelism layers: candidates
	// racing in the pool above, LP workers inside each candidate's
	// branch-and-bound trees below. Tree-level worker counts never change
	// results (deterministic node accounting in package mip), so the
	// budget is free to depend on GOMAXPROCS.
	switch {
	case opts.ILP.MIPWorkers < 0:
		opts.ILP.MIPWorkers = 1
	case opts.ILP.MIPWorkers == 0:
		opts.ILP.MIPWorkers = min(mip.MaxWorkers, max(1, runtime.GOMAXPROCS(0)/max(1, workers)))
	}
	// Per-candidate factorization accumulators: candidates race, so the
	// shared opts.LUStats pointer must not be written concurrently; each
	// candidate gets a private struct, summed after the pool drains.
	var luPer []lp.FactorStats
	if opts.LUStats != nil {
		luPer = make([]lp.FactorStats, len(cands))
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				copts := opts
				if luPer != nil {
					copts.LUStats = &luPer[i]
				}
				res.Candidates[i] = runCandidate(ctx, g, arch, copts, cands[i])
			}
		}()
	}
	for i := range cands {
		// Stop feeding once cancelled; remaining candidates report the
		// context error without running.
		if err := ctx.Err(); err != nil {
			res.Candidates[i] = CandidateResult{Name: cands[i].Name, Cost: math.NaN(), Err: err}
			continue
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range luPer {
		opts.LUStats.Add(luPer[i])
	}
	res.Interrupted = ctx.Err() != nil
	res.Elapsed = time.Since(start)

	// Deterministic selection: lowest cost, ties broken by candidate
	// order.
	best := -1
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Err != nil || c.Schedule == nil {
			continue
		}
		if best < 0 || c.Cost < res.Candidates[best].Cost-1e-12 {
			best = i
		}
	}
	if best < 0 {
		err := ErrNoSchedule
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w (cancelled: %v)", ErrNoSchedule, ctxErr)
		}
		return res, sh, err
	}
	b := &res.Candidates[best]
	res.Best, res.BestName, res.BestCost = b.Schedule, b.Name, b.Cost
	return res, sh, nil
}

// runCandidate executes one scheduler under its per-candidate timeout and
// validates the outcome.
func runCandidate(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options, c Candidate) CandidateResult {
	cctx := ctx
	if opts.SchedulerTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, opts.SchedulerTimeout)
		defer cancel()
	}
	start := time.Now()
	out := CandidateResult{Name: c.Name, Cost: math.NaN()}
	s, err := func() (s *mbsp.Schedule, err error) {
		// Panic containment: a panicking candidate becomes a classified
		// per-candidate failure (*PanicError) instead of unwinding the
		// worker goroutine and killing the process; the race continues on
		// the surviving candidates.
		defer func() {
			if r := recover(); r != nil {
				s, err = nil, &PanicError{Candidate: c.Name, Value: r, Stack: debug.Stack()}
			}
		}()
		return c.Run(cctx, g, arch, opts)
	}()
	out.Elapsed = time.Since(start)
	switch {
	case err != nil:
		out.Err = fmt.Errorf("portfolio: %s: %w", c.Name, err)
	case s == nil:
		out.Err = fmt.Errorf("portfolio: %s returned no schedule", c.Name)
	default:
		if verr := s.Validate(); verr != nil {
			out.Err = fmt.Errorf("portfolio: %s produced %w: %v", c.Name, errInvalidSchedule, verr)
			break
		}
		out.Schedule = s
		out.SyncCost = s.SyncCost()
		out.AsyncCost = s.AsyncCost()
		out.Cost = s.Cost(opts.ILP.Model)
		// A candidate that returned a valid schedule after its context
		// fired was cut mid-search: best-so-far, not its full answer.
		out.Degraded = cctx.Err() != nil
	}
	if out.Err != nil {
		opts.Logf("portfolio: candidate %s failed after %v: %v", c.Name, out.Elapsed, out.Err)
	} else {
		opts.Logf("portfolio: candidate %s: cost %g in %v", c.Name, out.Cost, out.Elapsed)
	}
	return out
}

// candidateSeed mixes the portfolio seed with the candidate name, so a
// candidate's randomness is independent of its position in the set and
// of scheduling order.
func candidateSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64()&math.MaxInt64)
}

package portfolio

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"mbsp/internal/bounds"
	"mbsp/internal/dnc"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
)

// This file implements the portfolio's anytime contract: under deadline,
// cancellation, node-limit exhaustion, scheduler failure, or a panic in
// any candidate, RunAnytime still returns the best validated schedule it
// can produce — falling down a deterministic degradation ladder
// (portfolio race → the run's memoized two-stage baseline) — plus a
// Certificate stating what completed, what failed and how tight the
// result provably is. An error escapes only when no valid schedule for
// the instance exists at all (e.g. the cache cannot hold the largest
// value, or the graph is cyclic).

// FailureKind classifies why a candidate produced no usable schedule.
type FailureKind int8

// Failure classes, from the taxonomy in DESIGN.md.
const (
	// FailTimeout: the candidate's deadline expired (context.DeadlineExceeded).
	FailTimeout FailureKind = iota
	// FailCancelled: the caller's context was cancelled (context.Canceled).
	FailCancelled
	// FailPanic: the candidate panicked; recovered into a *PanicError.
	FailPanic
	// FailInvalid: the candidate returned a schedule that failed validation.
	FailInvalid
	// FailCutoff: the candidate stopped because the shared incumbent proved
	// it could not win (dnc.ErrIncumbentCutoff) — a loss, not a fault.
	FailCutoff
	// FailScheduler: any other scheduler error (no progress, deadlock,
	// cache too small, cyclic graph, ...).
	FailScheduler
)

func (k FailureKind) String() string {
	switch k {
	case FailTimeout:
		return "timeout"
	case FailCancelled:
		return "cancelled"
	case FailPanic:
		return "panic"
	case FailInvalid:
		return "invalid-schedule"
	case FailCutoff:
		return "incumbent-cutoff"
	case FailScheduler:
		return "scheduler-error"
	}
	return fmt.Sprintf("FailureKind(%d)", int8(k))
}

// FailureRecord is one candidate's classified failure.
type FailureRecord struct {
	Candidate string
	Kind      FailureKind
	Err       error
}

// PanicError wraps a panic recovered from a portfolio candidate. The
// stack is captured at the panic site for diagnosis; the portfolio
// treats the candidate as failed and races on.
type PanicError struct {
	Candidate string
	Value     interface{}
	Stack     []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("candidate %s panicked: %v", e.Candidate, e.Value)
}

// errInvalidSchedule marks validation failures so classify can tell them
// apart from scheduler errors without string matching the full message.
var errInvalidSchedule = errors.New("invalid schedule")

// classify maps a candidate error to its failure class.
func classify(err error) FailureKind {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.Is(err, context.Canceled):
		return FailCancelled
	case errors.Is(err, errInvalidSchedule):
		return FailInvalid
	case errors.Is(err, dnc.ErrIncumbentCutoff):
		return FailCutoff
	}
	return FailScheduler
}

// Ladder rungs reported in Certificate.Rung, ordered from best to worst.
const (
	// RungPortfolio: the racing portfolio itself produced the winner.
	RungPortfolio = "portfolio"
	// RungBaseline: every candidate failed; the winner is the run's
	// memoized BSPg+clairvoyant baseline (twostage.Baseline on P>1).
	RungBaseline = "baseline"
	// RungDFS: every candidate failed and the baseline is DFS+clairvoyant
	// (P=1), or the BSPg baseline failed too; the winner is the
	// DFS+clairvoyant schedule, the ladder's floor.
	RungDFS = "dfs"
)

// Certificate states what an anytime run is worth: the returned
// schedule's cost, a sound lower bound on ANY valid schedule of the
// instance (from package bounds — independent of how much of the search
// completed), the relative gap between them, which degradation rung
// produced the winner, and the per-candidate completion/failure ledger.
type Certificate struct {
	// BestCost is the returned schedule's cost under Options.ILP.Model.
	BestCost float64
	// BestBound is a proven lower bound on the cost of any valid schedule
	// (work/critical-path/IO bounds; sound regardless of failures).
	BestBound float64
	// Gap is the relative optimality gap (BestCost−BestBound)/BestCost,
	// in [0,1]; 0 when BestCost is 0.
	Gap float64
	// Rung identifies the degradation-ladder rung that produced the
	// schedule: RungPortfolio, RungBaseline or RungDFS.
	Rung string
	// Completed lists candidates that returned a validated schedule,
	// in candidate order; Degraded is the subset of Completed that was
	// interrupted mid-search and returned a best-so-far schedule.
	Completed []string
	Degraded  []string
	// Failed lists candidates that produced no usable schedule, with the
	// failure class and underlying error, in candidate order.
	Failed []FailureRecord
	// FallbackUsed records that the ladder fell past the portfolio
	// (Rung != RungPortfolio).
	FallbackUsed bool
	// Interrupted mirrors Result.Interrupted: the caller's context fired
	// before every candidate finished.
	Interrupted bool
}

// String renders the certificate on one line for logs and CLIs.
func (c *Certificate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%g bound=%g gap=%.1f%% rung=%s completed=%d degraded=%d failed=%d",
		c.BestCost, c.BestBound, 100*c.Gap, c.Rung, len(c.Completed), len(c.Degraded), len(c.Failed))
	if c.Interrupted {
		b.WriteString(" interrupted")
	}
	return b.String()
}

// buildCertificate fills the ledger from the per-candidate results and
// the already-selected winner.
func buildCertificate(g *graph.DAG, arch mbsp.Arch, opts Options, res *Result, rung string) *Certificate {
	cert := &Certificate{
		BestCost:     res.BestCost,
		Rung:         rung,
		FallbackUsed: rung != RungPortfolio,
		Interrupted:  res.Interrupted,
	}
	cert.BestBound = bounds.Lower(g, arch, opts.ILP.Model)
	if cert.BestCost > 0 {
		cert.Gap = (cert.BestCost - cert.BestBound) / cert.BestCost
		if cert.Gap < 0 {
			cert.Gap = 0
		}
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		switch {
		case c.Err != nil:
			cert.Failed = append(cert.Failed, FailureRecord{
				Candidate: c.Name, Kind: classify(c.Err), Err: c.Err,
			})
		case c.Schedule != nil:
			cert.Completed = append(cert.Completed, c.Name)
			if c.Degraded {
				cert.Degraded = append(cert.Degraded, c.Name)
			}
		}
	}
	return cert
}

// RunAnytime races the candidates (see run) under the anytime contract:
// it returns the best validated schedule obtainable under the
// circumstances — never an error for deadlines, cancellations, exhausted
// node budgets, panics or individual scheduler failures — together with
// a populated Result.Certificate. When every candidate fails (e.g. the
// context was already expired before any could start), it falls back to
// the run's memoized two-stage baseline (rung "baseline"; "dfs" on one
// processor, where the baseline is DFS+clairvoyant), and on P>1, if that
// failed, to DFS+clairvoyant. Both are deterministic greedy passes, so a
// valid schedule is always produced; an error escapes only when the
// instance admits no valid schedule at all. A caller that prefers
// failure over a fallback schedule checks Certificate.FallbackUsed.
func RunAnytime(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res, sh, err := run(ctx, g, arch, opts)
	rung := RungPortfolio
	if err != nil {
		if !errors.Is(err, ErrNoSchedule) {
			// Pre-flight failures (invalid architecture, empty candidate set)
			// are caller bugs, not runtime faults: no schedule to degrade to.
			return res, err
		}
		var s *mbsp.Schedule
		if s, rung, err = fallback(g, arch, sh); err != nil {
			// The ladder floor failed: the instance admits no valid
			// schedule (cache smaller than a value, cyclic graph, ...).
			// Not an anytime outcome — surface the real cause.
			return res, fmt.Errorf("%w; fallback failed: %v", ErrNoSchedule, err)
		}
		res.Best, res.BestName, res.BestCost = s, "fallback/"+rung, s.Cost(opts.ILP.Model)
		opts.Logf("portfolio: degraded to %s fallback: cost %g", rung, res.BestCost)
	}
	res.Certificate = buildCertificate(g, arch, opts, res, rung)
	return res, nil
}

// fallback is the degradation ladder, off-context: the run's memoized
// baseline, else — on P>1 only, where the baseline is BSPg — the
// DFS+clairvoyant floor. Both rungs are deterministic, so the fallback
// schedule is reproducible no matter which fault felled the portfolio.
func fallback(g *graph.DAG, arch mbsp.Arch, sh *sharedState) (*mbsp.Schedule, string, error) {
	switch {
	case sh.warm != nil && arch.P == 1:
		return sh.warm, RungDFS, nil
	case sh.warm != nil:
		return sh.warm, RungBaseline, nil
	case arch.P == 1:
		return nil, RungDFS, sh.warmErr
	}
	s, err := twostage.Pipeline{Stage1: twostage.DFS, Policy: memmgr.Clairvoyant{}}.Run(g, arch, 0, nil)
	if err == nil {
		if verr := s.Validate(); verr != nil {
			err = fmt.Errorf("%s: %w: %v", RungDFS, errInvalidSchedule, verr)
		}
	}
	return s, RungDFS, err
}

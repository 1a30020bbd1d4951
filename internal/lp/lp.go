// Package lp implements a linear-programming solver: a bounded-variable
// simplex method over sparse column-major (CSC) constraint storage with
// Devex (approximate steepest-edge) pricing, Bland's rule under prolonged
// degeneracy, and periodic basis refactorization.
//
// Two entry points serve the MILP branch-and-bound in package mip:
//
//   - Solve (or Instance.Solve) runs the cold primal simplex with a
//     phase-1 artificial start and returns, along with the optimum, an
//     opaque Basis snapshot;
//   - Instance.SolveFrom reoptimizes from a supplied Basis after bound
//     changes with the bounded-variable dual simplex — the hot path of
//     branch-and-bound, where a child node differs from its parent by a
//     single variable bound and typically re-solves in a handful of
//     iterations instead of a full cold start.
//
// Prepare assembles the sparse matrix once so that branch-and-bound can
// re-solve thousands of bound variations without re-reading the rows. The
// original dense-inverse solver is preserved as SolveDense and serves as
// the cross-check reference and ablation baseline. Both solvers stop
// early, reporting IterLimit, once Options.Context is done — the one
// cancellation and deadline carrier from the scheduler portfolio down to
// here. Only the Go standard library is used.
package lp

import (
	"context"
	"fmt"
	"math"
)

// Sense is a row sense.
type Sense int8

// Row senses.
const (
	LE Sense = iota // Σ a·x ≤ b
	GE              // Σ a·x ≥ b
	EQ              // Σ a·x = b
)

// Inf is the bound used for unbounded variables.
var Inf = math.Inf(1)

// Coef is one nonzero coefficient of a row.
type Coef struct {
	Var int
	Val float64
}

// Problem is a linear program: minimize Obj·x subject to rows and bounds.
type Problem struct {
	Obj  []float64 // length NumVars
	Lb   []float64
	Ub   []float64
	Rows []RowDef
}

// RowDef is one linear constraint.
type RowDef struct {
	Coefs []Coef
	Sense Sense
	RHS   float64
}

// NewProblem allocates a problem with n variables, default bounds [0, ∞)
// and zero objective.
func NewProblem(n int) *Problem {
	p := &Problem{
		Obj: make([]float64, n),
		Lb:  make([]float64, n),
		Ub:  make([]float64, n),
	}
	for i := range p.Ub {
		p.Ub[i] = Inf
	}
	return p
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// AddRow appends a constraint and returns its index.
func (p *Problem) AddRow(coefs []Coef, sense Sense, rhs float64) int {
	p.Rows = append(p.Rows, RowDef{Coefs: coefs, Sense: sense, RHS: rhs})
	return len(p.Rows) - 1
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Result holds the solution of an LP.
type Result struct {
	Status Status
	Obj    float64
	X      []float64 // length NumVars, valid for Optimal (and best-effort for IterLimit)
	Iters  int       // simplex iterations (primal + dual)
	// Basis is an opaque snapshot of the optimal basis, suitable for
	// SolveFrom. Nil unless Status == Optimal, and nil in the rare case
	// where the final basis cannot be expressed without artificial
	// columns (a redundant row whose artificial could not be swapped for
	// the row's slack).
	Basis *Basis
	// ColdRestart records that a SolveFrom call could not reuse the
	// supplied basis (unusable or singular, or the dual, primal clean-up
	// or shift removal stalled) and fell back to a cold solve.
	ColdRestart bool
	// Injected records that fault injection (Options.Inject) forced this
	// solve onto a fallback path it would not otherwise have taken.
	Injected bool
	// Perturbed records that Options.Perturb shifted the working bounds
	// during this solve; the shifts were removed before the result was
	// reported (see CleanupIters).
	Perturbed bool
	// CleanupIters is the number of simplex iterations (included in Iters)
	// the clean-up re-solve spent removing the EXPAND shifts and any
	// residual bound violations at the end of the solve.
	CleanupIters int
}

// Options tunes the solver. The zero value solves without cancellation,
// perturbation or fault injection.
type Options struct {
	// Context, when non-nil, aborts the solve with IterLimit once it is
	// done (cancelled or past its deadline); the solver polls it every 64
	// iterations.
	Context context.Context
	// Perturb enables deterministic EXPAND-style bound perturbation: every
	// finite working bound is expanded outward by a tiny pseudo-random
	// amount derived from (instance fingerprint, PerturbSeq, column), which
	// breaks the ratio-test ties that make massively degenerate models
	// (the scheduling ILPs) stall. The shifts are removed at optimality by
	// a clean-up re-solve against the exact bounds, so reported solutions,
	// statuses and objectives are exact — and, being a pure function of
	// (matrix, basis, bounds, PerturbSeq), identical on every solve of the
	// same inputs regardless of worker scheduling.
	Perturb bool
	// PerturbSeq varies the perturbation between related solves of one
	// instance — branch-and-bound threads the node's creation sequence
	// number, so sibling relaxations do not share one unlucky shift
	// pattern while determinism for any worker count is preserved.
	PerturbSeq uint64
	// Inject, when non-nil, applies deterministic fault injection to warm
	// re-solves: a forced cold fallback or a simulated singular
	// refactorization, each decided as a pure function of (instance
	// fingerprint, PerturbSeq) so chaos runs are reproducible. See
	// internal/faultinject for the standard implementation.
	Inject FaultInjector
}

// doneChan returns ctx.Done(), or nil — a channel that is never ready —
// for a nil context.
func doneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// isDone reports, without blocking, whether done is closed.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// FaultInjector is the narrow fault-injection hook SolveFrom consults.
// It is an interface so that lp does not depend on the injection policy;
// internal/faultinject.Injector implements it.
type FaultInjector interface {
	// ForceColdFallback forces the warm re-solve keyed by (fprint, seq)
	// onto its cold-restart path, as if the basis were unusable.
	ForceColdFallback(fprint, seq uint64) bool
	// SingularRefactor makes refactorization of the warm basis for
	// (fprint, seq) behave as if the basis matrix were singular.
	SingularRefactor(fprint, seq uint64) bool
}

// eps is the feasibility/optimality tolerance of both solvers.
const eps = 1e-7

// refactorEvery is the number of pivots after which the basis inverse is
// rebuilt from scratch to bound numerical drift.
const refactorEvery = 128

// iterBudget is the simplex iteration budget of one solve of an m-row,
// n-column problem.
func iterBudget(m, n int) int { return 50*(m+n) + 1000 }

// variable status markers
type vstat int8

const (
	atLower vstat = iota
	atUpper
	basic
)

// Basis is an opaque snapshot of a simplex basis: which variable is basic
// in each row and the bound status of every structural and slack column.
// It is returned by optimal solves and accepted by Instance.SolveFrom,
// which reconstructs the sparse LU factorization from the snapshot's
// replay recipe, keeping the live factorization's common prefix with it
// (bit-identical either way, see sparse.go). A Basis is immutable and
// safe to share across goroutines.
type Basis struct {
	basic []int32 // length m: variable basic in each row (structural or slack)
	stat  []vstat // length n+m: status per column

	// Replay recipe: the factorization anchor (the basis that was
	// factorized from scratch) plus the eta script applied since. A
	// workspace reconstructs by factorizing anchor and re-running each
	// script pivot's FTRAN, reproducing the capturing workspace's factor
	// state bit for bit. anchor == nil means no recipe (reconstruct by
	// direct refactorization of basic — still deterministic, just never
	// bit-aliased with a live factorization).
	anchor []int32
	script []pivotRec
}

// pivotRec is one replayable basis change: column `enter` replaced the
// basic variable at position `leave`.
type pivotRec struct {
	enter, leave int32
}

// clone returns an independent copy (Basis handed to callers must not
// alias solver workspace). The recipe fields are immutable and may be
// shared.
func (b *Basis) clone() *Basis {
	return &Basis{
		basic:  append([]int32(nil), b.basic...),
		stat:   append([]vstat(nil), b.stat...),
		anchor: b.anchor,
		script: b.script,
	}
}

// Solve minimizes the problem with the sparse solver. It is shorthand for
// Prepare(p).Solve(p.Lb, p.Ub, opts); callers that re-solve the same rows
// under varying bounds should Prepare once and reuse the Instance.
func Solve(p *Problem, opts Options) Result {
	return Prepare(p).Solve(p.Lb, p.Ub, opts)
}

// startValue places a nonbasic column at the bound nearest zero (0 for
// free variables).
func startValue(l, u float64) float64 {
	switch {
	case l <= 0 && u >= 0:
		return 0
	case l > 0:
		return l
	default:
		return u
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

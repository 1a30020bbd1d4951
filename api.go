// Package mbsp is a library for multiprocessor scheduling of
// computational DAGs under memory constraints, reproducing "Multiprocessor
// Scheduling with Memory Constraints: Fundamental Properties and Finding
// Optimal Solutions" (Papp, Böhnlein, Yzelman — ICPP 2025).
//
// The model (MBSP scheduling) executes a weighted DAG on P processors,
// each with a private fast memory of capacity r, over a shared unbounded
// slow memory, with BSP parameters g (cost per transferred unit) and L
// (synchronization cost). It generalizes multiprocessor red-blue pebbling
// to weighted DAGs and restricts Multi-BSP to two levels.
//
// The package re-exports the library's public surface:
//
//   - DAG construction and the benchmark workload generators;
//   - schedule representation, validation and both cost functions;
//   - the two-stage baselines (BSPg/Cilk/DFS × clairvoyant/LRU);
//   - the holistic ILP scheduler and its divide-and-conquer variant;
//   - an exact single-processor pebbler for ground truth;
//   - the experiment harness reproducing the paper's tables and figures.
//
// See examples/ for runnable end-to-end programs.
package mbsp

import (
	"context"
	"io"

	"mbsp/internal/bsp"
	"mbsp/internal/dnc"
	"mbsp/internal/exact"
	"mbsp/internal/experiments"
	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	model "mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/portfolio"
	"mbsp/internal/refine"
	"mbsp/internal/twostage"
	"mbsp/internal/wire"
	"mbsp/internal/workloads"
)

// Core model types.
type (
	// DAG is a computational DAG with per-node compute weights ω and
	// memory weights μ.
	DAG = graph.DAG
	// Arch is a computing architecture (P, r, g, L).
	Arch = model.Arch
	// Schedule is a full MBSP schedule (supersteps of pebbling phases).
	Schedule = model.Schedule
	// CostModel selects the synchronous or asynchronous objective.
	CostModel = model.CostModel
	// Instance is a named benchmark DAG.
	Instance = workloads.Instance
	// BSPSchedule is a stage-1 (memory-oblivious) BSP schedule.
	BSPSchedule = bsp.Schedule
)

// Cost models.
const (
	Sync  = model.Sync
	Async = model.Async
)

// NewDAG returns an empty DAG with the given name.
func NewDAG(name string) *DAG { return graph.New(name) }

// ReadDAG parses a DAG from the text format (see internal/graph).
func ReadDAG(r io.Reader) (*DAG, error) { return graph.Read(r) }

// WriteDAG serializes a DAG in the text format.
func WriteDAG(w io.Writer, g *DAG) error { return graph.Write(w, g) }

// WriteDOT renders a DAG in Graphviz DOT format.
func WriteDOT(w io.Writer, g *DAG) error { return graph.DOT(w, g) }

// DAGParseError is the typed error ReadDAG returns for malformed input:
// syntax errors, bad counts, non-finite or negative weights, self-loops.
// Malformed input never panics. Cyclic inputs are reported as
// ErrCyclicDAG instead. The canonical DAG identity used by the
// scheduling service — (*DAG).Fingerprint (relabeling-invariant) and
// (*DAG).ExactDigest (labeling-sensitive) — is preserved exactly across
// a WriteDAG/ReadDAG round trip.
type DAGParseError = graph.ParseError

// ErrCyclicDAG reports that a parsed or constructed graph contains a
// cycle.
var ErrCyclicDAG = graph.ErrCyclic

// Benchmark datasets (see DESIGN.md for the sizing note).
var (
	// Tiny returns the 15-instance counterpart of the paper's smallest
	// dataset.
	Tiny = workloads.Tiny
	// Small returns the 10-instance counterpart of the paper's second
	// dataset.
	Small = workloads.Small
	// PaperTiny and PaperSmall return paper-scale instances for long
	// offline runs.
	PaperTiny  = workloads.PaperTiny
	PaperSmall = workloads.PaperSmall
	// InstanceByName builds one instance by name; the first dataset (in
	// the order Tiny, Small, PaperTiny, PaperSmall) that holds it wins.
	InstanceByName = workloads.ByName
)

// ILPOptions configures the holistic ILP scheduler; see
// internal/ilpsched.Options for field documentation.
type ILPOptions = ilpsched.Options

// ILPStats reports what the ILP scheduler did.
type ILPStats = ilpsched.Stats

// ScheduleBaseline runs the paper's main two-stage baseline
// (BSPg + clairvoyant eviction; DFS + clairvoyant for P=1).
func ScheduleBaseline(g *DAG, arch Arch) (*Schedule, error) {
	return twostage.Baseline(arch).Run(g, arch, 0, nil)
}

// ScheduleCilkLRU runs the application-oriented baseline: Cilk-style work
// stealing plus LRU eviction.
func ScheduleCilkLRU(g *DAG, arch Arch, seed int64) (*Schedule, error) {
	return twostage.Pipeline{Stage1: twostage.Cilk, Policy: memmgr.LRU{}}.Run(g, arch, seed, nil)
}

// ScheduleILP runs the holistic ILP-based scheduler (warm-started from
// the baseline unless opts.WarmStart is set). The result is never worse
// than the warm start under opts.Model.
func ScheduleILP(g *DAG, arch Arch, opts ILPOptions) (*Schedule, ILPStats, error) {
	return ilpsched.Solve(g, arch, opts)
}

// Portfolio scheduling re-exports.
type (
	// PortfolioOptions configures the concurrent scheduler portfolio; see
	// internal/portfolio.Options for field documentation.
	PortfolioOptions = portfolio.Options
	// PortfolioResult carries the winning schedule plus per-scheduler
	// timing and cost stats in deterministic candidate order.
	PortfolioResult = portfolio.Result
	// PortfolioCandidate is one scheduler in a portfolio.
	PortfolioCandidate = portfolio.Candidate
	// PortfolioCandidateResult is one scheduler's outcome.
	PortfolioCandidateResult = portfolio.CandidateResult
	// AnytimeCertificate states what an anytime portfolio run is worth:
	// cost, proven lower bound, relative gap, degradation rung, and the
	// per-candidate completion/failure ledger.
	AnytimeCertificate = portfolio.Certificate
	// SchedulerFailure is one candidate's classified failure.
	SchedulerFailure = portfolio.FailureRecord
	// SchedulerFailureKind classifies why a candidate failed (timeout,
	// cancellation, panic, invalid schedule, incumbent cutoff, error).
	SchedulerFailureKind = portfolio.FailureKind
	// SchedulerPanicError wraps a panic recovered from a candidate.
	SchedulerPanicError = portfolio.PanicError
	// FaultInjector is the seeded deterministic fault-injection harness
	// (ILPOptions.Inject, also as PortfolioOptions.ILP.Inject).
	FaultInjector = faultinject.Injector
	// FaultMode is one injectable fault class.
	FaultMode = faultinject.Mode
)

// Fault-injection constructors (see internal/faultinject).
var (
	// NewFaultInjector builds an injector from a seed, per-decision rate
	// (0 selects the default), injected latency (0 selects the default)
	// and mode set (none selects all modes).
	NewFaultInjector = faultinject.New
	// ParseFaultModes parses a comma-separated mode list ("cold,singular",
	// "latency", "cancel", or "all").
	ParseFaultModes = faultinject.ParseModes
)

// DefaultCandidates returns every scheduler applicable to g on arch: the
// two-stage baselines (BSPg/Cilk/DFS × clairvoyant/LRU), the holistic
// ILP, and the divide-and-conquer ILP for DAGs large enough to split.
func DefaultCandidates(g *DAG, arch Arch) []PortfolioCandidate {
	return portfolio.DefaultCandidates(g, arch)
}

// SchedulePortfolio races every applicable scheduler concurrently over a
// bounded worker pool, validates each result, and returns the cheapest
// valid schedule with per-scheduler stats. Concurrency adds no
// nondeterminism: for a fixed opts.ILP.Seed, results are identical under
// any GOMAXPROCS whenever the candidate budgets bind deterministically
// (use opts.ILP.NodeLimit instead of the wall-clock ILP.TimeLimit for
// byte-identical schedules).
//
// SchedulePortfolio is anytime: under deadlines, cancellation, exhausted
// node budgets, candidate panics or individual scheduler failures it
// still returns the best validated schedule obtainable — degrading, when
// every candidate fails, to the run's two-stage baseline — together with
// a populated Result.Certificate stating the cost, a proven lower bound,
// the gap, and which candidates completed, degraded or failed. An error
// is returned only when the instance admits no valid schedule at all (or
// the options are unusable). A caller that prefers failure over a
// degraded schedule checks Certificate.FallbackUsed.
func SchedulePortfolio(ctx context.Context, g *DAG, arch Arch, opts PortfolioOptions) (*PortfolioResult, error) {
	return portfolio.RunAnytime(ctx, g, arch, opts)
}

// Machine-readable results (the scheduling service's response shape,
// shared with mbsp-sched -json so both surfaces emit diffable bytes).
type (
	// ScheduleResponse is the full machine-readable scheduling result:
	// DAG identity (fingerprint + digest), architecture, costs, the
	// anytime certificate, the per-candidate ledger and the schedule
	// text. It contains no wall-clock timings, so two deterministic runs
	// produce byte-identical responses.
	ScheduleResponse = wire.Response
	// ScheduleCertificateInfo is the certificate section of a
	// ScheduleResponse.
	ScheduleCertificateInfo = wire.CertificateInfo
	// ScheduleCacheInfo is the per-request cache provenance the server
	// stamps on responses (absent in CLI output).
	ScheduleCacheInfo = wire.CacheInfo
)

// ScheduleResponse builders.
var (
	// NewScheduleResponse builds a response for a bare schedule produced
	// by a single method.
	NewScheduleResponse = wire.FromSchedule
	// NewPortfolioResponse builds a response from a portfolio result,
	// including the anytime certificate and candidate ledger.
	NewPortfolioResponse = wire.FromResult
	// CostModelName renders a cost model for the wire ("sync"/"async").
	CostModelName = wire.ModelName
)

// DNCStats reports a divide-and-conquer run.
type DNCStats = dnc.Stats

// ScheduleDNC runs the divide-and-conquer ILP scheduler for larger DAGs:
// it splits g into parts of at most maxPartSize nodes (≤ 0 selects the
// default) and schedules each part with the ILP scheduler under opts,
// which must leave WarmStart and NeedBlue unset.
func ScheduleDNC(g *DAG, arch Arch, maxPartSize int, opts ILPOptions) (*Schedule, DNCStats, error) {
	return dnc.Solve(g, arch, maxPartSize, opts)
}

// ExactResult is the outcome of the exact single-processor solver.
type ExactResult = exact.Result

// SolveExactP1 computes the optimal single-processor pebbling (red-blue
// pebble game with compute costs) for small DAGs by shortest path over
// configurations.
func SolveExactP1(g *DAG, r, gFac float64) (ExactResult, error) {
	return exact.Solve(g, r, gFac)
}

// RefineOptions configures the holistic local-search polisher.
type RefineOptions = refine.Options

// RefineResult reports a local-search run.
type RefineResult = refine.Result

// Refine improves a schedule by holistic local search over processor
// assignments.
func Refine(s *Schedule, opts RefineOptions) RefineResult {
	return refine.Improve(s, opts)
}

// Eviction policies for the two-stage pipelines.
type (
	// Clairvoyant evicts the value with the furthest next use (Bélády).
	Clairvoyant = memmgr.Clairvoyant
	// LRU evicts the least recently used value.
	LRU = memmgr.LRU
)

// Experiment harness re-exports.
type (
	// ExperimentConfig carries model and budget parameters.
	ExperimentConfig = experiments.Config
	// ResultTable is a rendered experiment table.
	ResultTable = experiments.Table
	// BoxSummary is a five-number ratio summary (Figure 4).
	BoxSummary = experiments.BoxSummary
)

// Experiment entry points; see internal/experiments.
var (
	BaseConfig      = experiments.Base
	RunTable1       = experiments.Table1
	RunTable2       = experiments.Table2
	RunTable3       = experiments.Table3
	RunTable4       = experiments.Table4
	RunFigure4      = experiments.Figure4
	RunP1Experiment = experiments.SingleProcessor
	GeoMean         = experiments.GeoMean
)

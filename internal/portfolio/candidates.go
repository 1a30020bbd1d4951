package portfolio

import (
	"context"

	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/twostage"
)

// Candidate is one scheduler in the portfolio. Run must be safe for
// concurrent use with other candidates on the same DAG (schedulers never
// mutate the input graph) and should honor ctx where it can; fast greedy
// candidates may ignore it.
type Candidate struct {
	Name string
	Run  func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, error)
}

// DNCMinNodes gates the divide-and-conquer candidate: below this size a
// single holistic ILP window covers the whole DAG, so the split only adds
// boundary traffic. Exported so the solver benchmark measures the same
// instance set the portfolio's DnC gate selects.
const DNCMinNodes = 24

// DefaultCandidates returns every scheduler applicable to g on arch: the
// two-stage pipelines of twostage.Pipelines (stage-1 BSPg/Cilk/DFS ×
// clairvoyant/LRU eviction, only DFS on P=1), the holistic ILP, and — for
// DAGs large enough to split — its divide-and-conquer variant.
func DefaultCandidates(g *graph.DAG, arch mbsp.Arch) []Candidate {
	var cands []Candidate
	for i, pl := range twostage.Pipelines(arch) {
		cands = append(cands, pipelineCandidate(pl, i == 0))
	}
	cands = append(cands, ILPCandidate())
	if g.N() >= DNCMinNodes {
		cands = append(cands, DNCCandidate(0))
	}
	return cands
}

// pipelineCandidate wraps a two-stage pipeline as a candidate named after
// it and seeded from that name. The pipelines are greedy and fast, so
// they only consult ctx up front. Inside a portfolio run the baseline
// pipeline returns the run's memoized baseline (or the error that felled
// it) instead of recomputing it.
func pipelineCandidate(pl twostage.Pipeline, baseline bool) Candidate {
	name := pl.Name()
	return Candidate{Name: name, Run: func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sh := opts.shared; baseline && sh != nil {
			return sh.warm, sh.warmErr
		}
		return pl.Run(g, arch, candidateSeed(opts.ILP.Seed, name), nil)
	}}
}

// ilpOptions is the ilpsched configuration both ILP-based candidates run
// under: the portfolio's opts.ILP with the candidate's context, its own
// seed and its factorization accumulator.
func ilpOptions(ctx context.Context, opts Options, name string) ilpsched.Options {
	o := opts.ILP
	o.Context, o.Seed, o.LUStats = ctx, candidateSeed(o.Seed, name), opts.LUStats
	return o
}

// ILPCandidate is the holistic ILP scheduler under the portfolio's time
// budget. Cancellation returns its best-so-far schedule (at minimum the
// warm start), never an error. It reuses the run's memoized baseline as
// its warm start (and fails with it, rather than rebuilding it).
func ILPCandidate() Candidate {
	return Candidate{Name: "ilp", Run: func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, error) {
		ilpOpts := ilpOptions(ctx, opts, "ilp")
		if sh := opts.shared; sh != nil {
			if sh.warm == nil {
				return nil, sh.warmErr
			}
			ilpOpts.WarmStart = sh.warm
		}
		s, _, err := ilpsched.Solve(g, arch, ilpOpts)
		return s, err
	}}
}

// DNCCandidate is the divide-and-conquer ILP scheduler; maxPart ≤ 0
// selects the dnc default part size. Each part's sub-ILP runs with a
// quarter of the local-search budget and no shared warm start. Under
// Options.ILP.NodeLimit both the partitioning ILPs and the per-part
// scheduling ILPs run node-limited, so dnc-ilp joins the byte-identical
// determinism guarantee; the shared incumbent cuts hopeless runs off
// between parts. Options.PartitionMemo, when set, serves the
// partitioning stage.
func DNCCandidate(maxPart int) Candidate {
	return Candidate{Name: "dnc-ilp", Run: func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts Options) (*mbsp.Schedule, error) {
		dncOpts := ilpOptions(ctx, opts, "dnc-ilp")
		dncOpts.LocalSearchBudget /= 4
		if sh := opts.shared; sh != nil {
			dncOpts.Incumbent = sh.inc
		}
		s, _, err := opts.PartitionMemo.Solve(g, arch, maxPart, dncOpts)
		return s, err
	}}
}

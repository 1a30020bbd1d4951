// Package dnc implements the paper's divide-and-conquer ILP scheduler
// (Section 6.3 / Appendix C.2) for DAGs too large for the full ILP:
//
//  1. the DAG is split by recursive ILP-based acyclic bipartitioning into
//     parts of bounded size;
//  2. a high-level plan orders the parts topologically (we schedule the
//     parts sequentially, each with the full processor set — the paper's
//     "close to sequential" case; its multi-processor quotient plan is a
//     refinement on top of this);
//  3. each part becomes an MBSP subproblem: nodes of earlier parts that
//     feed the part appear as loadable inputs, and values consumed by
//     later parts must be saved to slow memory (NeedBlue); each
//     subproblem is solved with the ILP scheduler, warm-started from a
//     two-stage sub-baseline;
//  4. the subschedules are concatenated, caches are flushed at part
//     borders, and a streamlining pass merges adjacent supersteps and
//     cancels delete/load pairs introduced by the split.
//
// As in the paper, this is a heuristic: each sub-ILP optimizes its own
// window, so the concatenation can be worse than the plain two-stage
// baseline on graphs that do not partition well.
package dnc

import (
	"errors"
	"fmt"

	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/partition"
	"mbsp/internal/twostage"
)

// ErrIncumbentCutoff reports that a divide-and-conquer run stopped early
// because the schedule prefix already cost at least the shared incumbent
// bound: the concatenation could not have beaten the portfolio's best.
var ErrIncumbentCutoff = errors.New("dnc: cut off by shared incumbent bound")

// Stats reports what the divide-and-conquer run did.
type Stats struct {
	Parts    int
	CutEdges int
	// PartitionSolver sums the branch-and-bound counters of the
	// partitioning-stage bipartition ILPs, SubILPs those of every
	// part's sub-ILP tree.
	PartitionSolver mip.Counters
	SubILPs         mip.Counters
	FinalCost       float64
	StreamlineWin   float64 // cost reduction achieved by streamlining
}

// Solve schedules g on arch with the divide-and-conquer ILP method,
// splitting g into parts of at most maxPartSize nodes (≤ 0 selects 45;
// the paper splits to parts of at most 60). opts configures the run as it
// would one holistic ILP; the ilpsched.Options doc lists the fields Solve
// reads. Each part's sub-ILP runs under a copy of opts with that part's
// WarmStart and NeedBlue, so the caller must leave both unset. A done
// opts.Context stops the run with its error during partitioning or
// between parts (a partial concatenation is never a valid schedule).
//
// opts.Incumbent, when non-nil, is the portfolio-wide shared bound on the
// full-schedule cost under Model. Subschedule costs are additive across
// parts, so once the concatenated prefix alone reaches the bound the run
// cannot win and Solve returns ErrIncumbentCutoff. (Streamlining can
// recover a little cost afterwards, so the cutoff is a heuristic: it may
// abandon a run that would have finished within a streamline-win of the
// bound — acceptable for a portfolio candidate whose result would at best
// tie.)
func Solve(g *graph.DAG, arch mbsp.Arch, maxPartSize int, opts ilpsched.Options) (*mbsp.Schedule, Stats, error) {
	return solve(g, arch, maxPartSize, opts, nil)
}

// solve is Solve with the partitioning stage served by memo (nil: none).
func solve(g *graph.DAG, arch mbsp.Arch, maxPartSize int, opts ilpsched.Options, memo *Memo) (*mbsp.Schedule, Stats, error) {
	var stats Stats
	if opts.WarmStart != nil || opts.NeedBlue != nil {
		return nil, stats, errors.New("dnc: WarmStart and NeedBlue are set per part, not by the caller")
	}
	if maxPartSize <= 0 {
		maxPartSize = 45
	}
	if g.MinCache() > arch.R {
		return nil, stats, twostage.ErrCacheTooSmall
	}

	pres, err := memo.partition(g, maxPartSize, opts.Tree())
	stats.PartitionSolver = pres.Solver
	if err != nil {
		return nil, stats, fmt.Errorf("dnc: partitioning: %w", err)
	}
	stats.Parts = pres.K
	stats.CutEdges = pres.CutEdges
	parts := partition.Parts(pres.Part, pres.K)

	out := mbsp.NewSchedule(g, arch)
	for k, nodes := range parts {
		if opts.Context != nil && opts.Context.Err() != nil {
			return nil, stats, fmt.Errorf("dnc: cancelled before part %d: %w", k, opts.Context.Err())
		}
		// Early cutoff: superstep costs are additive under concatenation,
		// so a prefix that already reaches the portfolio-wide bound
		// cannot produce a winning schedule.
		if k > 0 && opts.Incumbent != nil {
			if partial := out.Cost(opts.Model); partial >= opts.Incumbent.Get() {
				return nil, stats, fmt.Errorf("%w: prefix cost %g after %d/%d parts (bound %g)",
					ErrIncumbentCutoff, partial, k, len(parts), opts.Incumbent.Get())
			}
		}
		sub, schedErr := schedulePart(g, arch, opts, pres.Part, k, nodes, &stats)
		if schedErr != nil {
			return nil, stats, fmt.Errorf("dnc: part %d: %w", k, schedErr)
		}
		out.Steps = append(out.Steps, sub.Steps...)
	}
	if err := out.Validate(); err != nil {
		return nil, stats, fmt.Errorf("dnc: concatenated schedule invalid: %w", err)
	}
	before := out.Cost(opts.Model)
	streamline(out, opts.Model)
	stats.StreamlineWin = before - out.Cost(opts.Model)
	stats.FinalCost = out.Cost(opts.Model)
	return out, stats, nil
}

// schedulePart builds and solves the subproblem of part k and returns its
// subschedule translated to global node ids, ending with a cache flush.
func schedulePart(g *graph.DAG, arch mbsp.Arch, opts ilpsched.Options, part []int, k int, nodes []int, stats *Stats) (*mbsp.Schedule, error) {
	// Sub-DAG: the part plus boundary inputs from earlier parts (which
	// become sources of the sub-DAG, i.e. loadable values).
	inSet := map[int]bool{}
	for _, v := range nodes {
		inSet[v] = true
	}
	var boundary []int
	bSet := map[int]bool{}
	for _, v := range nodes {
		for _, u := range g.Parents(v) {
			if !inSet[u] && !bSet[u] {
				bSet[u] = true
				boundary = append(boundary, u)
			}
		}
	}
	// Build the sub-DAG manually: boundary inputs become bare sources
	// (edges between two boundary nodes are dropped — both values are
	// already in slow memory, so inside this window they are plain
	// inputs).
	sub := graph.New(fmt.Sprintf("%s/part%d", g.Name(), k))
	orig := make([]int, 0, len(boundary)+len(nodes))
	toSub := make(map[int]int, len(boundary)+len(nodes))
	for _, u := range boundary {
		toSub[u] = sub.AddNodeLabeled(g.Label(u), g.Comp(u), g.Mem(u))
		orig = append(orig, u)
	}
	for _, v := range nodes {
		toSub[v] = sub.AddNodeLabeled(g.Label(v), g.Comp(v), g.Mem(v))
		orig = append(orig, v)
	}
	for _, v := range nodes {
		for _, u := range g.Parents(v) {
			sub.AddEdge(toSub[u], toSub[v])
		}
	}
	// Every parent of a part node is in the part or on the boundary, and
	// every edge into a part node is copied, so a part node is a sub-DAG
	// source exactly when it is a global source (already blue). A part
	// node that lost its parents would never be computed.
	for _, v := range nodes {
		if !g.IsSource(v) && sub.IsSource(toSub[v]) {
			return nil, fmt.Errorf("internal: node %d lost its parents in the sub-DAG", v)
		}
	}
	// Values needed by later parts (or globally sinks) must end blue.
	// Sub-sinks are saved by construction; the warm start still forces
	// their save for safety.
	var needBlue, extraSave []int
	for _, v := range nodes {
		if g.IsSource(v) {
			continue
		}
		needed := g.IsSink(v)
		for _, w := range g.Children(v) {
			if part[w] > k {
				needed = true
			}
		}
		if !needed {
			continue
		}
		extraSave = append(extraSave, toSub[v])
		if !sub.IsSink(toSub[v]) {
			needBlue = append(needBlue, toSub[v])
		}
	}

	// Warm start: two-stage baseline on the sub-DAG with forced saves.
	warm, err := twostage.Baseline(arch).Run(sub, arch, 0, extraSave)
	if err != nil {
		return nil, fmt.Errorf("sub-baseline: %w", err)
	}
	if len(warm.Steps) == 0 {
		// Every node of the part is a global source (already blue) and
		// nothing needs saving: the empty subschedule is optimal, and the
		// sub-ILP cannot warm-start from zero supersteps. Wall-clock
		// partition budgets can produce such parts.
		return mbsp.NewSchedule(g, arch), nil
	}

	subOpts := opts
	subOpts.WarmStart = warm
	subOpts.NeedBlue = needBlue
	subOpts.Incumbent = nil
	subOpts.Seed += int64(k)
	subSched, subStats, err := ilpsched.Solve(sub, arch, subOpts)
	if err != nil {
		return nil, err
	}
	stats.SubILPs.Add(subStats.Counters)

	// Translate to global ids.
	glob := mbsp.NewSchedule(g, arch)
	for i := range subSched.Steps {
		st := glob.AddSuperstep()
		for p := range subSched.Steps[i].Procs {
			src := &subSched.Steps[i].Procs[p]
			dst := &st.Procs[p]
			for _, op := range src.Comp {
				dst.Comp = append(dst.Comp, mbsp.Op{Kind: op.Kind, Node: orig[op.Node]})
			}
			for _, v := range src.Save {
				dst.Save = append(dst.Save, orig[v])
			}
			for _, v := range src.Del {
				dst.Del = append(dst.Del, orig[v])
			}
			for _, v := range src.Load {
				dst.Load = append(dst.Load, orig[v])
			}
		}
	}
	// Flush all remaining red pebbles so the next part starts from a
	// clean cache (streamlining later cancels flush/reload pairs).
	reds, err := subSched.FinalRedSets()
	if err != nil {
		return nil, fmt.Errorf("replaying subschedule: %w", err)
	}
	if len(glob.Steps) > 0 {
		last := &glob.Steps[len(glob.Steps)-1]
		for p, vs := range reds {
			for _, v := range vs {
				already := false
				for _, d := range last.Procs[p].Del {
					if d == orig[v] {
						already = true
					}
				}
				if !already {
					last.Procs[p].Del = append(last.Procs[p].Del, orig[v])
				}
			}
		}
	}
	return glob, nil
}

// streamline merges adjacent supersteps when valid and not more
// expensive, and cancels delete/load pairs at part borders: if processor
// p deletes v in superstep i and loads v in superstep j > i with no
// intervening activity on v at p, both operations are dropped when the
// schedule stays valid.
func streamline(s *mbsp.Schedule, model mbsp.CostModel) {
	cancelDeleteLoadPairs(s)
	s.MergeSteps(model)
}

func cancelDeleteLoadPairs(s *mbsp.Schedule) {
	type key struct{ p, v int }
	pendingDel := map[key][2]int{} // -> (superstep, del index)
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			// Any activity on v cancels a pending deletion match.
			for _, op := range ps.Comp {
				delete(pendingDel, key{p, op.Node})
			}
			for _, v := range ps.Save {
				delete(pendingDel, key{p, v})
			}
			for li, v := range ps.Load {
				if rec, ok := pendingDel[key{p, v}]; ok {
					trial := s.Clone()
					dst := &trial.Steps[rec[0]].Procs[p]
					dst.Del = append(dst.Del[:rec[1]], dst.Del[rec[1]+1:]...)
					lst := &trial.Steps[i].Procs[p]
					lst.Load = append(lst.Load[:li], lst.Load[li+1:]...)
					if trial.Validate() == nil {
						*s = *trial
						// Indices changed; restart the scan.
						cancelDeleteLoadPairs(s)
						return
					}
					delete(pendingDel, key{p, v})
				}
			}
			for di, v := range ps.Del {
				pendingDel[key{p, v}] = [2]int{i, di}
			}
		}
	}
}

// Package refine implements a holistic local search over MBSP schedules:
// it perturbs the processor assignment of individual nodes, re-derives
// superstep structure and cache management, and keeps changes that lower
// the exact MBSP cost. It serves as a primal heuristic inside the ILP
// scheduler (modern MILP solvers run comparable heuristics alongside the
// tree search) and as a standalone schedule polisher.
//
// Unlike the two-stage baseline — whose stage 1 never sees the memory
// constraint — every candidate here is evaluated with the full MBSP cost,
// so the search is holistic in exactly the paper's sense. The search is
// anytime: once Options.Context is done it returns the best schedule
// found so far.
package refine

import (
	"context"
	"math/rand"

	"mbsp/internal/bsp"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
)

// Options tunes the search.
type Options struct {
	// Budget caps the moves evaluated, default 4000. Every move counts,
	// whether it is converted and costed, screened by its lower bound,
	// or a no-op swap.
	Budget int
	Seed   int64 // RNG seed
	Model  mbsp.CostModel
	Policy memmgr.Policy // eviction policy for candidate conversion; default clairvoyant
	// ExtraSave lists nodes that must be saved to slow memory when
	// produced (divide-and-conquer boundary values).
	ExtraSave []int
	// Context, when non-nil, stops the search early once it is done; the
	// best schedule found so far is still returned.
	Context context.Context
}

// Result reports the outcome.
type Result struct {
	Schedule *mbsp.Schedule
	Cost     float64
	Evals    int
	// Screened counts the evaluations that the lower bound rejected
	// without converting them. Like Evals, it is the same on every run
	// that Options.Context does not cut short.
	Screened int
	Improved bool
}

// maxRejectSlots caps the local search's table of rejected moves, two
// slots per node and processor (4 MiB of uint32). A search on a larger
// DAG × P re-scores repeated moves instead.
const maxRejectSlots = 1 << 20

// InitialAssignment extracts a node→processor assignment from an MBSP
// schedule: each node goes to the processor that computes it first.
// Source nodes map to −1.
func InitialAssignment(s *mbsp.Schedule) []int {
	g := s.Graph
	proc := make([]int, g.N())
	for v := range proc {
		proc[v] = -1
	}
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			for _, op := range s.Steps[i].Procs[p].Comp {
				if op.Kind == mbsp.OpCompute && proc[op.Node] == -1 {
					proc[op.Node] = p
				}
			}
		}
	}
	return proc
}

// Improve runs hill-climbing over processor assignments starting from the
// given valid schedule, returning the best schedule found (possibly the
// input). Each move derives a BSP schedule from the trial assignment. A
// move whose lower bound already rules it out is rejected there; any
// other is converted and costed, and validated only if the search would
// adopt it.
func Improve(start *mbsp.Schedule, opts Options) Result {
	if opts.Budget == 0 {
		opts.Budget = 4000
	}
	if opts.Policy == nil {
		opts.Policy = memmgr.Clairvoyant{}
	}
	g := start.Graph
	arch := start.Arch
	best := start
	bestCost := start.Cost(opts.Model)
	res := Result{Schedule: best, Cost: bestCost}
	if arch.P < 2 {
		// Single processor: assignment moves do not exist.
		return res
	}

	proc := InitialAssignment(start)
	// Candidate evaluation: assignment → BSP schedule → lower bound →
	// MBSP conversion → cost. Most candidates are rejected, so the
	// topological order is computed once, and one BSP schedule's, one
	// bound's, one converter's and one cost scratch's storage serve every
	// move. A candidate is validated only when the search would adopt
	// it; a new best is copied out of the converter.
	order, topoErr := g.TopoOrder()
	var bound *moveBound
	if topoErr == nil {
		bound = newMoveBound(g, arch, opts.ExtraSave)
	}
	var b bsp.Schedule
	var conv twostage.Converter
	var cost mbsp.CostScratch
	// eval scores the trial pr, which the search adopts only at a cost
	// below limit. A trial whose lower bound shows that it cannot cost
	// less is screened: it counts as an evaluation but is not converted.
	eval := func(pr []int, limit float64) (*mbsp.Schedule, float64, bool) {
		res.Evals++
		if topoErr != nil {
			return nil, 0, false
		}
		b.FromAssignment(g, arch.P, pr, order)
		if bound != nil && bound.lower(&b, arch, opts.Model)*(1-screenSlack) >= limit {
			res.Screened++
			return nil, 0, false
		}
		s, err := conv.Convert(&b, arch, opts.Policy, opts.ExtraSave)
		if err != nil {
			return nil, 0, false
		}
		return s, cost.Cost(s, opts.Model), true
	}
	keep := func(s *mbsp.Schedule, c float64) {
		best, bestCost = s.Clone(), c
		res.Improved = true
	}
	// The re-derived schedule for the initial assignment may itself
	// already differ from (even beat) the input.
	if s, c, ok := eval(proc, bestCost); ok && c < bestCost && s.Validate() == nil {
		keep(s, c)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	var movable []int
	for v := 0; v < g.N(); v++ {
		if !g.IsSource(v) {
			movable = append(movable, v)
		}
	}
	if len(movable) == 0 {
		res.Schedule, res.Cost = best, bestCost
		return res
	}
	cur := append([]int(nil), proc...)
	trial := make([]int, len(cur))
	curCost := bestCost
	stale := 0
	// rejected remembers, per single-node or node-plus-children move
	// (move, v, q), the epoch in which it was last rejected, shifted
	// left once, with the low bit set if the bound screened it. The
	// epoch rises with every accepted move, so a slot stamped with the
	// current epoch names a trial rejected against the same cur and the
	// same limit, which would be rejected again: the search counts it
	// without re-scoring it (DESIGN.md, "Rejected moves are not
	// re-scored"). The table is left out above maxRejectSlots.
	var rejected []uint32
	if 2*g.N()*arch.P <= maxRejectSlots {
		rejected = make([]uint32, 2*g.N()*arch.P)
	}
	epoch := uint32(1)
	for res.Evals < opts.Budget && stale < 6*len(movable) {
		if opts.Context != nil && opts.Context.Err() != nil {
			res.Schedule, res.Cost = best, bestCost
			return res
		}
		v := movable[rng.Intn(len(movable))]
		move := rng.Intn(3)
		slot := -1
		if move < 2 { // move one node (0), or a node and its same-proc children (1), to another processor
			q := rng.Intn(arch.P)
			if q == cur[v] {
				q = (q + 1) % arch.P
			}
			if rejected != nil {
				slot = (move*g.N()+v)*arch.P + q
				if rejected[slot]>>1 == epoch {
					res.Evals++
					res.Screened += int(rejected[slot] & 1)
					stale++
					continue
				}
			}
			copy(trial, cur)
			trial[v] = q
			if move == 1 {
				for _, w := range g.Children(v) {
					if !g.IsSource(w) && trial[w] == cur[v] {
						trial[w] = q
					}
				}
			}
		} else { // swap processors of two nodes
			w := movable[rng.Intn(len(movable))]
			if cur[v] == cur[w] {
				// A no-op swap: the trial is cur, which always scores
				// as cur did and is rejected. It still spends a move.
				res.Evals++
				stale++
				continue
			}
			copy(trial, cur)
			trial[v], trial[w] = trial[w], trial[v]
		}
		screened := res.Screened
		s, c, ok := eval(trial, curCost-1e-9)
		if ok && c < curCost-1e-9 && s.Validate() == nil {
			cur, trial, curCost = trial, cur, c
			stale = 0
			if c < bestCost {
				keep(s, c)
			}
			if epoch++; epoch == 1<<31 {
				clear(rejected)
				epoch = 1
			}
		} else {
			stale++
			if slot >= 0 {
				rejected[slot] = epoch<<1 | uint32(res.Screened-screened)
			}
		}
	}
	res.Schedule, res.Cost = best, bestCost
	return res
}

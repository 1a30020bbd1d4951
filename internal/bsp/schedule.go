// Package bsp implements the first stage of the paper's two-stage
// baseline: classical BSP DAG scheduling without memory constraints.
// It provides the BSP schedule representation and cost model, the
// BSPg-style greedy list scheduler, a Cilk-style work-stealing scheduler,
// a single-processor DFS scheduler, and (in ilp.go) an ILP formulation of
// BSP scheduling used as the paper's stronger stage-1 baseline.
package bsp

import (
	"fmt"
	"sort"

	"mbsp/internal/graph"
)

// Schedule is a BSP schedule: every non-source node is assigned a
// processor and a superstep. Source nodes are inputs residing in slow
// memory; they carry Proc = Step = -1 (as in the paper's MBSP reading of
// BSP schedules, sources are loaded rather than computed).
type Schedule struct {
	Graph    *graph.DAG
	P        int
	Proc     []int // per node, -1 for sources
	Step     []int // per node, -1 for sources
	Pos      []int // assignment sequence number, orders nodes within (proc, step)
	NumSteps int
	nextPos  int
}

// NewSchedule allocates an unassigned BSP schedule shell.
func NewSchedule(g *graph.DAG, p int) *Schedule {
	s := &Schedule{Graph: g, P: p,
		Proc: make([]int, g.N()), Step: make([]int, g.N()), Pos: make([]int, g.N())}
	for v := range s.Proc {
		s.Proc[v] = -1
		s.Step[v] = -1
		s.Pos[v] = -1
	}
	return s
}

// Assign places node v on processor p in superstep step. Assignment
// order fixes the compute order within a (processor, superstep) pair, so
// schedulers must assign in an order consistent with the DAG.
func (s *Schedule) Assign(v, p, step int) {
	s.Proc[v] = p
	s.Step[v] = step
	s.Pos[v] = s.nextPos
	s.nextPos++
	if step+1 > s.NumSteps {
		s.NumSteps = step + 1
	}
}

// Validate checks BSP validity: every non-source node is assigned a
// processor in [0,P) and a superstep; for every edge (u,v) between
// non-source nodes, step(u) < step(v) when they sit on different
// processors and step(u) ≤ step(v) when on the same processor.
func (s *Schedule) Validate() error {
	g := s.Graph
	for v := 0; v < g.N(); v++ {
		if g.IsSource(v) {
			if s.Proc[v] != -1 || s.Step[v] != -1 {
				return fmt.Errorf("bsp: source node %d must be unassigned", v)
			}
			continue
		}
		if s.Proc[v] < 0 || s.Proc[v] >= s.P {
			return fmt.Errorf("bsp: node %d has processor %d out of range", v, s.Proc[v])
		}
		if s.Step[v] < 0 {
			return fmt.Errorf("bsp: node %d unassigned", v)
		}
		for _, u := range g.Parents(v) {
			if g.IsSource(u) {
				continue
			}
			switch {
			case s.Proc[u] == s.Proc[v]:
				if s.Step[u] > s.Step[v] {
					return fmt.Errorf("bsp: edge (%d,%d) violates same-proc order: steps %d > %d",
						u, v, s.Step[u], s.Step[v])
				}
			default:
				if s.Step[u] >= s.Step[v] {
					return fmt.Errorf("bsp: edge (%d,%d) crosses processors without a superstep boundary (steps %d, %d)",
						u, v, s.Step[u], s.Step[v])
				}
			}
		}
	}
	return nil
}

// ComputeOrder returns, for each (processor, superstep), the nodes
// computed there in the scheduler's assignment order (which schedulers
// keep consistent with the DAG). Index as order[p][s].
func (s *Schedule) ComputeOrder() [][][]int {
	order := make([][][]int, s.P)
	for p := range order {
		order[p] = make([][]int, s.NumSteps)
	}
	for v := 0; v < s.Graph.N(); v++ {
		if s.Graph.IsSource(v) || s.Proc[v] < 0 {
			continue
		}
		order[s.Proc[v]][s.Step[v]] = append(order[s.Proc[v]][s.Step[v]], v)
	}
	for p := range order {
		for t := range order[p] {
			bucket := order[p][t]
			sort.Slice(bucket, func(a, b int) bool { return s.Pos[bucket[a]] < s.Pos[bucket[b]] })
		}
	}
	return order
}

// CheckOrder verifies that the assignment order is topologically
// consistent within every (processor, superstep) bucket.
func (s *Schedule) CheckOrder() error {
	order := s.ComputeOrder()
	for p := range order {
		for t := range order[p] {
			seen := make(map[int]bool)
			for _, v := range order[p][t] {
				for _, u := range s.Graph.Parents(v) {
					if !s.Graph.IsSource(u) && s.Proc[u] == p && s.Step[u] == t && !seen[u] {
						return fmt.Errorf("bsp: node %d ordered before its parent %d in (proc %d, step %d)", v, u, p, t)
					}
				}
				seen[v] = true
			}
		}
	}
	return nil
}

// Cost evaluates the classical BSP cost of the schedule:
//
//	Σ_s [ max_p work(p,s) + g·h_s + L ]
//
// where h_s = max_p max(sent(p,s), recv(p,s)), with μ-weighted
// communication volumes. A value computed on p and consumed on q≠p is
// sent in the superstep where it is computed; source values consumed on a
// processor are received (from slow memory) in the superstep before their
// first use. Empty trailing supersteps contribute only their L.
func (s *Schedule) Cost(g1, l float64) float64 {
	g := s.Graph
	work := make([][]float64, s.P)
	sent := make([][]float64, s.P)
	recv := make([][]float64, s.P)
	numSteps := s.NumSteps + 1 // slot -1 shifted by one for source receives
	for p := 0; p < s.P; p++ {
		work[p] = make([]float64, numSteps)
		sent[p] = make([]float64, numSteps)
		recv[p] = make([]float64, numSteps)
	}
	step := func(v int) int { return s.Step[v] + 1 } // shift
	for v := 0; v < g.N(); v++ {
		if g.IsSource(v) {
			// Receivers get the value just before their earliest use.
			firstUse := make(map[int]int)
			for _, w := range g.Children(v) {
				p := s.Proc[w]
				if t, ok := firstUse[p]; !ok || step(w) < t {
					firstUse[p] = step(w)
				}
			}
			for p, t := range firstUse {
				recv[p][t-1] += g.Mem(v)
			}
			continue
		}
		work[s.Proc[v]][step(v)] += g.Comp(v)
		// Cross-processor consumers receive v; sender pays once per
		// distinct destination, in the superstep where v is computed.
		dests := make(map[int]bool)
		for _, w := range g.Children(v) {
			if s.Proc[w] != s.Proc[v] {
				dests[s.Proc[w]] = true
			}
		}
		for q := range dests {
			sent[s.Proc[v]][step(v)] += g.Mem(v)
			// Receiver gets it in the same communication phase.
			recv[q][step(v)] += g.Mem(v)
		}
	}
	total := 0.0
	for t := 0; t < numSteps; t++ {
		var maxWork, h float64
		for p := 0; p < s.P; p++ {
			maxWork = max(maxWork, work[p][t])
			h = max(h, max(sent[p][t], recv[p][t]))
		}
		if maxWork == 0 && h == 0 {
			continue
		}
		total += maxWork + g1*h + l
	}
	return total
}

// FromAssignment converts a bare node→processor assignment into a valid
// BSP schedule by computing the earliest superstep per node: a node
// starts a new superstep whenever it depends on a value computed on a
// different processor in the current superstep. Returns graph.ErrCyclic
// for a cyclic input graph.
func FromAssignment(g *graph.DAG, p int, proc []int) (*Schedule, error) {
	s := NewSchedule(g, p)
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, v := range order {
		if g.IsSource(v) {
			continue
		}
		step := 0
		for _, u := range g.Parents(v) {
			if g.IsSource(u) {
				continue
			}
			if proc[u] == proc[v] {
				step = max(step, s.Step[u])
			} else {
				step = max(step, s.Step[u]+1)
			}
		}
		s.Assign(v, proc[v], step)
	}
	return s, nil
}

// procLoadOrder returns processors ordered by current load, then index —
// a deterministic helper for greedy schedulers.
func procLoadOrder(load []float64) []int {
	idx := make([]int, len(load))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if load[idx[a]] != load[idx[b]] {
			return load[idx[a]] < load[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

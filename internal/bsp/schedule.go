// Package bsp implements the first stage of the paper's two-stage
// baseline: classical BSP DAG scheduling without memory constraints.
// It provides the BSP schedule representation and cost model, the
// BSPg-style greedy list scheduler, a Cilk-style work-stealing scheduler,
// a single-processor DFS scheduler, and (in ilp.go) an ILP formulation of
// BSP scheduling used as the paper's stronger stage-1 baseline.
package bsp

import (
	"fmt"
	"slices"
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

// Sequences lists every processor's nodes in compute order: by
// superstep, and by Pos within a superstep. Processor p's nodes are
// Nodes[Off[p]:Off[p+1]]. Fill overwrites it, reusing its storage, so
// one Sequences serves many schedules.
type Sequences struct {
	Nodes []int
	Off   []int
	// Scratch for Fill: the node at each Pos (or -1), the nodes ordered
	// by (superstep, Pos), and a counter per superstep.
	byPos  []int
	byStep []int
	count  []int
}

// resized returns s with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resized(s []int, n int) []int {
	return slices.Grow(s[:0], n)[:n]
}

// Fill sets q to the compute sequences of s's assigned non-source
// nodes. Pos is unique among them (Assign numbers assignments), so
// listing the nodes by Pos is a counting sort on Pos; two stable
// counting sorts, by superstep and then by processor, finish the order
// without a comparison sort.
func (q *Sequences) Fill(s *Schedule) {
	g := s.Graph
	listed := func(v int) bool { return !g.IsSource(v) && s.Proc[v] >= 0 }
	maxPos := -1
	for v := range s.Proc {
		if listed(v) {
			maxPos = max(maxPos, s.Pos[v])
		}
	}
	q.byPos = resized(q.byPos, maxPos+1)
	for i := range q.byPos {
		q.byPos[i] = -1
	}
	for v := range s.Proc {
		if !listed(v) {
			continue
		}
		if u := q.byPos[s.Pos[v]]; u >= 0 {
			panic(fmt.Sprintf("bsp: nodes %d and %d share Pos %d", u, v, s.Pos[v]))
		}
		q.byPos[s.Pos[v]] = v
	}
	byPos := slices.DeleteFunc(q.byPos, func(v int) bool { return v < 0 })
	q.byStep = resized(q.byStep, len(byPos))
	q.count = resized(q.count, s.NumSteps)
	clear(q.count)
	countingSort(q.byStep, byPos, q.count, s.Step)
	q.Nodes = resized(q.Nodes, len(byPos))
	q.Off = resized(q.Off, s.P+1)
	clear(q.Off)
	countingSort(q.Nodes, q.byStep, q.Off, s.Proc)
}

// countingSort writes the nodes in src into dst ordered by key[v],
// keeping src's order among equal keys. count holds one zero per key
// value; it ends holding each key's first index in dst.
func countingSort(dst, src, count, key []int) {
	for _, v := range src {
		count[key[v]]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for i := len(src) - 1; i >= 0; i-- {
		k := key[src[i]]
		count[k]--
		dst[count[k]] = src[i]
	}
}

// Proc returns processor p's compute sequence.
func (q *Sequences) Proc(p int) []int { return q.Nodes[q.Off[p]:q.Off[p+1]] }

// ComputeOrder returns, for each (processor, superstep), the nodes
// computed there in the scheduler's assignment order (which schedulers
// keep consistent with the DAG). Index as order[p][s].
func (s *Schedule) ComputeOrder() [][][]int {
	var q Sequences
	q.Fill(s)
	order := make([][][]int, s.P)
	for p := range order {
		order[p] = make([][]int, s.NumSteps)
		seq := q.Proc(p)
		for i := 0; i < len(seq); {
			t, j := s.Step[seq[i]], i+1
			for j < len(seq) && s.Step[seq[j]] == t {
				j++
			}
			order[p][t] = seq[i:j:j]
			i = j
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
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Schedule{}
	s.FromAssignment(g, p, proc, order)
	return s, nil
}

// FromAssignment is the package-level FromAssignment on s's storage,
// given order = g.TopoOrder(): s becomes the schedule it derives, for a
// caller that derives many (the local search).
func (s *Schedule) FromAssignment(g *graph.DAG, p int, proc, order []int) {
	n := g.N()
	s.Graph, s.P, s.NumSteps, s.nextPos = g, p, 0, 0
	s.Proc, s.Step, s.Pos = resized(s.Proc, n), resized(s.Step, n), resized(s.Pos, n)
	for v := 0; v < n; v++ {
		s.Proc[v], s.Step[v], s.Pos[v] = -1, -1, -1
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

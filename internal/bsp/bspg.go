package bsp

import (
	"math"
	"sort"

	"mbsp/internal/graph"
)

// imbalanceRatio ends a superstep once the least-loaded processor has at
// least this fraction of the most-loaded one and no communication-free
// node is available.
const imbalanceRatio = 0.7

// maxStepWork caps a superstep's per-processor work at this multiple of
// the mean node weight times ceil(n/P).
const maxStepWork = 2.0

// BSPg is a greedy BSP list scheduler in the spirit of the BSPg heuristic
// of Papp et al. (SPAA 2024): it grows supersteps one at a time,
// repeatedly assigning the ready node with the highest bottom-level
// priority to the processor where it causes the least communication,
// tie-broken by load balance; a superstep closes when the ready pool dries
// up (all remaining ready nodes would need a value computed on another
// processor in the current superstep) or the work quota is met.
//
// gCost is the per-unit communication cost: a candidate processor's
// affinity for a node is gCost times the memory of the parents it
// already holds. Products are wrapped in float64(...) so that no CPU
// fuses them into an add, which would make the choices depend on the CPU.
//
// Returns ErrNoProgress (or graph.ErrCyclic for a cyclic input) instead
// of a schedule when the greedy loop cannot place every node.
func BSPg(g *graph.DAG, p int, gCost float64) (*Schedule, error) {
	s := NewSchedule(g, p)
	bl, err := g.BottomLevels()
	if err != nil {
		return nil, err
	}
	n := g.N()

	// unscheduledParents counts non-source parents not yet scheduled.
	unscheduledParents := make([]int, n)
	compNodes := 0
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		compNodes++
		for _, u := range g.Parents(v) {
			if !g.IsSource(u) {
				unscheduledParents[v]++
			}
		}
	}
	// ready: unscheduled nodes with all non-source parents scheduled in a
	// *previous* superstep or on the candidate processor in the current
	// one. We track plain readiness (parents scheduled anywhere) and
	// filter per processor at pick time.
	ready := make(map[int]bool)
	for v := 0; v < n; v++ {
		if !g.IsSource(v) && unscheduledParents[v] == 0 {
			ready[v] = true
		}
	}

	scheduled := 0
	step := 0
	// Per-processor work quota per superstep: generous — superstep
	// closure is driven mostly by cross-processor dependencies — but it
	// stops one processor from hoarding an entire level.
	levels := 0
	lvls, err := g.Levels()
	if err != nil {
		return nil, err
	}
	for _, l := range lvls {
		levels = max(levels, l)
	}
	quota := maxStepWork * g.TotalComp() / float64(p) / float64(max(1, levels/2))
	if quota <= 0 {
		quota = math.Inf(1)
	}
	for scheduled < compNodes {
		load := make([]float64, p)
		stepOf := make(map[int]int) // node -> proc, for nodes placed this superstep
		progress := true
		for progress {
			progress = false
			// Candidate selection: among ready nodes, pick highest
			// bottom-level node assignable to some processor. Iterate in
			// sorted order — map order would make the scheduler
			// nondeterministic.
			readyList := make([]int, 0, len(ready))
			for v := range ready {
				readyList = append(readyList, v)
			}
			sort.Ints(readyList)
			bestNode, bestProc := -1, -1
			bestScore := math.Inf(-1)
			for _, v := range readyList {
				for _, q := range procLoadOrder(load) {
					if load[q]+g.Comp(v) > quota && load[q] > 0 {
						continue
					}
					ok := true
					affinity := 0.0
					for _, u := range g.Parents(v) {
						if g.IsSource(u) {
							continue
						}
						if qq, here := stepOf[u]; here {
							if qq != q {
								ok = false // cross-proc dependence inside this superstep
								break
							}
							affinity += float64(gCost * g.Mem(u))
						} else if s.Proc[u] == q {
							affinity += float64(gCost * g.Mem(u))
						}
					}
					if !ok {
						continue
					}
					// Score: priority first, then communication affinity,
					// then lighter load.
					score := bl[v] + affinity - float64(1e-3*load[q])
					if score > bestScore {
						bestScore = score
						bestNode, bestProc = v, q
					}
					break // only consider the least-loaded feasible proc per node
				}
			}
			if bestNode < 0 {
				break
			}
			// Balance cut-off: if the superstep is already well balanced
			// and the best candidate would pile onto the busiest
			// processor, close the superstep instead.
			minLoad, maxLoad := math.Inf(1), 0.0
			for _, l := range load {
				minLoad = min(minLoad, l)
				maxLoad = max(maxLoad, l)
			}
			if maxLoad > 0 && minLoad >= imbalanceRatio*maxLoad &&
				load[bestProc]+g.Comp(bestNode) > quota {
				break
			}
			s.Assign(bestNode, bestProc, step)
			stepOf[bestNode] = bestProc
			load[bestProc] += g.Comp(bestNode)
			delete(ready, bestNode)
			scheduled++
			for _, w := range g.Children(bestNode) {
				unscheduledParents[w]--
				if unscheduledParents[w] == 0 {
					ready[w] = true
				}
			}
			progress = true
		}
		step++
		if step > 4*n+4 {
			return nil, ErrNoProgress
		}
	}
	return s, nil
}

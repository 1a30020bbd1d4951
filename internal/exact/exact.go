// Package exact implements an exact solver for single-processor MBSP
// scheduling (the red-blue pebble game of Hong and Kung extended with
// compute costs and node weights, P=1): Dijkstra's algorithm over
// pebbling configurations. With one processor the synchronous (L=0) and
// asynchronous costs coincide with the plain sum of transition costs, so
// a shortest path in the configuration graph is the optimal schedule.
//
// The state space is 4^n, so this is only usable for small n (≤ ~14);
// its purpose is ground truth for testing the ILP scheduler and the
// two-stage baseline, and for the gadget lemmas.
package exact

import (
	"container/heap"
	"fmt"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
)

// MaxNodes bounds the DAG size accepted by the solver.
const MaxNodes = 20

// state is (redSet, blueSet, computedSet) encoded as bitmasks; the
// computed set is tracked only in no-recompute mode and stays 0
// otherwise.
type state struct {
	red      uint32
	blue     uint32
	computed uint32
}

// Result is the outcome of an exact solve.
type Result struct {
	Cost     float64
	States   int // states popped
	Schedule *mbsp.Schedule
}

type pqItem struct {
	st   state
	cost float64
}

type pq []pqItem

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type move struct {
	kind mbsp.OpKind
	node int
}

// Options tunes the exact solver.
type Options struct {
	// NoRecompute forbids computing a node twice (tracked via a third
	// bitmask, tripling the state space's base).
	NoRecompute bool
	// StateBudget aborts the search after this many popped states
	// (0: unlimited). The search space is up to 4^n (8^n with
	// NoRecompute), so a budget keeps callers responsive.
	StateBudget int
}

// Solve finds the minimum-cost single-processor pebbling of g with cache
// size r and communication cost factor gFac. It returns the optimal cost
// and a witness schedule.
func Solve(g *graph.DAG, r, gFac float64) (Result, error) {
	return SolveOpts(g, r, gFac, Options{})
}

// SolveOpts is Solve with options.
func SolveOpts(g *graph.DAG, r, gFac float64, opts Options) (Result, error) {
	n := g.N()
	if n > MaxNodes {
		return Result{}, fmt.Errorf("exact: DAG too large (n=%d > %d)", n, MaxNodes)
	}
	if g.MinCache() > r {
		return Result{}, fmt.Errorf("exact: cache too small (r=%g < r0=%g)", r, g.MinCache())
	}
	var srcMask, sinkMask uint32
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			srcMask |= 1 << v
		}
		if g.IsSink(v) {
			sinkMask |= 1 << v
		}
	}
	parentMask := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Parents(v) {
			parentMask[v] |= 1 << u
		}
	}
	memOf := func(mask uint32) float64 {
		t := 0.0
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				t += g.Mem(v)
			}
		}
		return t
	}

	startState := state{red: 0, blue: srcMask}
	budget := opts.StateBudget
	dist := map[state]float64{startState: 0}
	prev := map[state]struct {
		st state
		mv move
	}{}
	h := &pq{{startState, 0}}
	popped := 0

	isGoal := func(st state) bool { return st.blue&sinkMask == sinkMask }

	relax := func(cur state, cost float64, next state, c float64, mv move) {
		nc := cost + c
		if d, ok := dist[next]; !ok || nc < d-1e-12 {
			dist[next] = nc
			prev[next] = struct {
				st state
				mv move
			}{cur, mv}
			heap.Push(h, pqItem{next, nc})
		}
	}

	var goal state
	found := false
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if d := dist[it.st]; it.cost > d+1e-12 {
			continue // stale
		}
		popped++
		if budget > 0 && popped > budget {
			return Result{}, fmt.Errorf("exact: state budget exhausted after %d states", popped)
		}
		if isGoal(it.st) {
			goal = it.st
			found = true
			break
		}
		cur := it.st
		curMem := memOf(cur.red)
		for v := 0; v < n; v++ {
			bit := uint32(1) << v
			// LOAD: blue and not red, fits.
			if cur.blue&bit != 0 && cur.red&bit == 0 && curMem+g.Mem(v) <= r+1e-12 {
				relax(cur, it.cost, state{cur.red | bit, cur.blue, cur.computed}, float64(gFac*g.Mem(v)), move{mbsp.OpLoad, v})
			}
			// SAVE: red and not blue.
			if cur.red&bit != 0 && cur.blue&bit == 0 {
				relax(cur, it.cost, state{cur.red, cur.blue | bit, cur.computed}, float64(gFac*g.Mem(v)), move{mbsp.OpSave, v})
			}
			// COMPUTE: non-source, parents red, not red, fits, and (in
			// no-recompute mode) never computed before.
			if srcMask&bit == 0 && cur.red&bit == 0 &&
				cur.red&parentMask[v] == parentMask[v] && curMem+g.Mem(v) <= r+1e-12 &&
				(!opts.NoRecompute || cur.computed&bit == 0) {
				next := state{cur.red | bit, cur.blue, cur.computed}
				if opts.NoRecompute {
					next.computed |= bit
				}
				relax(cur, it.cost, next, g.Comp(v), move{mbsp.OpCompute, v})
			}
			// DELETE: red. Free, so only useful to make room; still a
			// plain edge in the graph search.
			if cur.red&bit != 0 {
				relax(cur, it.cost, state{cur.red &^ bit, cur.blue, cur.computed}, 0, move{mbsp.OpDelete, v})
			}
		}
	}
	if !found {
		return Result{}, fmt.Errorf("exact: no pebbling found (should be impossible with r >= r0)")
	}

	// Reconstruct the move sequence.
	var moves []move
	for st := goal; st != startState; {
		pr := prev[st]
		moves = append(moves, pr.mv)
		st = pr.st
	}
	for i, j := 0, len(moves)-1; i < j; i, j = i+1, j-1 {
		moves[i], moves[j] = moves[j], moves[i]
	}

	sched := buildSchedule(g, r, gFac, moves)
	return Result{Cost: dist[goal], States: popped, Schedule: sched}, nil
}

// buildSchedule converts a transition sequence into an MBSP schedule:
// maximal runs of compute/delete ops form the compute phase of a
// superstep, then saves, deletes, loads — re-cut so that phase order
// within each superstep is respected.
func buildSchedule(g *graph.DAG, r, gFac float64, moves []move) *mbsp.Schedule {
	arch := mbsp.Arch{P: 1, R: r, G: gFac, L: 0}
	s := mbsp.NewSchedule(g, arch)
	cur := s.AddSuperstep()
	// Phase order within a superstep: comp(+del) < save < del < load.
	// Start a new superstep whenever the op kind would move backwards.
	phase := 0 // 0 comp, 1 save, 2 del, 3 load
	for _, mv := range moves {
		var want int
		switch mv.kind {
		case mbsp.OpCompute:
			want = 0
		case mbsp.OpSave:
			want = 1
		case mbsp.OpDelete:
			if phase == 0 {
				want = 0 // deletes ride along in the compute phase
			} else {
				want = 2
			}
		case mbsp.OpLoad:
			want = 3
		}
		if want < phase {
			cur = s.AddSuperstep()
			phase = 0
			if mv.kind == mbsp.OpSave {
				phase = 1
			} else if mv.kind == mbsp.OpLoad {
				phase = 3
			}
		} else {
			phase = want
		}
		ps := &cur.Procs[0]
		switch mv.kind {
		case mbsp.OpCompute:
			ps.Comp = append(ps.Comp, mbsp.Op{Kind: mbsp.OpCompute, Node: mv.node})
		case mbsp.OpDelete:
			if phase == 0 {
				ps.Comp = append(ps.Comp, mbsp.Op{Kind: mbsp.OpDelete, Node: mv.node})
			} else {
				ps.Del = append(ps.Del, mv.node)
			}
		case mbsp.OpSave:
			ps.Save = append(ps.Save, mv.node)
		case mbsp.OpLoad:
			ps.Load = append(ps.Load, mv.node)
		}
	}
	return s
}

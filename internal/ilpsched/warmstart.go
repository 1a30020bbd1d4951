package ilpsched

import (
	"fmt"
	"math"
	"sort"

	"mbsp/internal/mbsp"
)

// skelStep is one ILP time step derived from a warm-start schedule.
type skelStep struct {
	computes [][]int        // per processor
	saves    [][]int        // per processor
	loads    [][]int        // per processor
	redAfter []map[int]bool // per processor, red set at the next boundary
}

// buildSkeleton translates an MBSP schedule into a sequence of merged ILP
// time steps:
//
//   - each superstep's compute phase splits into segments such that a
//     segment's starting red set plus its computed outputs fit in cache
//     (matching the ILP's conservative merged memory rule); interleaved
//     deletes take effect at segment boundaries;
//   - saves form one comm step (with the del-phase deletes taking effect
//     at its boundary) and loads a second, so a value saved and loaded in
//     the same superstep is blue before the load's step, as constraint
//     (1) requires.
func buildSkeleton(s *mbsp.Schedule) ([]skelStep, error) {
	g := s.Graph
	P := s.Arch.P
	red := make([]map[int]bool, P)
	for p := 0; p < P; p++ {
		red[p] = map[int]bool{}
	}
	// memOf sums in ascending node order: a map-order float sum can
	// differ in the last bit between calls and flip the segment test.
	var keys []int
	memOf := func(set map[int]bool) float64 {
		keys = keys[:0]
		for v, red := range set {
			if red {
				keys = append(keys, v)
			}
		}
		sort.Ints(keys)
		t := 0.0
		for _, v := range keys {
			t += g.Mem(v)
		}
		return t
	}
	var steps []skelStep
	newStep := func() *skelStep {
		st := skelStep{
			computes: make([][]int, P), saves: make([][]int, P),
			loads: make([][]int, P), redAfter: make([]map[int]bool, P),
		}
		steps = append(steps, st)
		return &steps[len(steps)-1]
	}
	snapshot := func(st *skelStep) {
		for p := 0; p < P; p++ {
			cp := make(map[int]bool, len(red[p]))
			for v := range red[p] {
				cp[v] = true
			}
			st.redAfter[p] = cp
		}
	}

	copyOf := func(set map[int]bool) map[int]bool {
		cp := make(map[int]bool, len(set))
		for v := range set {
			cp[v] = true
		}
		return cp
	}
	for si := range s.Steps {
		// Compute phase: split each processor's op list into segments
		// whose segment-start red set plus computed outputs fit in r
		// (matching the merged memory rule); ops mutate red[p] in exact
		// order, and we snapshot the state after every segment.
		segComputes := make([][][]int, P)
		afterSeg := make([][]map[int]bool, P)
		maxSegs := 0
		for p := 0; p < P; p++ {
			ps := &s.Steps[si].Procs[p]
			var curComputes []int
			segStartMem := memOf(red[p])
			var curCompMem float64
			closeSeg := func() {
				segComputes[p] = append(segComputes[p], curComputes)
				afterSeg[p] = append(afterSeg[p], copyOf(red[p]))
				curComputes = nil
				segStartMem = memOf(red[p])
				curCompMem = 0
			}
			for _, op := range ps.Comp {
				switch op.Kind {
				case mbsp.OpCompute:
					// Conservative merged-memory test: the ILP counts a
					// computed node's μ on top of the full starting red
					// set.
					if segStartMem+curCompMem+g.Mem(op.Node) > s.Arch.R+1e-9 && len(curComputes) > 0 {
						closeSeg()
					}
					curComputes = append(curComputes, op.Node)
					curCompMem += g.Mem(op.Node)
					red[p][op.Node] = true
				case mbsp.OpDelete:
					delete(red[p], op.Node)
				}
			}
			if len(curComputes) > 0 {
				closeSeg()
			}
			if len(segComputes[p]) > maxSegs {
				maxSegs = len(segComputes[p])
			}
		}
		for k := 0; k < maxSegs; k++ {
			st := newStep()
			for p := 0; p < P; p++ {
				switch {
				case k < len(segComputes[p]):
					st.computes[p] = segComputes[p][k]
					st.redAfter[p] = afterSeg[p][k]
				case len(afterSeg[p]) > 0:
					st.redAfter[p] = afterSeg[p][len(afterSeg[p])-1]
				default:
					st.redAfter[p] = copyOf(red[p])
				}
			}
		}
		// Communication: saves (with del-phase deletions at the save
		// step's boundary), then loads; separate steps so that a value
		// saved in this superstep is blue before any load of it.
		anySave, anyLoad := false, false
		for p := 0; p < P; p++ {
			if len(s.Steps[si].Procs[p].Save) > 0 {
				anySave = true
			}
			if len(s.Steps[si].Procs[p].Load) > 0 {
				anyLoad = true
			}
		}
		if anySave {
			st := newStep()
			for p := 0; p < P; p++ {
				st.saves[p] = s.Steps[si].Procs[p].Save
				for _, d := range s.Steps[si].Procs[p].Del {
					delete(red[p], d)
				}
			}
			snapshot(st)
		} else {
			// Del-phase deletions fold into the next snapshot.
			for p := 0; p < P; p++ {
				for _, d := range s.Steps[si].Procs[p].Del {
					delete(red[p], d)
				}
			}
		}
		if anyLoad {
			st := newStep()
			for p := 0; p < P; p++ {
				st.loads[p] = s.Steps[si].Procs[p].Load
				for _, v := range s.Steps[si].Procs[p].Load {
					red[p][v] = true
				}
			}
			snapshot(st)
		}
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("ilpsched: warm-start schedule is empty")
	}
	return steps, nil
}

// assignment produces a full feasible variable assignment of the model
// from the skeleton. Steps beyond the skeleton are idle with frozen
// state.
func (im *ilpModel) assignment(steps []skelStep) []float64 {
	g, T, P := im.g, im.T, im.arch.P
	n := g.N()
	x := make([]float64, im.m.NumVars())
	set := func(j int, v float64) {
		if j >= 0 {
			x[j] = v
		}
	}

	// Core binaries and state.
	blue := make([]bool, n)
	for _, v := range g.Sources() {
		blue[v] = true
	}
	for t := 0; t < T; t++ {
		if t < len(steps) {
			st := &steps[t]
			for p := 0; p < P; p++ {
				for _, v := range st.computes[p] {
					set(im.compute[p][v][t], 1)
				}
				for _, v := range st.saves[p] {
					set(im.save[p][v][t], 1)
					blue[v] = true
				}
				for _, v := range st.loads[p] {
					set(im.load[p][v][t], 1)
				}
				if len(st.computes[p]) > 0 {
					set(im.compstep[p][t], 1)
				}
				if len(st.saves[p])+len(st.loads[p]) > 0 {
					set(im.commstep[p][t], 1)
				}
				for v := range st.redAfter[p] {
					set(im.hasred[p][v][t+1], 1)
				}
			}
		} else {
			// Idle: freeze state.
			last := &steps[len(steps)-1]
			for p := 0; p < P; p++ {
				for v := range last.redAfter[p] {
					set(im.hasred[p][v][t+1], 1)
				}
			}
		}
		for v := 0; v < n; v++ {
			if blue[v] && im.hasblue[v] != nil && im.hasblue[v][t+1] >= 0 {
				x[im.hasblue[v][t+1]] = 1
			}
		}
	}

	if im.opts.Model == mbsp.Async {
		im.assignAsync(x, steps)
	} else {
		im.assignSync(x, steps)
	}
	return x
}

func (im *ilpModel) stepCompCost(x []float64, p, t int) float64 {
	c := 0.0
	for v := 0; v < im.g.N(); v++ {
		if j := im.compute[p][v][t]; j >= 0 && x[j] > 0.5 {
			c += im.g.Comp(v)
		}
	}
	return c
}

func (im *ilpModel) stepCommCost(x []float64, p, t int) float64 {
	c := 0.0
	for v := 0; v < im.g.N(); v++ {
		if j := im.save[p][v][t]; j >= 0 && x[j] > 0.5 {
			c += float64(im.arch.G * im.g.Mem(v))
		}
		if j := im.load[p][v][t]; j >= 0 && x[j] > 0.5 {
			c += float64(im.arch.G * im.g.Mem(v))
		}
	}
	return c
}

func (im *ilpModel) assignSync(x []float64, steps []skelStep) {
	T, P := im.T, im.arch.P
	compPhase := make([]float64, T)
	commPhase := make([]float64, T)
	for t := 0; t < T; t++ {
		for p := 0; p < P; p++ {
			if x[im.compstep[p][t]] > 0.5 {
				compPhase[t] = 1
			}
			if x[im.commstep[p][t]] > 0.5 {
				commPhase[t] = 1
			}
		}
		x[im.compphase[t]] = compPhase[t]
		x[im.commphase[t]] = commPhase[t]
	}
	for t := 0; t < T; t++ {
		nextComp, nextComm := 0.0, 0.0
		if t+1 < T {
			nextComp, nextComm = compPhase[t+1], commPhase[t+1]
		}
		if compPhase[t] == 1 && nextComp == 0 {
			x[im.compends[t]] = 1
		}
		if commPhase[t] == 1 && nextComm == 0 {
			x[im.commends[t]] = 1
		}
	}
	for p := 0; p < P; p++ {
		for t := 0; t < T; t++ {
			x[im.compuntil[p][t]] = im.minCompuntil(x, p, t)
			x[im.communtil[p][t]] = im.minCommuntil(x, p, t)
		}
	}
	for t := 0; t < T; t++ {
		if x[im.compends[t]] > 0.5 {
			best := 0.0
			for p := 0; p < P; p++ {
				best = math.Max(best, x[im.compuntil[p][t]])
			}
			x[im.compinduced[t]] = best
		}
		if x[im.commends[t]] > 0.5 {
			best := 0.0
			for p := 0; p < P; p++ {
				best = math.Max(best, x[im.communtil[p][t]])
			}
			x[im.comminduced[t]] = best
		}
	}
}

// minCompuntil returns the minimal feasible value of compuntil[p][t]:
// max(0, compuntil[p][t−1] + Σ ω·compute − M·commends[t]).
func (im *ilpModel) minCompuntil(x []float64, p, t int) float64 {
	req := im.stepCompCost(x, p, t)
	if t > 0 {
		req += x[im.compuntil[p][t-1]]
		if x[im.commends[t]] > 0.5 {
			req -= im.bigM
		}
	}
	return math.Max(req, 0)
}

// minCommuntil is the communication-side counterpart of minCompuntil.
func (im *ilpModel) minCommuntil(x []float64, p, t int) float64 {
	req := im.stepCommCost(x, p, t)
	if t > 0 {
		req += x[im.communtil[p][t-1]]
		if x[im.compends[t]] > 0.5 {
			req -= im.bigM
		}
	}
	return math.Max(req, 0)
}

func (im *ilpModel) assignAsync(x []float64, steps []skelStep) {
	g, T, P := im.g, im.T, im.arch.P
	n := g.N()
	ft := make([]float64, P)
	gb := make([]float64, n)
	for t := 0; t < T; t++ {
		// Loads first compute their wait based on existing gb (loads and
		// saves never share a step by skeleton construction).
		for p := 0; p < P; p++ {
			step := ft[p] + im.stepCompCost(x, p, t) + im.stepCommCost(x, p, t)
			// Load waits: finish ≥ gb(v) + total load cost of the step.
			loadCost := 0.0
			for v := 0; v < n; v++ {
				if j := im.load[p][v][t]; j >= 0 && x[j] > 0.5 {
					loadCost += float64(im.arch.G * g.Mem(v))
				}
			}
			for v := 0; v < n; v++ {
				if j := im.load[p][v][t]; j >= 0 && x[j] > 0.5 && !g.IsSource(v) {
					if gb[v]+loadCost > step {
						step = gb[v] + loadCost
					}
				}
			}
			ft[p] = step
			x[im.finishtime[p][t]] = ft[p]
		}
		for p := 0; p < P; p++ {
			for v := 0; v < n; v++ {
				if j := im.save[p][v][t]; j >= 0 && x[j] > 0.5 {
					if ft[p] > gb[v] {
						gb[v] = ft[p]
					}
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if im.getsblue[v] >= 0 {
			x[im.getsblue[v]] = gb[v]
		}
	}
	best := 0.0
	for p := 0; p < P; p++ {
		best = math.Max(best, ft[p])
	}
	x[im.makespan] = best
}

// explodeSkeleton rewrites a merged skeleton into the base formulation's
// one-op-per-processor-per-step shape: each original step becomes rounds
// in which every processor performs at most one of its operations;
// deletions (red-set drops) take effect at the original step's final
// round. Used when Options.NoStepMerging is set.
func explodeSkeleton(steps []skelStep, P int) []skelStep {
	copyOf := func(set map[int]bool) map[int]bool {
		cp := make(map[int]bool, len(set))
		for v := range set {
			cp[v] = true
		}
		return cp
	}
	// cur tracks the running red sets between emitted substeps, starting
	// from the empty caches the skeleton starts from.
	cur := make([]map[int]bool, P)
	for p := range cur {
		cur[p] = map[int]bool{}
	}
	var out []skelStep
	for si := range steps {
		st := &steps[si]
		rounds := 0
		for p := 0; p < P; p++ {
			rounds = max(rounds, len(st.computes[p]))
			rounds = max(rounds, len(st.saves[p]))
			rounds = max(rounds, len(st.loads[p]))
		}
		if rounds == 0 {
			rounds = 1 // pure red-drop step
		}
		for k := 0; k < rounds; k++ {
			ns := skelStep{
				computes: make([][]int, P), saves: make([][]int, P),
				loads: make([][]int, P), redAfter: make([]map[int]bool, P),
			}
			for p := 0; p < P; p++ {
				if k < len(st.computes[p]) {
					c := st.computes[p][k]
					ns.computes[p] = []int{c}
					cur[p][c] = true
				}
				if k < len(st.saves[p]) {
					ns.saves[p] = []int{st.saves[p][k]}
				}
				if k < len(st.loads[p]) {
					l := st.loads[p][k]
					ns.loads[p] = []int{l}
					cur[p][l] = true
				}
				if k == rounds-1 {
					// Final round: adopt the authoritative state (this
					// applies the original step's deletions).
					cur[p] = copyOf(st.redAfter[p])
					ns.redAfter[p] = st.redAfter[p]
				} else {
					ns.redAfter[p] = copyOf(cur[p])
				}
			}
			out = append(out, ns)
		}
	}
	return out
}

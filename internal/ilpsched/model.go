package ilpsched

import (
	"sort"

	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
)

// ilpModel is the ILP representation of one MBSP scheduling instance with
// step merging (Section 6.1 / Appendix C.1). Index maps hold -1 where a
// variable is statically fixed and therefore never created (Appendix
// C.1.3): compute/save/hasblue variables of source nodes.
type ilpModel struct {
	g    *graph.DAG
	arch mbsp.Arch
	opts Options
	T    int
	m    *mip.Model
	bigM float64

	compute [][][]int // [p][v][t]; -1 for sources
	save    [][][]int // [p][v][t]; -1 for sources
	load    [][][]int // [p][v][t]
	hasred  [][][]int // [p][v][t], t in 0..T
	hasblue [][]int   // [v][t], t in 0..T; -1 for sources (constant 1)

	compstep [][]int // [p][t]
	commstep [][]int

	// Synchronous cost machinery.
	compphase, commphase []int
	compends, commends   []int
	compuntil, communtil [][]int // [p][t], continuous
	compinduced          []int
	comminduced          []int

	// Asynchronous cost machinery.
	finishtime [][]int // [p][t], continuous
	getsblue   []int   // [v], continuous; -1 for sources (constant 0)
	makespan   int
}

// buildModel assembles the full ILP for horizon T.
func buildModel(g *graph.DAG, arch mbsp.Arch, opts Options, T int) *ilpModel {
	im := &ilpModel{g: g, arch: arch, opts: opts, T: T, m: mip.NewModel()}
	P, n := arch.P, g.N()
	// bigM must dominate any finishing time or accumulated phase cost the
	// model can express. A processor's per-step cost is at most
	// Σω + 2gΣμ (compute everything, or save and load everything), and
	// there are T steps; Γ-waits only chain finishing times, so the same
	// bound covers them.
	var stepMax float64
	for v := 0; v < n; v++ {
		stepMax += g.Comp(v) + float64(2*arch.G*g.Mem(v))
	}
	im.bigM = float64(T+1) * stepMax
	if im.bigM < 1 {
		im.bigM = 1
	}

	newGrid := func() [][][]int {
		grid := make([][][]int, P)
		for p := range grid {
			grid[p] = make([][]int, n)
			for v := range grid[p] {
				grid[p][v] = make([]int, T+1)
				for t := range grid[p][v] {
					grid[p][v][t] = -1
				}
			}
		}
		return grid
	}
	im.compute, im.save, im.load, im.hasred = newGrid(), newGrid(), newGrid(), newGrid()
	im.hasblue = make([][]int, n)
	for v := range im.hasblue {
		im.hasblue[v] = make([]int, T+1)
		for t := range im.hasblue[v] {
			im.hasblue[v][t] = -1
		}
	}

	// Variables.
	for p := 0; p < P; p++ {
		for v := 0; v < n; v++ {
			for t := 0; t < T; t++ {
				if !g.IsSource(v) {
					im.compute[p][v][t] = im.m.AddBinary("comp", 0)
					im.save[p][v][t] = im.m.AddBinary("save", 0)
				}
				im.load[p][v][t] = im.m.AddBinary("load", 0)
			}
			// hasred[p][v][0] = 0: every processor starts with an empty
			// cache, so the variable is never created.
			for t := 1; t <= T; t++ {
				im.hasred[p][v][t] = im.m.AddBinary("hasred", 0)
			}
		}
	}
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue // hasblue ≡ 1
		}
		for t := 1; t <= T; t++ {
			im.hasblue[v][t] = im.m.AddBinary("hasblue", 0)
		}
		// hasblue[v][0] = 0: variable never created.
	}
	im.compstep = make([][]int, P)
	im.commstep = make([][]int, P)
	for p := 0; p < P; p++ {
		im.compstep[p] = make([]int, T)
		im.commstep[p] = make([]int, T)
		for t := 0; t < T; t++ {
			im.compstep[p][t] = im.m.AddBinary("compstep", 0)
			im.commstep[p][t] = im.m.AddBinary("commstep", 0)
		}
	}

	im.addCoreConstraints()
	if opts.Model == mbsp.Async {
		im.addAsyncObjective()
	} else {
		im.addSyncObjective()
	}
	return im
}

// modelSize returns, in closed form, the NumVars and NumRows that
// buildModel(g, arch, opts, T) would report, without allocating the
// model, so that Solve can compare the size with MaxModelRows first. It
// counts each constraint family the way buildModel emits it (DESIGN.md,
// "Solver substitution", tabulates the formula), with s non-source
// nodes and E edges, Ei of them leaving a non-source. It holds for
// T ≥ 1; horizon rejects an empty warm start.
func modelSize(g *graph.DAG, arch mbsp.Arch, opts Options, T int) (vars, rows int) {
	P, n := arch.P, g.N()
	var s, E, Ei int
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		s++
		for _, u := range g.Parents(v) {
			E++
			if !g.IsSource(u) {
				Ei++
			}
		}
	}
	// compute, save, load, hasred, compstep/commstep; hasblue.
	vars = P*T*(2*s+2*n+2) + s*T
	// (1)–(2): at t = 0 both are FixVar bounds, not rows.
	rows += 2 * P * (T - 1) * s
	// (3): at t = 0 a parent is never red, so only a step-merged
	// non-source parent leaves a row.
	rows += P * (T - 1) * E
	if !opts.NoStepMerging {
		rows += P * Ei
	}
	rows += 2 * P * n * T // (4)
	rows += s * (2*T - 1) // (5): no monotonicity row into t = 1
	rows += 3 * P * T     // (6)
	if opts.NoStepMerging {
		rows += P * T
	}
	// (7): nothing is red at t = 0, so that row needs a computable node.
	rows += P * T
	if s > 0 {
		rows += P
	}
	// (10): one row per non-source sink or NeedBlue node.
	need := map[int]bool{}
	for _, v := range g.Sinks() {
		need[v] = true
	}
	for _, v := range opts.NeedBlue {
		need[v] = true
	}
	for v := range need {
		if !g.IsSource(v) {
			rows++
		}
	}
	if opts.NoRecompute {
		rows += s
	}
	if opts.Model == mbsp.Async {
		vars += P*T + s + 1
		rows += P*T*(1+2*s) + P
	} else {
		vars += 6*T + 2*P*T
		rows += T * (6*P + 5)
	}
	return vars, rows
}

// cf returns an lp.Coef referring to variable index j (which must be
// valid).
func cf(j int, v float64) lp.Coef { return lp.Coef{Var: j, Val: v} }

// addCoreConstraints emits constraints (1)–(10) of Figure 3 in their
// step-merged form, the red-pebble persistence links, and the optional
// no-recomputation rows.
func (im *ilpModel) addCoreConstraints() {
	g, m, T, P := im.g, im.m, im.T, im.arch.P
	n := g.N()
	for p := 0; p < P; p++ {
		for t := 0; t < T; t++ {
			for v := 0; v < n; v++ {
				// (1) load only from blue.
				if hb := im.hasblue[v][t]; !g.IsSource(v) {
					if hb >= 0 {
						m.AddLE(0, cf(im.load[p][v][t], 1), cf(hb, -1))
					} else {
						// hasblue[v][0] = 0 for non-sources: no load at step 0.
						m.FixVar(im.load[p][v][t], 0)
					}
				}
				// (2) save only from red.
				if sv := im.save[p][v][t]; sv >= 0 {
					if hr := im.hasred[p][v][t]; hr >= 0 {
						m.AddLE(0, cf(sv, 1), cf(hr, -1))
					} else {
						m.FixVar(sv, 0) // nothing red at step 0
					}
				}
				// (3) compute needs parents red — or computed this step
				// when step merging is on.
				if cp := im.compute[p][v][t]; cp >= 0 {
					for _, u := range g.Parents(v) {
						coefs := []lp.Coef{cf(cp, 1)}
						if hr := im.hasred[p][u][t]; hr >= 0 {
							coefs = append(coefs, cf(hr, -1))
						}
						if !g.IsSource(u) && !im.opts.NoStepMerging {
							coefs = append(coefs, cf(im.compute[p][u][t], -1))
						}
						if len(coefs) == 1 {
							m.FixVar(cp, 0) // parent impossible at t
						} else {
							m.AddLE(0, coefs...)
						}
					}
				}
			}
		}
		// (4) red persistence + acquisition links.
		for v := 0; v < n; v++ {
			for t := 1; t <= T; t++ {
				coefs := []lp.Coef{cf(im.hasred[p][v][t], 1)}
				if hr := im.hasred[p][v][t-1]; hr >= 0 {
					coefs = append(coefs, cf(hr, -1))
				}
				if cp := im.compute[p][v][t-1]; cp >= 0 {
					coefs = append(coefs, cf(cp, -1))
				}
				coefs = append(coefs, cf(im.load[p][v][t-1], -1))
				m.AddLE(0, coefs...)
				// Loaded values keep their pebble through the step
				// boundary (a load followed by an immediate delete is
				// pure waste, so this is a valid tightening). Computed
				// values may legitimately be dropped at the boundary:
				// a merged step can compute a chain u→v and keep only v.
				m.AddGE(0, cf(im.hasred[p][v][t], 1), cf(im.load[p][v][t-1], -1))
			}
		}
	}
	// (5) blue persistence: monotone, grown by saves.
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		for t := 1; t <= T; t++ {
			coefs := []lp.Coef{cf(im.hasblue[v][t], 1)}
			if hb := im.hasblue[v][t-1]; hb >= 0 {
				coefs = append(coefs, cf(hb, -1))
			}
			for p := 0; p < P; p++ {
				coefs = append(coefs, cf(im.save[p][v][t-1], -1))
			}
			m.AddLE(0, coefs...)
			if hb := im.hasblue[v][t-1]; hb >= 0 {
				m.AddGE(0, cf(im.hasblue[v][t], 1), cf(hb, -1))
			}
		}
	}
	// (6) step typing.
	for p := 0; p < P; p++ {
		for t := 0; t < T; t++ {
			compCoefs := []lp.Coef{cf(im.compstep[p][t], -float64(n))}
			commCoefs := []lp.Coef{cf(im.commstep[p][t], -2*float64(n))}
			for v := 0; v < n; v++ {
				if cp := im.compute[p][v][t]; cp >= 0 {
					compCoefs = append(compCoefs, cf(cp, 1))
				}
				if sv := im.save[p][v][t]; sv >= 0 {
					commCoefs = append(commCoefs, cf(sv, 1))
				}
				commCoefs = append(commCoefs, cf(im.load[p][v][t], 1))
			}
			m.AddLE(0, compCoefs...)
			m.AddLE(0, commCoefs...)
			m.AddLE(1, cf(im.compstep[p][t], 1), cf(im.commstep[p][t], 1))
			// Base formulation: at most one operation per processor and
			// step (constraint (6) without merging).
			if im.opts.NoStepMerging {
				var one []lp.Coef
				for v := 0; v < n; v++ {
					if cp := im.compute[p][v][t]; cp >= 0 {
						one = append(one, cf(cp, 1))
					}
					if sv := im.save[p][v][t]; sv >= 0 {
						one = append(one, cf(sv, 1))
					}
					one = append(one, cf(im.load[p][v][t], 1))
				}
				m.AddRow(one, lp.LE, 1)
			}
		}
	}
	// (7) memory bound: resident values plus same-step computed outputs
	// must fit (conservative step-merged form; deletes take effect at
	// step boundaries).
	for p := 0; p < P; p++ {
		for t := 0; t <= T; t++ {
			var coefs []lp.Coef
			for v := 0; v < n; v++ {
				if hr := im.hasred[p][v][t]; hr >= 0 {
					coefs = append(coefs, cf(hr, g.Mem(v)))
				}
				if t < T {
					if cp := im.compute[p][v][t]; cp >= 0 {
						coefs = append(coefs, cf(cp, g.Mem(v)))
					}
				}
			}
			if len(coefs) > 0 {
				m.AddLE(im.arch.R, coefs...)
			}
		}
	}
	// (8)–(9) initial states are encoded by variable absence.
	// (10) terminal blue pebbles.
	need := map[int]bool{}
	for _, v := range g.Sinks() {
		need[v] = true
	}
	for _, v := range im.opts.NeedBlue {
		need[v] = true
	}
	// Row order must not depend on map iteration order: the simplex breaks
	// pivot ties by index, so a permuted model solves along a different
	// (occasionally worse) path and perturbs the deterministic iteration
	// counts the bench gates pin.
	needList := make([]int, 0, len(need))
	for v := range need {
		needList = append(needList, v)
	}
	sort.Ints(needList)
	for _, v := range needList {
		if g.IsSource(v) {
			continue // sources are always blue
		}
		m.AddGE(1, cf(im.hasblue[v][T], 1))
	}
	// No-recomputation: each node is computed at most once.
	if !im.opts.NoRecompute {
		return
	}
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		var coefs []lp.Coef
		for p := 0; p < P; p++ {
			for t := 0; t < T; t++ {
				coefs = append(coefs, cf(im.compute[p][v][t], 1))
			}
		}
		m.AddRow(coefs, lp.LE, 1)
	}
}

// addSyncObjective emits the superstep/phase machinery of Appendix C.1.2
// and the synchronous objective Σ_t compinduced_t + comminduced_t +
// L·commends_t.
func (im *ilpModel) addSyncObjective() {
	g, m, T, P := im.g, im.m, im.T, im.arch.P
	n := g.N()
	im.compphase = make([]int, T)
	im.commphase = make([]int, T)
	im.compends = make([]int, T)
	im.commends = make([]int, T)
	im.compinduced = make([]int, T)
	im.comminduced = make([]int, T)
	for t := 0; t < T; t++ {
		im.compphase[t] = im.m.AddBinary("compphase", 0)
		im.commphase[t] = im.m.AddBinary("commphase", 0)
		im.compends[t] = im.m.AddBinary("compends", 0)
		im.commends[t] = im.m.AddBinary("commends", im.arch.L)
		im.compinduced[t] = im.m.AddVar("compinduced", 0, lp.Inf, 1)
		im.comminduced[t] = im.m.AddVar("comminduced", 0, lp.Inf, 1)
	}
	im.compuntil = make([][]int, P)
	im.communtil = make([][]int, P)
	for p := 0; p < P; p++ {
		im.compuntil[p] = make([]int, T)
		im.communtil[p] = make([]int, T)
		for t := 0; t < T; t++ {
			im.compuntil[p][t] = im.m.AddVar("compuntil", 0, lp.Inf, 0)
			im.communtil[p][t] = im.m.AddVar("communtil", 0, lp.Inf, 0)
		}
	}
	for t := 0; t < T; t++ {
		// Global phase typing: a step is a compute step on some
		// processor only in a compute phase, etc.
		for p := 0; p < P; p++ {
			m.AddLE(0, cf(im.compstep[p][t], 1), cf(im.compphase[t], -1))
			m.AddLE(0, cf(im.commstep[p][t], 1), cf(im.commphase[t], -1))
		}
		m.AddLE(1, cf(im.compphase[t], 1), cf(im.commphase[t], 1))
		// Phase endpoints.
		m.AddLE(0, cf(im.compends[t], 1), cf(im.compphase[t], -1))
		m.AddLE(0, cf(im.commends[t], 1), cf(im.commphase[t], -1))
		if t+1 < T {
			// ends_t ≥ phase_t − phase_{t+1}
			m.AddGE(0, cf(im.compends[t], 1), cf(im.compphase[t], -1), cf(im.compphase[t+1], 1))
			m.AddGE(0, cf(im.commends[t], 1), cf(im.commphase[t], -1), cf(im.commphase[t+1], 1))
		} else {
			m.AddGE(0, cf(im.compends[t], 1), cf(im.compphase[t], -1))
			m.AddGE(0, cf(im.commends[t], 1), cf(im.commphase[t], -1))
		}
	}
	for p := 0; p < P; p++ {
		for t := 0; t < T; t++ {
			// compuntil accumulation with reset after a communication
			// phase ends.
			coefs := []lp.Coef{cf(im.compuntil[p][t], 1)}
			if t > 0 {
				coefs = append(coefs, cf(im.compuntil[p][t-1], -1))
				coefs = append(coefs, cf(im.commends[t], im.bigM))
			}
			for v := 0; v < n; v++ {
				if cp := im.compute[p][v][t]; cp >= 0 {
					coefs = append(coefs, cf(cp, -g.Comp(v)))
				}
			}
			m.AddRow(coefs, lp.GE, 0)
			// communtil accumulation with reset after a compute phase
			// ends.
			coefs = []lp.Coef{cf(im.communtil[p][t], 1)}
			if t > 0 {
				coefs = append(coefs, cf(im.communtil[p][t-1], -1))
				coefs = append(coefs, cf(im.compends[t], im.bigM))
			}
			for v := 0; v < n; v++ {
				if sv := im.save[p][v][t]; sv >= 0 {
					coefs = append(coefs, cf(sv, -im.arch.G*g.Mem(v)))
				}
				coefs = append(coefs, cf(im.load[p][v][t], -im.arch.G*g.Mem(v)))
			}
			m.AddRow(coefs, lp.GE, 0)
			// Induced costs at phase ends.
			m.AddRow([]lp.Coef{
				cf(im.compinduced[t], 1), cf(im.compuntil[p][t], -1), cf(im.compends[t], -im.bigM),
			}, lp.GE, -im.bigM)
			m.AddRow([]lp.Coef{
				cf(im.comminduced[t], 1), cf(im.communtil[p][t], -1), cf(im.commends[t], -im.bigM),
			}, lp.GE, -im.bigM)
		}
	}
}

// addAsyncObjective emits the finishing-time recursion of Appendix C.1.2
// and minimizes the makespan.
func (im *ilpModel) addAsyncObjective() {
	g, m, T, P := im.g, im.m, im.T, im.arch.P
	n := g.N()
	im.finishtime = make([][]int, P)
	for p := 0; p < P; p++ {
		im.finishtime[p] = make([]int, T)
		for t := 0; t < T; t++ {
			im.finishtime[p][t] = im.m.AddVar("finishtime", 0, lp.Inf, 0)
		}
	}
	im.getsblue = make([]int, n)
	for v := 0; v < n; v++ {
		im.getsblue[v] = -1
		if !g.IsSource(v) {
			im.getsblue[v] = im.m.AddVar("getsblue", 0, lp.Inf, 0)
		}
	}
	im.makespan = im.m.AddVar("makespan", 0, lp.Inf, 1)
	for p := 0; p < P; p++ {
		for t := 0; t < T; t++ {
			// finishtime_{p,t} ≥ finishtime_{p,t−1} + step cost.
			coefs := []lp.Coef{cf(im.finishtime[p][t], 1)}
			if t > 0 {
				coefs = append(coefs, cf(im.finishtime[p][t-1], -1))
			}
			for v := 0; v < n; v++ {
				if cp := im.compute[p][v][t]; cp >= 0 {
					coefs = append(coefs, cf(cp, -g.Comp(v)))
				}
				if sv := im.save[p][v][t]; sv >= 0 {
					coefs = append(coefs, cf(sv, -im.arch.G*g.Mem(v)))
				}
				coefs = append(coefs, cf(im.load[p][v][t], -im.arch.G*g.Mem(v)))
			}
			m.AddRow(coefs, lp.GE, 0)
			for v := 0; v < n; v++ {
				// getsblue_v ≥ finishtime_{p,t} − M(1 − save_{p,v,t})
				if sv := im.save[p][v][t]; sv >= 0 {
					m.AddRow([]lp.Coef{
						cf(im.getsblue[v], 1), cf(im.finishtime[p][t], -1), cf(sv, -im.bigM),
					}, lp.GE, -im.bigM)
				}
				// finishtime_{p,t} ≥ getsblue_v + g·Σ_u μ(u)·load_{p,u,t}
				//                    − M(1 − load_{p,v,t})
				if g.IsSource(v) {
					continue // available at time 0
				}
				coefs := []lp.Coef{
					cf(im.finishtime[p][t], 1), cf(im.getsblue[v], -1), cf(im.load[p][v][t], -im.bigM),
				}
				for u := 0; u < n; u++ {
					coefs = append(coefs, cf(im.load[p][u][t], -im.arch.G*g.Mem(u)))
				}
				m.AddRow(coefs, lp.GE, -im.bigM)
			}
		}
		m.AddGE(0, cf(im.makespan, 1), cf(im.finishtime[p][T-1], -1))
	}
}

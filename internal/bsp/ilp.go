package bsp

import (
	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mip"
)

// ilpNodeLimit bounds the ILP's branch-and-bound tree when the caller
// sets no NodeLimit.
const ilpNodeLimit = 3000

// ILP is the ILP-based BSP scheduler (the paper's stronger stage-1
// baseline, "similar to [36]") under communication cost gCost and
// superstep latency l. It formulates BSP scheduling (no memory
// constraints) as an integer program and solves it with branch and
// bound, warm-started from BSPg.
// Binary x[v][p][s] assigns non-source node v to processor p in superstep
// s; precedence requires a parent to be finished on the same processor by
// the same superstep or anywhere strictly earlier. The objective is
//
//	Σ_s maxwork_s + g·(total communicated volume) + L·(used supersteps),
//
// a volume-based relaxation of the h-relation cost that keeps the model
// linear and compact.
//
// run is the tree's environment: run.Context carries the caller's clock
// (nil: none), run.NodeLimit 0 selects 3000 nodes and run.Workers sets
// the tree workers; ILP sets run.WarmStart itself. Falls back to the
// BSPg schedule when the model exceeds mip.DefaultMaxModelRows rows or
// the tree returns no usable solution; errors only when the BSPg warm
// start itself fails.
func ILP(g *graph.DAG, p int, gCost, l float64, run mip.Options) (*Schedule, error) {
	warm, err := BSPg(g, p, gCost)
	if err != nil {
		return nil, err
	}
	// The superstep horizon: the warm start's plus one spare.
	S := warm.NumSteps + 1

	n := g.N()
	m := mip.NewModel()
	// x[v][p][s]
	x := make([][][]int, n)
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		x[v] = make([][]int, p)
		for q := 0; q < p; q++ {
			x[v][q] = make([]int, S)
			for s := 0; s < S; s++ {
				x[v][q][s] = m.AddBinary("x", 0)
			}
		}
	}
	// Every non-source node assigned exactly once.
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		var coefs []lp.Coef
		for q := 0; q < p; q++ {
			for s := 0; s < S; s++ {
				coefs = append(coefs, lp.Coef{Var: x[v][q][s], Val: 1})
			}
		}
		m.AddRow(coefs, lp.EQ, 1)
	}
	// Precedence.
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		for _, u := range g.Parents(v) {
			if g.IsSource(u) {
				continue
			}
			for q := 0; q < p; q++ {
				for s := 0; s < S; s++ {
					// x[v][q][s] ≤ Σ_{s'≤s} x[u][q][s'] + Σ_{q'} Σ_{s'<s} x[u][q'][s']
					coefs := []lp.Coef{{Var: x[v][q][s], Val: 1}}
					for sp := 0; sp <= s; sp++ {
						coefs = append(coefs, lp.Coef{Var: x[u][q][sp], Val: -1})
					}
					for qp := 0; qp < p; qp++ {
						if qp == q {
							continue
						}
						for sp := 0; sp < s; sp++ {
							coefs = append(coefs, lp.Coef{Var: x[u][qp][sp], Val: -1})
						}
					}
					m.AddRow(coefs, lp.LE, 0)
				}
			}
		}
	}
	// Work: maxwork_s ≥ Σ_v ω(v)·x[v][q][s].
	maxwork := make([]int, S)
	for s := 0; s < S; s++ {
		maxwork[s] = m.AddVar("maxwork", 0, lp.Inf, 1)
		for q := 0; q < p; q++ {
			coefs := []lp.Coef{{Var: maxwork[s], Val: 1}}
			for v := 0; v < n; v++ {
				if !g.IsSource(v) {
					coefs = append(coefs, lp.Coef{Var: x[v][q][s], Val: -g.Comp(v)})
				}
			}
			m.AddRow(coefs, lp.GE, 0)
		}
	}
	// Communication: d[u][q] = 1 when u is needed on processor q but
	// computed elsewhere; objective pays g·μ(u) per such destination.
	y := make([][]int, n) // y[u][q] = Σ_s x[u][q][s]
	for u := 0; u < n; u++ {
		if g.IsSource(u) {
			continue
		}
		y[u] = make([]int, p)
		hasCross := false
		for _, w := range g.Children(u) {
			if !g.IsSource(w) {
				hasCross = true
			}
		}
		if !hasCross {
			continue
		}
		for q := 0; q < p; q++ {
			d := m.AddBinary("d", gCost*g.Mem(u))
			y[u][q] = d
			for _, w := range g.Children(u) {
				if g.IsSource(w) {
					continue
				}
				// d ≥ (w on q) − (u on q):
				coefs := []lp.Coef{{Var: d, Val: 1}}
				for s := 0; s < S; s++ {
					coefs = append(coefs, lp.Coef{Var: x[w][q][s], Val: -1})
					coefs = append(coefs, lp.Coef{Var: x[u][q][s], Val: 1})
				}
				m.AddRow(coefs, lp.GE, 0)
			}
		}
	}
	// Superstep usage for the L term.
	used := make([]int, S)
	for s := 0; s < S; s++ {
		used[s] = m.AddBinary("used", l)
		for q := 0; q < p; q++ {
			for v := 0; v < n; v++ {
				if !g.IsSource(v) {
					m.AddLE(0, lp.Coef{Var: x[v][q][s], Val: 1}, lp.Coef{Var: used[s], Val: -1})
				}
			}
		}
	}

	if m.NumRows() > mip.DefaultMaxModelRows {
		return warm, nil
	}

	// Warm start from BSPg: its assignment and the supersteps it uses.
	ws := make([]float64, m.NumVars())
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		ws[x[v][warm.Proc[v]][warm.Step[v]]] = 1
		ws[used[warm.Step[v]]] = 1
	}
	// Continuous/indicator warm values: recompute minimal feasible.
	for s := 0; s < S; s++ {
		var mw float64
		for q := 0; q < p; q++ {
			var w float64
			for v := 0; v < n; v++ {
				if !g.IsSource(v) && warm.Proc[v] == q && warm.Step[v] == s {
					w += g.Comp(v)
				}
			}
			if w > mw {
				mw = w
			}
		}
		ws[maxwork[s]] = mw
	}
	for u := 0; u < n; u++ {
		if g.IsSource(u) || y[u] == nil {
			continue
		}
		for q := 0; q < p; q++ {
			if y[u][q] == 0 {
				continue
			}
			needed := false
			for _, w := range g.Children(u) {
				if !g.IsSource(w) && warm.Proc[w] == q {
					needed = true
				}
			}
			if needed && warm.Proc[u] != q {
				ws[y[u][q]] = 1
			}
		}
	}

	if run.NodeLimit == 0 {
		run.NodeLimit = ilpNodeLimit
	}
	run.WarmStart = ws
	res := m.Solve(run)
	if res.X == nil {
		return warm, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return warm, nil // graph validated above; keep the warm fallback
	}
	out := NewSchedule(g, p)
	for _, v := range order {
		if g.IsSource(v) {
			continue
		}
		for q := 0; q < p; q++ {
			for s := 0; s < S; s++ {
				if res.X[x[v][q][s]] > 0.5 {
					out.Assign(v, q, s)
				}
			}
		}
	}
	// Compress away empty supersteps.
	out, err = compress(out)
	if err != nil || out.Validate() != nil {
		return warm, nil
	}
	return out, nil
}

// compress renumbers supersteps to remove empty ones.
func compress(s *Schedule) (*Schedule, error) {
	usedSteps := map[int]bool{}
	for v := 0; v < s.Graph.N(); v++ {
		if s.Step[v] >= 0 {
			usedSteps[s.Step[v]] = true
		}
	}
	remap := map[int]int{}
	next := 0
	for t := 0; t < s.NumSteps; t++ {
		if usedSteps[t] {
			remap[t] = next
			next++
		}
	}
	order, err := s.Graph.TopoOrder()
	if err != nil {
		return nil, err
	}
	out := NewSchedule(s.Graph, s.P)
	for _, v := range order {
		if s.Proc[v] >= 0 {
			out.Assign(v, s.Proc[v], remap[s.Step[v]])
		}
	}
	return out, nil
}

package bsp

import (
	"context"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mip"
)

// ILPOptions configures the ILP-based BSP scheduler (the paper's stronger
// stage-1 baseline, "similar to [36]").
type ILPOptions struct {
	G, L      float64
	TimeLimit time.Duration // default 10s
	// Workers bounds the goroutines solving branch-and-bound node
	// relaxations concurrently (mip.Options.Workers); the schedule is
	// identical for any value. Default 1.
	Workers int
	// MaxModelRows falls back to the BSPg schedule when the model would
	// exceed this many rows. Default mip.DefaultMaxModelRows.
	MaxModelRows int
}

// ilpNodeLimit bounds the ILP's branch-and-bound tree.
const ilpNodeLimit = 3000

// ILP formulates BSP scheduling (no memory constraints) as an integer
// program and solves it with branch and bound, warm-started from BSPg.
// Binary x[v][p][s] assigns non-source node v to processor p in superstep
// s; precedence requires a parent to be finished on the same processor by
// the same superstep or anywhere strictly earlier. The objective is
//
//	Σ_s maxwork_s + g·(total communicated volume) + L·(used supersteps),
//
// a volume-based relaxation of the h-relation cost that keeps the model
// linear and compact. Falls back to the BSPg schedule when limits bind;
// errors only when the BSPg warm start itself fails.
func ILP(g *graph.DAG, p int, opts ILPOptions) (*Schedule, error) {
	warm, err := BSPg(g, p, BSPgOptions{G: opts.G})
	if err != nil {
		return nil, err
	}
	if opts.TimeLimit == 0 {
		opts.TimeLimit = 10 * time.Second
	}
	if opts.MaxModelRows == 0 {
		opts.MaxModelRows = mip.DefaultMaxModelRows
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
			d := m.AddBinary("d", opts.G*g.Mem(u))
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
	for s := 0; s < S; s++ {
		used := m.AddBinary("used", opts.L)
		for q := 0; q < p; q++ {
			for v := 0; v < n; v++ {
				if !g.IsSource(v) {
					m.AddLE(0, lp.Coef{Var: x[v][q][s], Val: 1}, lp.Coef{Var: used, Val: -1})
				}
			}
		}
	}

	if m.NumRows() > opts.MaxModelRows {
		return warm, nil
	}

	// Warm start from BSPg.
	ws := make([]float64, m.NumVars())
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		ws[x[v][warm.Proc[v]][warm.Step[v]]] = 1
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
	// "used" indicators: set from warm schedule. Their variable indices
	// are the trailing binaries; recompute by scanning names.
	for j := 0; j < m.NumVars(); j++ {
		if m.Name(j) == "used" {
			ws[j] = 0
		}
	}
	usedIdx := make([]int, 0, S)
	for j := 0; j < m.NumVars(); j++ {
		if m.Name(j) == "used" {
			usedIdx = append(usedIdx, j)
		}
	}
	for s := 0; s < S && s < len(usedIdx); s++ {
		for v := 0; v < n; v++ {
			if !g.IsSource(v) && warm.Step[v] == s {
				ws[usedIdx[s]] = 1
				break
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.TimeLimit)
	defer cancel()
	res := m.Solve(mip.Options{
		Context: ctx, NodeLimit: ilpNodeLimit, WarmStart: ws, Workers: opts.Workers,
	})
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

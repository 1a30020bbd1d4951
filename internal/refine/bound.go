package refine

import (
	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
)

// screenSlack is the relative margin by which a move's lower bound must
// clear the rejection threshold before the move is screened. It exceeds
// the rounding error of the bound and of the cost together for every
// schedule of fewer than about 10⁹ operations (DESIGN.md, "Losing moves
// are screened").
const screenSlack = 1e-6

// moveBound computes a lower bound on the cost of the schedule that
// twostage's converter makes from a BSP schedule, from that BSP schedule
// alone. Its per-processor totals are reused from move to move.
type moveBound struct {
	extra []bool // node -> listed in Options.ExtraSave
	// work, save and load are each processor's compute weight, the g·μ
	// of the values it must save, and the g·μ of the distinct values it
	// consumes but does not compute. mark[q] is the last value whose
	// load onto q was counted.
	work, save, load []float64
	mark             []int
}

// newMoveBound returns the bound for searches on g with the given extra
// saves, or nil when g has a negative weight or arch a negative g or L,
// where the bound's argument does not hold.
func newMoveBound(g *graph.DAG, arch mbsp.Arch, extraSave []int) *moveBound {
	if !(arch.G >= 0 && arch.L >= 0) {
		return nil
	}
	for v := 0; v < g.N(); v++ {
		if !(g.Comp(v) >= 0 && g.Mem(v) >= 0) {
			return nil
		}
	}
	mb := &moveBound{
		extra: make([]bool, g.N()),
		work:  make([]float64, arch.P),
		save:  make([]float64, arch.P),
		load:  make([]float64, arch.P),
		mark:  make([]int, arch.P),
	}
	for _, v := range extraSave {
		mb.extra[v] = true
	}
	return mb
}

// lower returns the bound for b on arch under model, in one pass over
// the nodes and their out-edges. Every value a processor computes costs
// its ω there; every value the converter must save (a sink, a value
// with a child on another processor, or an extra save) costs g·μ on the
// processor that computes it; every value a processor consumes but does
// not compute costs g·μ there once. Sync adds one L per superstep the
// converted schedule must have, at least b.NumSteps+1.
func (mb *moveBound) lower(b *bsp.Schedule, arch mbsp.Arch, model mbsp.CostModel) float64 {
	g, proc := b.Graph, b.Proc
	work, save, load, mark := mb.work, mb.save, mb.load, mb.mark
	clear(work)
	clear(save)
	clear(load)
	for q := range mark {
		mark[q] = -1
	}
	for u, pu := range proc[:g.N()] { // pu is -1 for a source
		gm := arch.G * g.Mem(u)
		saved := mb.extra[u] || g.IsSink(u)
		for _, w := range g.Children(u) {
			if q := proc[w]; q != pu {
				saved = true
				if mark[q] != u {
					mark[q] = u
					load[q] += gm
				}
			}
		}
		if pu >= 0 {
			work[pu] += g.Comp(u)
			if saved {
				save[pu] += gm
			}
		}
	}
	if model == mbsp.Async {
		var lb float64
		for p := range work {
			lb = max(lb, work[p]+save[p]+load[p])
		}
		return lb
	}
	var w, s, l float64
	for p := range work {
		w, s, l = max(w, work[p]), max(s, save[p]), max(l, load[p])
	}
	return w + s + l + arch.L*float64(b.NumSteps+1)
}

// Package bounds computes simple lower bounds on the cost of any valid
// MBSP schedule. They serve as soundness nets in tests (no scheduler may
// ever report a cost below them) and as optimality-gap indicators in the
// experiment harness.
package bounds

import (
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
)

// Report carries the individual bounds; Best is their maximum.
type Report struct {
	WorkPerProc  float64 // Σω / P: someone must do the work
	CriticalPath float64 // ω-weighted longest path: dependences serialize
	SinkSave     float64 // g·max sink μ: the largest sink must be saved
	SourceLoad   float64 // g·max consumed-source μ: that source must be loaded
	Sync         float64 // L per superstep (at least one superstep)
	Best         float64
}

// LowerBound computes lower bounds valid for both the synchronous and
// asynchronous cost of any valid schedule of g on arch:
//
//   - every non-source node is computed at least once, so some processor
//     carries at least Σω/P compute time;
//   - a node's compute finishes after its parents' (directly on the same
//     processor, or through a save whose Γ gates the load), so the
//     ω-weighted critical path is a lower bound;
//   - every sink must receive a blue pebble, paying at least g·μ(sink)
//     in some save phase — the largest sink gives a bound;
//   - every source with a consumer must be loaded at least once;
//   - the synchronous cost additionally pays L for the at least one
//     superstep any non-empty schedule has.
//
// The asynchronous bound is Best without the Sync term.
//
// Returns graph.ErrCyclic (with a zero Report) for a cyclic input graph.
func LowerBound(g *graph.DAG, arch mbsp.Arch) (Report, error) {
	var r Report
	order, err := g.TopoOrder()
	if err != nil {
		return r, err
	}
	// Source nodes are inputs, never computed: their ω does not count.
	var totalComp float64
	for v := 0; v < g.N(); v++ {
		if !g.IsSource(v) {
			totalComp += g.Comp(v)
		}
	}
	r.WorkPerProc = totalComp / float64(arch.P)
	// ω-weighted longest path over computed nodes only.
	bl := make([]float64, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for _, w := range g.Children(v) {
			if bl[w] > best {
				best = bl[w]
			}
		}
		if g.IsSource(v) {
			bl[v] = best
		} else {
			bl[v] = best + g.Comp(v)
		}
		if bl[v] > r.CriticalPath {
			r.CriticalPath = bl[v]
		}
	}
	for _, v := range g.Sinks() {
		if !g.IsSource(v) && arch.G*g.Mem(v) > r.SinkSave {
			r.SinkSave = arch.G * g.Mem(v)
		}
	}
	for _, v := range g.Sources() {
		if g.OutDegree(v) > 0 && arch.G*g.Mem(v) > r.SourceLoad {
			r.SourceLoad = arch.G * g.Mem(v)
		}
	}
	hasWork := false
	for v := 0; v < g.N(); v++ {
		if !g.IsSource(v) {
			hasWork = true
			break
		}
	}
	if hasWork {
		r.Sync = arch.L
	}
	r.Best = max(r.WorkPerProc, r.CriticalPath, r.SinkSave, r.SourceLoad)
	return r, nil
}

// Lower returns the lower bound on the cost of any valid schedule of g
// on arch under model: LowerBound's Best, raised to its Sync term under
// mbsp.Sync. A cyclic graph (which admits no valid schedule) yields the
// trivial bound 0; call sites sit behind graph/schedule validation, so
// the bound stays sound.
func Lower(g *graph.DAG, arch mbsp.Arch, model mbsp.CostModel) float64 {
	r, err := LowerBound(g, arch)
	if err != nil {
		return 0
	}
	if model == mbsp.Sync {
		return max(r.Best, r.Sync)
	}
	return r.Best
}

package ilpsched

import (
	"fmt"
	"sort"

	"mbsp/internal/mbsp"
)

// extract converts an integral variable assignment into an MBSP schedule:
// one superstep per ILP time step first (computes in topological order,
// implicit deletes recovered from hasred drops), then a compaction pass
// merges adjacent supersteps whenever the merged schedule stays valid and
// does not cost more.
func (im *ilpModel) extract(x []float64) (*mbsp.Schedule, error) {
	g, T, P := im.g, im.T, im.arch.P
	n := g.N()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	topoPos := make([]int, n)
	for i, v := range order {
		topoPos[v] = i
	}
	on := func(j int) bool { return j >= 0 && x[j] > 0.5 }

	s := mbsp.NewSchedule(g, im.arch)
	for t := 0; t < T; t++ {
		step := s.AddSuperstep()
		used := false
		for p := 0; p < P; p++ {
			ps := &step.Procs[p]
			var computes []int
			for v := 0; v < n; v++ {
				if on(im.compute[p][v][t]) {
					computes = append(computes, v)
				}
			}
			sort.Slice(computes, func(a, b int) bool { return topoPos[computes[a]] < topoPos[computes[b]] })
			for _, v := range computes {
				ps.Comp = append(ps.Comp, mbsp.Op{Kind: mbsp.OpCompute, Node: v})
			}
			// Transient pebbles: computed this step but dropped at the
			// boundary (a merged chain keeping only its tail). The
			// delete must follow the computes that consume the value,
			// so it goes at the end of the compute phase.
			for _, v := range computes {
				if !redAt(im, x, p, v, t+1) {
					ps.Comp = append(ps.Comp, mbsp.Op{Kind: mbsp.OpDelete, Node: v})
				}
			}
			for v := 0; v < n; v++ {
				if on(im.save[p][v][t]) {
					ps.Save = append(ps.Save, v)
				}
				if on(im.load[p][v][t]) && !redAt(im, x, p, v, t) {
					ps.Load = append(ps.Load, v)
				}
				// Implicit deletion: red at t, not red at t+1.
				if redAt(im, x, p, v, t) && !redAt(im, x, p, v, t+1) {
					ps.Del = append(ps.Del, v)
				}
			}
			if !ps.Empty() {
				used = true
			}
		}
		if !used {
			s.Steps = s.Steps[:len(s.Steps)-1]
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("ilpsched: extracted schedule invalid: %w", err)
	}
	s.MergeSteps(im.opts.Model)
	return s, nil
}

func redAt(im *ilpModel, x []float64, p, v, t int) bool {
	j := im.hasred[p][v][t]
	return j >= 0 && x[j] > 0.5
}

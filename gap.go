package mbsp

import (
	"fmt"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	model "mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
)

// TwoStageGapCosts builds the Theorem 4.1 construction (two groups of d
// sources, two chains of length m with alternating group dependencies)
// with cache r = d+2, P = 2, g = 1, L = 0, and returns the synchronous
// costs of
//
//   - the two-stage approach: the optimal BSP schedule (one chain per
//     processor) converted with the clairvoyant eviction policy, which is
//     forced into Θ(d·m) loads; and
//   - the holistic schedule from the proof: each processor owns one
//     source group and computes that group's chain children, exchanging
//     the two per-step chain values through slow memory.
//
// The ratio grows linearly in d, demonstrating the theorem empirically.
func TwoStageGapCosts(d, m int) (twoStage, holistic float64, err error) {
	gd := graph.NewTwoStageGapGadget(d, m)
	g := gd.DAG
	arch := model.Arch{P: 2, R: float64(d) + 2, G: 1, L: 0}

	// Stage 1 optimum: chain V on processor 0, chain U on processor 1,
	// everything in one BSP superstep (no cross-chain edges).
	b := bsp.NewSchedule(g, 2)
	for _, v := range gd.V {
		b.Assign(v, 0, 0)
	}
	for _, u := range gd.U {
		b.Assign(u, 1, 0)
	}
	ts, err := twostage.Convert(b, arch, memmgr.Clairvoyant{}, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("two-stage conversion: %w", err)
	}
	if err := ts.Validate(); err != nil {
		return 0, 0, fmt.Errorf("two-stage schedule invalid: %w", err)
	}

	holo, err := buildGapHolistic(gd, arch)
	if err != nil {
		return 0, 0, err
	}
	return ts.SyncCost(), holo.SyncCost(), nil
}

// buildGapHolistic constructs the proof's optimal MBSP schedule: each
// processor keeps one source group resident; in superstep k it computes
// the chain node depending on its group, saves it, drops it together with
// the loaded chain parent, and loads the value the other processor just
// saved.
func buildGapHolistic(gd *graph.TwoStageGapGadget, arch model.Arch) (*model.Schedule, error) {
	g := gd.DAG
	s := model.NewSchedule(g, arch)

	// Superstep 0: processor 0 loads H1, processor 1 loads H2.
	st := s.AddSuperstep()
	st.Procs[0].Load = append([]int(nil), gd.H1...)
	st.Procs[1].Load = append([]int(nil), gd.H2...)

	// owner(k): which processor computes u_k / v_k. u_k depends on H1
	// for odd k (1-based) — processor 0 — and on H2 for even k; v_k is
	// the mirror image.
	uOwner := func(k int) int {
		if k%2 == 1 {
			return 0
		}
		return 1
	}
	for k := 1; k <= gd.M; k++ {
		st := s.AddSuperstep()
		u, v := gd.U[k-1], gd.V[k-1]
		up, vp := -1, -1
		if k > 1 {
			up, vp = gd.U[k-2], gd.V[k-2]
		}
		place := func(node, parent, p int) {
			ps := &st.Procs[p]
			ps.Comp = append(ps.Comp, model.Op{Kind: model.OpCompute, Node: node})
			ps.Save = append(ps.Save, node)
			ps.Del = append(ps.Del, node)
			if parent >= 0 {
				ps.Del = append(ps.Del, parent)
			}
		}
		place(u, up, uOwner(k))
		place(v, vp, 1-uOwner(k))
		if k < gd.M {
			// Prefetch the chain parents for the next superstep: the
			// next u/v computations happen on the opposite processors.
			st.Procs[1-uOwner(k)].Load = append(st.Procs[1-uOwner(k)].Load, u)
			st.Procs[uOwner(k)].Load = append(st.Procs[uOwner(k)].Load, v)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("holistic gap schedule invalid: %w", err)
	}
	return s, nil
}

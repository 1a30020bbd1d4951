package refine

import (
	"fmt"
	"math/rand"
	"testing"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// TestMoveBoundBelowConvertedCost checks the move screen's soundness:
// for random processor assignments, not only those a search walk
// reaches, the bound never exceeds the cost of the converted schedule.
// It covers the tiny set and random DAGs, P ∈ {2,3,4}, both cost models,
// both eviction policies, with and without extra saves, at several
// caches, g and L.
func TestMoveBoundBelowConvertedCost(t *testing.T) {
	type dag struct {
		name string
		g    *graph.DAG
	}
	var dags []dag
	for _, inst := range workloads.Tiny() {
		dags = append(dags, dag{inst.Name, inst.DAG})
	}
	for seed := int64(1); seed <= 12; seed++ {
		dags = append(dags,
			dag{fmt.Sprintf("layered-%d", seed), graph.RandomLayered("l", 3+int(seed%3), 3+int(seed%4), 0.4, 5, 4, seed)},
			dag{fmt.Sprintf("random-%d", seed), graph.RandomDAG("r", 14+int(seed%7), 0.3, 4, 5, 4, seed)})
	}
	rng := rand.New(rand.NewSource(29))
	policies := []memmgr.Policy{memmgr.Clairvoyant{}, memmgr.LRU{}}
	var conv twostage.Converter
	var cost mbsp.CostScratch
	checked, tight := 0, 0
	for _, d := range dags {
		g := d.g
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		var extra []int
		for v := 0; v < g.N(); v++ {
			if !g.IsSource(v) && rng.Intn(3) == 0 {
				extra = append(extra, v)
			}
		}
		for _, p := range []int{2, 3, 4} {
			arch := mbsp.Arch{P: p, R: float64(1+rng.Intn(3)) * g.MinCache(), G: []float64{0.5, 1, 2}[rng.Intn(3)], L: []float64{0, 3, 10}[rng.Intn(3)]}
			base, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			start := InitialAssignment(base)
			for k := range 8 {
				// Half the draws are uniform; the other half move a few
				// nodes of the baseline's assignment, as a walk does.
				proc := append([]int(nil), start...)
				for v := range proc {
					if g.IsSource(v) {
						continue
					}
					if k%2 == 0 || rng.Intn(5) == 0 {
						proc[v] = rng.Intn(p)
					}
				}
				var b bsp.Schedule
				b.FromAssignment(g, p, proc, order)
				for _, ex := range [][]int{nil, extra} {
					mb := newMoveBound(g, arch, ex)
					for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
						lb := mb.lower(&b, arch, model)
						for _, pol := range policies {
							s, err := conv.Convert(&b, arch, pol, ex)
							if err != nil {
								t.Fatalf("%s P=%d: %v", d.name, p, err)
							}
							c := cost.Cost(s, model)
							label := fmt.Sprintf("%s %v %s %s extra=%d draw %d", d.name, arch, model, pol.Name(), len(ex), k)
							if lb > c*(1+1e-12) {
								t.Fatalf("%s: bound %g above converted cost %g", label, lb, c)
							}
							checked++
							if lb == c {
								tight++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d conversions checked, bound tight on %d", checked, tight)
}

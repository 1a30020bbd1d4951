package twostage

import (
	"fmt"
	"math/rand"
	"testing"

	"mbsp/internal/bsp"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/workloads"
)

// screenFacts checks, on the conversion s of b with the given extra
// saves, the six facts about the converter that the local search's move
// screen rests on (refine's lower bound; DESIGN.md, "Losing moves are
// screened"), and the superstep count they imply. It returns the first
// fact that fails.
func screenFacts(b *bsp.Schedule, s *mbsp.Schedule, extraSave []int) error {
	g := b.Graph
	n := g.N()
	step := make([]int, n) // superstep computing each node, or -1
	for v := range step {
		step[v] = -1
	}
	saved := make([]bool, n)            // saved by the processor assigned it
	loaded := make([]map[int]bool, b.P) // values loaded on each processor
	for p := range loaded {
		loaded[p] = map[int]bool{}
	}
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			for _, op := range ps.Comp {
				if op.Kind != mbsp.OpCompute {
					continue
				}
				v := op.Node
				switch {
				case step[v] >= 0:
					return fmt.Errorf("fact 1 (no recomputation): node %d computed in supersteps %d and %d", v, step[v], i)
				case b.Proc[v] != p:
					return fmt.Errorf("fact 2 (assigned processor): node %d computed on %d, assigned %d", v, p, b.Proc[v])
				case i == 0:
					return fmt.Errorf("fact 5 (superstep 0 computes nothing): node %d computed in superstep 0", v)
				}
				step[v] = i
			}
			for _, v := range ps.Save {
				if b.Proc[v] == p {
					saved[v] = true
				}
			}
			for _, v := range ps.Load {
				loaded[p][v] = true
			}
		}
	}
	extra := make([]bool, n)
	for _, v := range extraSave {
		extra[v] = true
	}
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			continue
		}
		if step[v] < 0 {
			return fmt.Errorf("fact 1 (no recomputation): node %d never computed", v)
		}
		q := b.Proc[v]
		need := extra[v] || g.IsSink(v)
		for _, w := range g.Children(v) {
			need = need || b.Proc[w] != q
		}
		if need && !saved[v] {
			return fmt.Errorf("fact 3 (saves by the computing processor): value %d must be saved but processor %d never saves it", v, q)
		}
		for _, u := range g.Parents(v) {
			if b.Proc[u] == q {
				continue
			}
			if !loaded[q][u] {
				return fmt.Errorf("fact 4 (foreign values are loaded): processor %d consumes %d but never loads it", q, u)
			}
			if !g.IsSource(u) && step[v] <= step[u] {
				return fmt.Errorf("fact 6 (cross edges advance the superstep): edge (%d,%d) across processors in supersteps %d and %d", u, v, step[u], step[v])
			}
		}
	}
	// Facts 5 and 6 imply that a node behind a path of k cross-processor
	// edges is computed in superstep k+1 or later.
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	depth := make([]int, n)
	for _, v := range order {
		if g.IsSource(v) {
			continue
		}
		if step[v] < depth[v]+1 {
			return fmt.Errorf("consequence: node %d behind %d cross-processor edges computed in superstep %d", v, depth[v], step[v])
		}
		for _, w := range g.Children(v) {
			if b.Proc[w] != b.Proc[v] {
				depth[w] = max(depth[w], depth[v]+1)
			} else {
				depth[w] = max(depth[w], depth[v])
			}
		}
	}
	return nil
}

// TestConverterFactsForMoveScreen converts the stage-1 schedule of every
// pipeline, and random processor assignments (the local search's
// input), for the tiny set at several processor counts and caches, with
// and without extra saves, and checks the facts the local search's move
// screen rests on. A converter change that breaks one makes that screen
// unsound. On an assignment's earliest-superstep BSP schedule, whose
// NumSteps is one more than its deepest chain of cross-processor edges,
// the facts give at least NumSteps+1 supersteps, the L count of the
// screen's sync bound.
func TestConverterFactsForMoveScreen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var conv Converter
	for _, inst := range workloads.Tiny() {
		g := inst.DAG
		extra := extraSaveEvery(g)
		for _, p := range []int{1, 2, 3, 4} {
			for _, rf := range []float64{1, 3} {
				arch := archFor(g, p, rf)
				type run struct {
					name     string
					b        *bsp.Schedule
					policy   memmgr.Policy
					earliest bool // b is FromAssignment's
				}
				var runs []run
				for _, pl := range Pipelines(arch) {
					b, err := pl.stage1(g, arch, 7)
					if err != nil {
						t.Fatalf("%s %s: %v", inst.Name, pl.Name(), err)
					}
					runs = append(runs, run{pl.Name(), b, pl.Policy, false})
				}
				for k := range 2 {
					proc := make([]int, g.N())
					for v := range proc {
						proc[v] = rng.Intn(p)
					}
					b, err := bsp.FromAssignment(g, p, proc)
					if err != nil {
						t.Fatal(err)
					}
					for _, pol := range []memmgr.Policy{memmgr.Clairvoyant{}, memmgr.LRU{}} {
						runs = append(runs, run{fmt.Sprintf("random %d+%s", k, pol.Name()), b, pol, true})
					}
				}
				for _, r := range runs {
					for _, ex := range [][]int{nil, extra} {
						s, err := conv.Convert(r.b, arch, r.policy, ex)
						if err != nil {
							t.Fatalf("%s P=%d r=%g %s extra=%d: %v", inst.Name, p, rf, r.name, len(ex), err)
						}
						label := fmt.Sprintf("%s P=%d r=%g %s extra=%d", inst.Name, p, rf, r.name, len(ex))
						if err := screenFacts(r.b, s, ex); err != nil {
							t.Fatalf("%s: the move screen's %v", label, err)
						}
						if r.earliest && len(s.Steps) < r.b.NumSteps+1 {
							t.Fatalf("%s: the move screen's superstep count: %d supersteps for %d BSP supersteps", label, len(s.Steps), r.b.NumSteps)
						}
					}
				}
			}
		}
	}
}

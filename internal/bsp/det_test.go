package bsp

import "testing"
import "mbsp/internal/workloads"

func TestBSPgDeterministic(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		a := mustSched(t)(BSPg(inst.DAG, 4, BSPgOptions{G: 1}))
		b := mustSched(t)(BSPg(inst.DAG, 4, BSPgOptions{G: 1}))
		for v := 0; v < inst.DAG.N(); v++ {
			if a.Proc[v] != b.Proc[v] || a.Step[v] != b.Step[v] {
				t.Fatalf("%s: BSPg nondeterministic at node %d", inst.Name, v)
			}
		}
	}
}

package bsp

import "mbsp/internal/graph"

// DFSOrder returns a depth-first topological compute order of the
// non-source nodes: the traversal descends into an enabled child
// immediately after finishing its last parent, which keeps values hot in
// cache for the subsequent memory-management stage.
func DFSOrder(g *graph.DAG) []int {
	n := g.N()
	remaining := make([]int, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Parents(v) {
			if !g.IsSource(u) {
				remaining[v]++
			}
		}
	}
	seen := make([]bool, n)
	var stack, order []int
	for i := n - 1; i >= 0; i-- {
		if !g.IsSource(i) && remaining[i] == 0 {
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		order = append(order, v)
		for _, c := range g.Children(v) {
			remaining[c]--
			if remaining[c] == 0 && !seen[c] {
				stack = append(stack, c)
			}
		}
	}
	return order
}

// DFS builds the single-processor depth-first BSP schedule used as the
// stage-1 baseline for P=1 (red-blue pebbling with compute costs). The
// whole schedule is one superstep, assigned in DFSOrder; ComputeOrder
// orders each bucket by assignment sequence (Pos), so it returns exactly
// DFSOrder.
func DFS(g *graph.DAG) *Schedule {
	s := NewSchedule(g, 1)
	for _, v := range DFSOrder(g) {
		s.Assign(v, 0, 0)
	}
	return s
}

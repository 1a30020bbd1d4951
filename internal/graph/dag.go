// Package graph provides the weighted computational DAG underlying MBSP
// scheduling: nodes carry a compute weight ω (time to execute the
// operation) and a memory weight μ (size of the node's output value),
// directed edges are data dependencies.
//
// The package also contains structural utilities (topological orders,
// level structure, quotient graphs, induced subDAGs) and the gadget
// constructions used by the paper's proofs.
package graph

import (
	"errors"
	"fmt"
)

// DAG is a directed acyclic graph with per-node compute and memory weights.
// The zero value is an empty DAG ready for use. Nodes are dense integers
// starting at 0, in insertion order.
type DAG struct {
	name   string
	comp   []float64 // ω: compute weight per node
	mem    []float64 // μ: memory weight per node
	out    [][]int   // children per node
	in     [][]int   // parents per node
	labels []string  // optional human-readable node labels
	edges  int
}

// New returns an empty DAG with the given name.
func New(name string) *DAG {
	return &DAG{name: name}
}

// Name returns the DAG's name.
func (g *DAG) Name() string { return g.name }

// SetName sets the DAG's name.
func (g *DAG) SetName(name string) { g.name = name }

// N returns the number of nodes.
func (g *DAG) N() int { return len(g.comp) }

// M returns the number of edges.
func (g *DAG) M() int { return g.edges }

// AddNode adds a node with compute weight comp and memory weight mem and
// returns its id.
func (g *DAG) AddNode(comp, mem float64) int {
	g.comp = append(g.comp, comp)
	g.mem = append(g.mem, mem)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.labels = append(g.labels, "")
	return len(g.comp) - 1
}

// AddNodeLabeled adds a labeled node.
func (g *DAG) AddNodeLabeled(label string, comp, mem float64) int {
	v := g.AddNode(comp, mem)
	g.labels[v] = label
	return v
}

// Label returns the label of node v (may be empty).
func (g *DAG) Label(v int) string { return g.labels[v] }

// SetLabel sets the label of node v.
func (g *DAG) SetLabel(v int, label string) { g.labels[v] = label }

// AddEdge adds the dependency edge u -> v. Duplicate edges are ignored.
// Adding an edge that would create a cycle is not detected here; use
// Validate after construction.
func (g *DAG) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	for _, w := range g.out[u] {
		if w == v {
			return
		}
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.edges++
}

// Comp returns the compute weight ω(v).
func (g *DAG) Comp(v int) float64 { return g.comp[v] }

// Mem returns the memory weight μ(v).
func (g *DAG) Mem(v int) float64 { return g.mem[v] }

// SetComp sets ω(v).
func (g *DAG) SetComp(v int, w float64) { g.comp[v] = w }

// SetMem sets μ(v).
func (g *DAG) SetMem(v int, w float64) { g.mem[v] = w }

// Children returns the children of v. The returned slice must not be
// modified.
func (g *DAG) Children(v int) []int { return g.out[v] }

// Parents returns the parents of v. The returned slice must not be
// modified.
func (g *DAG) Parents(v int) []int { return g.in[v] }

// InDegree returns the number of parents of v.
func (g *DAG) InDegree(v int) int { return len(g.in[v]) }

// OutDegree returns the number of children of v.
func (g *DAG) OutDegree(v int) int { return len(g.out[v]) }

// IsSource reports whether v has no parents. Source nodes represent the
// inputs of the computation: they are never computed, only loaded from
// slow memory.
func (g *DAG) IsSource(v int) bool { return len(g.in[v]) == 0 }

// IsSink reports whether v has no children. Sink nodes are the outputs of
// the computation and must reside in slow memory at the end of a schedule.
func (g *DAG) IsSink(v int) bool { return len(g.out[v]) == 0 }

// Sources returns all source nodes in increasing order.
func (g *DAG) Sources() []int {
	var s []int
	for v := 0; v < g.N(); v++ {
		if g.IsSource(v) {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns all sink nodes in increasing order.
func (g *DAG) Sinks() []int {
	var s []int
	for v := 0; v < g.N(); v++ {
		if g.IsSink(v) {
			s = append(s, v)
		}
	}
	return s
}

// TotalComp returns the total compute weight of all nodes.
func (g *DAG) TotalComp() float64 {
	var t float64
	for _, w := range g.comp {
		t += w
	}
	return t
}

// TotalMem returns the total memory weight of all nodes.
func (g *DAG) TotalMem() float64 {
	var t float64
	for _, w := range g.mem {
		t += w
	}
	return t
}

// ErrCyclic is returned by Validate when the graph contains a cycle.
var ErrCyclic = errors.New("graph: not acyclic")

// Validate checks that the graph is acyclic and that all weights are
// non-negative.
func (g *DAG) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if g.comp[v] < 0 || g.mem[v] < 0 {
			return fmt.Errorf("graph: node %d has negative weight (ω=%g, μ=%g)", v, g.comp[v], g.mem[v])
		}
	}
	return nil
}

// TopoOrder returns a topological order of the nodes (Kahn's algorithm,
// smallest-id-first for determinism), or ErrCyclic.
func (g *DAG) TopoOrder() ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.in[v])
	}
	// ready is a binary min-heap of the nodes whose parents are all
	// ordered; nodes in ascending order already form one.
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, v)
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
				siftUp(ready)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// siftUp restores the min-heap order of h after its last element was
// appended.
func siftUp(h []int) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap order of h after its first element was
// replaced.
func siftDown(h []int) {
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Levels returns, for each node, its level: sources are level 0 and
// level(v) = 1 + max level over parents. Returns ErrCyclic if the graph
// is not acyclic.
func (g *DAG) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, g.N())
	for _, v := range order {
		l := 0
		for _, u := range g.in[v] {
			if lvl[u]+1 > l {
				l = lvl[u] + 1
			}
		}
		lvl[v] = l
	}
	return lvl, nil
}

// BottomLevels returns for each node the ω-weighted length of the longest
// path from the node to any sink (including the node's own ω). This is the
// classical "bottom level" priority used by list schedulers. Returns
// ErrCyclic if the graph is not acyclic.
func (g *DAG) BottomLevels() ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	bl := make([]float64, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for _, w := range g.out[v] {
			if bl[w] > best {
				best = bl[w]
			}
		}
		bl[v] = best + g.comp[v]
	}
	return bl, nil
}

// MinCache returns r0, the minimal fast-memory capacity that admits a
// valid MBSP schedule: the maximum, over all non-source nodes v, of
// μ(v) + Σ_{u ∈ parents(v)} μ(u), and over all source nodes of μ(v).
func (g *DAG) MinCache() float64 {
	r0 := 0.0
	for v := 0; v < g.N(); v++ {
		need := g.mem[v]
		for _, u := range g.in[v] {
			need += g.mem[u]
		}
		if need > r0 {
			r0 = need
		}
	}
	return r0
}

// Clone returns a deep copy of the DAG.
func (g *DAG) Clone() *DAG {
	c := &DAG{
		name:   g.name,
		comp:   append([]float64(nil), g.comp...),
		mem:    append([]float64(nil), g.mem...),
		labels: append([]string(nil), g.labels...),
		edges:  g.edges,
	}
	c.out = make([][]int, len(g.out))
	c.in = make([][]int, len(g.in))
	for v := range g.out {
		c.out[v] = append([]int(nil), g.out[v]...)
		c.in[v] = append([]int(nil), g.in[v]...)
	}
	return c
}

// SubDAG returns the DAG induced by the given nodes along with the mapping
// orig[i] = original id of new node i. Edges between selected nodes are
// kept; edges to unselected nodes are dropped.
func (g *DAG) SubDAG(nodes []int) (*DAG, []int) {
	idx := make(map[int]int, len(nodes))
	orig := make([]int, 0, len(nodes))
	sub := New(g.name + "/sub")
	for _, v := range nodes {
		if _, dup := idx[v]; dup {
			continue
		}
		idx[v] = sub.AddNodeLabeled(g.labels[v], g.comp[v], g.mem[v])
		orig = append(orig, v)
	}
	for _, v := range nodes {
		for _, w := range g.out[v] {
			if j, ok := idx[w]; ok {
				sub.AddEdge(idx[v], j)
			}
		}
	}
	return sub, orig
}

// Quotient contracts the DAG according to part (a node→part map with parts
// 0..k-1) and returns the quotient DAG: one node per part with summed ω
// and μ, and an edge i→j whenever some edge of g crosses from part i to
// part j. It also returns the number of crossing edges (counted per
// original edge).
func (g *DAG) Quotient(part []int, k int) (*DAG, int) {
	q := New(g.name + "/quotient")
	for i := 0; i < k; i++ {
		q.AddNode(0, 0)
	}
	for v := 0; v < g.N(); v++ {
		p := part[v]
		q.comp[p] += g.comp[v]
		q.mem[p] += g.mem[v]
	}
	cut := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.out[u] {
			if part[u] != part[v] {
				q.AddEdge(part[u], part[v])
				cut++
			}
		}
	}
	return q, cut
}

// IsAcyclicPartition reports whether contracting by part yields an acyclic
// quotient graph.
func (g *DAG) IsAcyclicPartition(part []int, k int) bool {
	q, _ := g.Quotient(part, k)
	_, err := q.TopoOrder()
	return err == nil
}

// String returns a short description of the DAG.
func (g *DAG) String() string {
	return fmt.Sprintf("DAG(%s: n=%d, m=%d)", g.name, g.N(), g.M())
}

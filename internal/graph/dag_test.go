package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyDAG(t *testing.T) {
	g := New("empty")
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty DAG has n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty DAG invalid: %v", err)
	}
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New("t")
	a := g.AddNode(2, 3)
	b := g.AddNode(4, 5)
	g.AddEdge(a, b)
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if g.Comp(a) != 2 || g.Mem(a) != 3 || g.Comp(b) != 4 || g.Mem(b) != 5 {
		t.Fatal("weights not stored")
	}
	if !reflect.DeepEqual(g.Children(a), []int{b}) {
		t.Fatalf("children(a)=%v", g.Children(a))
	}
	if !reflect.DeepEqual(g.Parents(b), []int{a}) {
		t.Fatalf("parents(b)=%v", g.Parents(b))
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := New("t")
	a := g.AddNode(1, 1)
	b := g.AddNode(1, 1)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if g.M() != 1 {
		t.Fatalf("duplicate edge counted: m=%d", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self loop did not panic")
		}
	}()
	g := New("t")
	a := g.AddNode(1, 1)
	g.AddEdge(a, a)
}

func TestTopoOrderChain(t *testing.T) {
	g := Chain(5)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("order=%v", order)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cyc")
	a := g.AddNode(1, 1)
	b := g.AddNode(1, 1)
	c := g.AddNode(1, 1)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	// Manually inject a back edge bypassing the duplicate check.
	g.out[c] = append(g.out[c], a)
	g.in[a] = append(g.in[a], c)
	if _, err := g.TopoOrder(); err != ErrCyclic {
		t.Fatalf("expected ErrCyclic, got %v", err)
	}
	if err := g.Validate(); err != ErrCyclic {
		t.Fatalf("Validate: expected ErrCyclic, got %v", err)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := Diamond()
	if !reflect.DeepEqual(g.Sources(), []int{0}) {
		t.Fatalf("sources=%v", g.Sources())
	}
	if !reflect.DeepEqual(g.Sinks(), []int{3}) {
		t.Fatalf("sinks=%v", g.Sinks())
	}
	if !g.IsSource(0) || g.IsSource(1) || !g.IsSink(3) || g.IsSink(0) {
		t.Fatal("IsSource/IsSink misclassified")
	}
}

func TestLevels(t *testing.T) {
	g := Diamond()
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lv, []int{0, 1, 1, 2}) {
		t.Fatalf("levels=%v", lv)
	}
}

func TestBottomLevelsAndCriticalPath(t *testing.T) {
	g := Diamond()
	bl, err := g.BottomLevels()
	if err != nil {
		t.Fatal(err)
	}
	// sink: 1; a,b: 2; source: 3 (the critical path)
	if bl[3] != 1 || bl[1] != 2 || bl[2] != 2 || bl[0] != 3 {
		t.Fatalf("bottom levels=%v", bl)
	}
}

func TestMinCache(t *testing.T) {
	g := New("t")
	a := g.AddNode(1, 2)
	b := g.AddNode(1, 3)
	c := g.AddNode(1, 4)
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	// c needs μ(a)+μ(b)+μ(c) = 9
	if got := g.MinCache(); got != 9 {
		t.Fatalf("MinCache=%g, want 9", got)
	}
}

func TestMinCacheSourceOnly(t *testing.T) {
	g := New("t")
	g.AddNode(0, 7)
	if got := g.MinCache(); got != 7 {
		t.Fatalf("MinCache=%g, want 7", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Diamond()
	c := g.Clone()
	c.AddNode(1, 1)
	c.AddEdge(0, 4)
	c.SetComp(0, 42)
	if g.N() != 4 || g.Comp(0) != 1 {
		t.Fatal("clone mutated original")
	}
	if c.N() != 5 || c.Comp(0) != 42 {
		t.Fatal("clone not updated")
	}
}

func TestSubDAG(t *testing.T) {
	g := Diamond()
	sub, orig := g.SubDAG([]int{0, 1, 3})
	if sub.N() != 3 {
		t.Fatalf("sub n=%d", sub.N())
	}
	if !reflect.DeepEqual(orig, []int{0, 1, 3}) {
		t.Fatalf("orig=%v", orig)
	}
	// Edges kept: 0->1, 1->3 (as 0->1, 1->2 in sub).
	if sub.M() != 2 {
		t.Fatalf("sub m=%d", sub.M())
	}
}

func TestQuotientAndAcyclicPartition(t *testing.T) {
	g := Chain(4)
	part := []int{0, 0, 1, 1}
	q, cut := g.Quotient(part, 2)
	if q.N() != 2 || cut != 1 {
		t.Fatalf("quotient n=%d cut=%d", q.N(), cut)
	}
	if q.Comp(0) != 2 || q.Mem(1) != 2 {
		t.Fatalf("quotient weights comp0=%g mem1=%g", q.Comp(0), q.Mem(1))
	}
	if !g.IsAcyclicPartition(part, 2) {
		t.Fatal("chain split should be acyclic")
	}
	// Alternating partition of a chain is cyclic in the quotient.
	bad := []int{0, 1, 0, 1}
	if g.IsAcyclicPartition(bad, 2) {
		t.Fatal("alternating partition should be cyclic")
	}
}

func TestRoundTripIO(t *testing.T) {
	g := RandomLayered("rt", 4, 5, 0.4, 7, 5, 1)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip size mismatch: %v vs %v", h, g)
	}
	for v := 0; v < g.N(); v++ {
		if h.Comp(v) != g.Comp(v) || h.Mem(v) != g.Mem(v) {
			t.Fatalf("weights of %d differ", v)
		}
		if !reflect.DeepEqual(h.Children(v), g.Children(v)) {
			t.Fatalf("children of %d differ: %v vs %v", v, h.Children(v), g.Children(v))
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"node 0 1 1",
		"dag x 1 0\nnode 1 1 1",
		"dag x 2 1\nnode 0 1 1\nnode 1 1 1\nedge 0 5",
		"dag x 1 0\nfrobnicate",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := DOT(&buf, Diamond()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "digraph") || !strings.Contains(s, "n0 -> n1") {
		t.Fatalf("unexpected DOT output:\n%s", s)
	}
}

func TestRandomLayeredReachability(t *testing.T) {
	g := RandomLayered("r", 5, 6, 0.3, 3, 5, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if !g.IsSource(v) && lv[v] == 0 {
			t.Fatalf("non-source node %d at level 0", v)
		}
	}
}

// Property: every topological order places parents before children.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(seed%20+20)%20
		g := RandomDAG("p", n, 0.3, 4, 5, 5, seed)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Children(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinCache is attained at some node and never exceeded by any
// other node's closed in-neighbourhood weight.
func TestMinCacheProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomDAG("p", 15, 0.25, 5, 5, 5, seed)
		r0 := g.MinCache()
		attained := false
		for v := 0; v < g.N(); v++ {
			need := g.Mem(v)
			for _, u := range g.Parents(v) {
				need += g.Mem(u)
			}
			if need > r0 {
				return false
			}
			if need == r0 {
				attained = true
			}
		}
		return attained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quotient preserves total weights for random acyclic-by-prefix
// partitions.
func TestQuotientWeightConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 30; it++ {
		g := RandomDAG("p", 20, 0.2, 4, 5, 5, int64(it))
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + rng.Intn(3)
		part := make([]int, g.N())
		for i, v := range order {
			part[v] = i * k / g.N()
		}
		q, _ := g.Quotient(part, k)
		if !almostEq(q.TotalComp(), g.TotalComp()) || !almostEq(q.TotalMem(), g.TotalMem()) {
			t.Fatalf("weight not conserved: %g vs %g", q.TotalComp(), g.TotalComp())
		}
		if !g.IsAcyclicPartition(part, k) {
			t.Fatal("prefix partition must be acyclic")
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

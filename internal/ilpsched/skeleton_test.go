package ilpsched

import (
	"math"
	"reflect"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
)

// TestSkeletonDeterministicFractionalMem pins buildSkeleton's segment
// split on fractional memory weights. Three resident sources of μ 0.1,
// 0.2 and 0.3 sum to 0.6 or to the next float up depending on the
// summation order, and r sits between the two, so the split of the
// following two-node compute segment hinges on that last bit.
func TestSkeletonDeterministicFractionalMem(t *testing.T) {
	g := graph.New("fractional")
	a, b, c := g.AddNode(0, 0.1), g.AddNode(0, 0.2), g.AddNode(0, 0.3)
	x := g.AddNode(1, 0)
	y := g.AddNode(1, 0)
	g.AddEdge(a, x)
	g.AddEdge(b, x)
	g.AddEdge(c, x)
	g.AddEdge(x, y)
	m1, m2, m3 := g.Mem(a), g.Mem(b), g.Mem(c)
	lo, hi := (m2+m3)+m1, (m1+m2)+m3
	if lo == hi {
		t.Fatal("fixture: summation order does not change the sum")
	}
	// The smallest r whose tolerance-widened bound admits lo; hi then
	// does not fit.
	r := lo - 1e-9
	for r+1e-9 >= lo {
		r = math.Nextafter(r, 0)
	}
	for r+1e-9 < lo {
		r = math.Nextafter(r, 1)
	}
	if !(lo <= r+1e-9 && hi > r+1e-9) {
		t.Fatalf("fixture: no r separates %v and %v", lo, hi)
	}

	s := mbsp.NewSchedule(g, mbsp.Arch{P: 1, R: r, G: 1, L: 0})
	s.AddSuperstep().Procs[0].Load = []int{c, a, b}
	st := s.AddSuperstep()
	st.Procs[0].Comp = []mbsp.Op{{Kind: mbsp.OpCompute, Node: x}, {Kind: mbsp.OpCompute, Node: y}}
	st.Procs[0].Save = []int{y}

	first, err := buildSkeleton(s)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 50; rep++ {
		got, err := buildSkeleton(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: skeleton %+v differs from first call %+v", rep, got, first)
		}
	}
}

package mbsp

import (
	"bytes"
	"strings"
	"testing"

	"mbsp/internal/graph"
)

func TestScheduleRoundTrip(t *testing.T) {
	g := twoNodeDAG()
	s := handSchedule(g, Arch{P: 1, R: 10, G: 2, L: 5})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.SyncCost() != s.SyncCost() || got.AsyncCost() != s.AsyncCost() {
		t.Fatalf("round trip changed cost: %g/%g vs %g/%g",
			got.SyncCost(), got.AsyncCost(), s.SyncCost(), s.AsyncCost())
	}
	if got.NumSupersteps() != s.NumSupersteps() {
		t.Fatalf("supersteps %d vs %d", got.NumSupersteps(), s.NumSupersteps())
	}
}

func TestScheduleRoundTripMultiProc(t *testing.T) {
	g := graph.New("x")
	s0 := g.AddNode(0, 1)
	v := g.AddNode(1, 1)
	w := g.AddNode(1, 1)
	g.AddEdge(s0, v)
	g.AddEdge(v, w)
	a := Arch{P: 2, R: 10, G: 1, L: 0}
	s := NewSchedule(g, a)
	st0 := s.AddSuperstep()
	st0.Procs[0].Load = []int{s0}
	st1 := s.AddSuperstep()
	st1.Procs[0].Comp = []Op{{OpCompute, v}}
	st1.Procs[0].Save = []int{v}
	st1.Procs[0].Del = []int{s0}
	st1.Procs[1].Load = []int{v}
	st2 := s.AddSuperstep()
	st2.Procs[1].Comp = []Op{{OpCompute, w}, {OpDelete, v}}
	st2.Procs[1].Save = []int{w}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	c1, s1, l1, d1 := s.Ops()
	c2, s2, l2, d2 := got.Ops()
	if c1 != c2 || s1 != s2 || l1 != l2 || d1 != d2 {
		t.Fatalf("ops differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", c1, s1, l1, d1, c2, s2, l2, d2)
	}
}

func TestReadScheduleRejectsMalformed(t *testing.T) {
	g := twoNodeDAG()
	cases := []string{
		"",
		"superstep",
		"mbsp-schedule 1 10 1 0\nc 1",
		"mbsp-schedule 1 10 1 0\nsuperstep\nc 1",
		"mbsp-schedule 1 10 1 0\nsuperstep\np 5\nc 1",
		"mbsp-schedule 1 10 1 0\nsuperstep\np 0\nz 1",
		"mbsp-schedule x 10 1 0",
		"mbsp-schedule 1 10 1 0\nsuperstep\np",
		"mbsp-schedule -1 10 1 0\nsuperstep",
	}
	for i, c := range cases {
		if _, err := ReadSchedule(strings.NewReader(c), g); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadScheduleValidates(t *testing.T) {
	g := twoNodeDAG()
	// Schedule computes node 1 without loading its parent: invalid.
	in := "mbsp-schedule 1 10 1 0\nsuperstep\np 0\nc 1\ns 1\n"
	if _, err := ReadSchedule(strings.NewReader(in), g); err == nil {
		t.Fatal("expected validation error")
	}
}

package bsp

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mbsp/internal/workloads"
)

// sortedComputeOrder is ComputeOrder as it was before Sequences: nodes
// bucketed by (processor, superstep) in id order, then each bucket
// sorted by Pos.
func sortedComputeOrder(s *Schedule) [][][]int {
	order := make([][][]int, s.P)
	for p := range order {
		order[p] = make([][]int, s.NumSteps)
	}
	for v := 0; v < s.Graph.N(); v++ {
		if s.Graph.IsSource(v) || s.Proc[v] < 0 {
			continue
		}
		order[s.Proc[v]][s.Step[v]] = append(order[s.Proc[v]][s.Step[v]], v)
	}
	for p := range order {
		for t := range order[p] {
			bucket := order[p][t]
			sort.Slice(bucket, func(a, b int) bool { return s.Pos[bucket[a]] < s.Pos[bucket[b]] })
		}
	}
	return order
}

// TestSequencesMatchSortedComputeOrder checks that one reused Sequences
// lists, for every schedule each stage-1 scheduler derives on the tiny
// set, exactly the sort-based buckets concatenated per processor, and
// that ComputeOrder still returns those buckets.
func TestSequencesMatchSortedComputeOrder(t *testing.T) {
	var q Sequences
	check := func(name string, s *Schedule) {
		t.Helper()
		want := sortedComputeOrder(s)
		if got := s.ComputeOrder(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ComputeOrder = %v, want %v", name, got, want)
		}
		q.Fill(s)
		if len(q.Off) != s.P+1 {
			t.Fatalf("%s: %d offsets for P=%d", name, len(q.Off), s.P)
		}
		for p := range want {
			if got, flat := q.Proc(p), slices.Concat(want[p]...); !slices.Equal(got, flat) {
				t.Fatalf("%s: processor %d sequence %v, want %v", name, p, got, flat)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, inst := range workloads.Tiny() {
		g := inst.DAG
		check(inst.Name+" DFS", DFS(g))
		for _, p := range []int{2, 4} {
			check(inst.Name+" BSPg", mustSched(t)(BSPg(g, p, 1)))
			check(inst.Name+" Cilk", mustSched(t)(Cilk(g, p, 7)))
			check(inst.Name+" ILP", mustSched(t)(ILP(g, p, 1, 10, within(t, 100*time.Millisecond))))
			proc := make([]int, g.N())
			for v := range proc {
				proc[v] = -1
				if !g.IsSource(v) {
					proc[v] = rng.Intn(p)
				}
			}
			check(inst.Name+" FromAssignment", mustSched(t)(FromAssignment(g, p, proc)))
		}
	}
}

// TestFromAssignmentReusedMatchesFresh derives a sequence of schedules
// for random assignments, on graphs of different sizes, into one
// Schedule's storage, and checks each against a fresh FromAssignment.
func TestFromAssignmentReusedMatchesFresh(t *testing.T) {
	var s Schedule
	rng := rand.New(rand.NewSource(3))
	tiny := workloads.Tiny()
	for i := 0; i < 200; i++ {
		g := tiny[rng.Intn(len(tiny))].DAG
		p := 1 + rng.Intn(5)
		proc := make([]int, g.N())
		for v := range proc {
			proc[v] = -1
			if !g.IsSource(v) {
				proc[v] = rng.Intn(p)
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		s.FromAssignment(g, p, proc, order)
		fresh := mustSched(t)(FromAssignment(g, p, proc))
		if !reflect.DeepEqual(&s, fresh) {
			t.Fatalf("%s P=%d: reused schedule differs from a fresh one", g.Name(), p)
		}
	}
}

package dnc

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/workloads"
)

// servingOpts mirrors the dnc candidate's options under the server's
// defaults: node-limited trees, the 3000-row model cap and a quarter of
// the local-search budget.
func servingOpts(model mbsp.CostModel) ilpsched.Options {
	return ilpsched.Options{
		Model:             model,
		TimeLimit:         time.Minute,
		NodeLimit:         500,
		MaxModelRows:      3000,
		LocalSearchBudget: 500,
		Seed:              1,
	}
}

// solveText runs solve and renders the schedule, failing the test on an
// error.
func solveText(t *testing.T, g *graph.DAG, arch mbsp.Arch, opts ilpsched.Options, memo *Memo) ([]byte, Stats) {
	t.Helper()
	s, stats, err := solve(g, arch, 0, opts, memo)
	if err != nil {
		t.Fatalf("%s P=%d: %v", g.Name(), arch.P, err)
	}
	var buf bytes.Buffer
	if err := mbsp.WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestMemoHitEqualsRecompute shares one memo across the architectures and
// cost models of two DAGs that need bipartition ILPs: every run, hit or
// miss, must return the schedule bytes and Stats of a memo-less run.
func TestMemoHitEqualsRecompute(t *testing.T) {
	memo := NewMemo(1 << 18)
	for _, name := range []string{"kNN_N6_K4", "exp_N6_K4"} {
		inst, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.DAG
		for _, p := range []int{2, 3, 4} {
			for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
				arch := mbsp.Arch{P: p, R: 3 * g.MinCache(), G: 1, L: 10}
				want, wantStats := solveText(t, g, arch, servingOpts(model), nil)
				got, gotStats := solveText(t, g, arch, servingOpts(model), memo)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s P=%d model %v: memo schedule differs from a recompute", name, p, model)
				}
				if gotStats != wantStats {
					t.Fatalf("%s P=%d model %v: memo stats differ:\n%+v\n%+v", name, p, model, gotStats, wantStats)
				}
				if gotStats.PartitionSolver.ILPNodes == 0 {
					t.Fatalf("%s: no bipartition tree counted; the fixture must need a split", name)
				}
			}
		}
	}
	if st := memo.Stats(); st != (MemoStats{Hits: 10, Misses: 2, Entries: 2}) {
		t.Fatalf("memo stats %+v, want 10 hits, 2 misses, 2 entries", st)
	}
}

// flipCtx is a context that reports itself done from its (after+1)-th
// Err call on, so a test can cancel a run at a chosen context check.
type flipCtx struct {
	context.Context
	after int32
	calls atomic.Int32
	done  chan struct{}
	once  sync.Once
}

func newFlipCtx(after int32) *flipCtx {
	return &flipCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.calls.Add(1) <= c.after {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestMemoStoresNoCancelledOrInjectedRun: a context that is done at any
// check of the partitioning stage, even only at the memo's check after
// partition.Recursive returned, stores nothing; neither does a run with
// fault injection.
func TestMemoStoresNoCancelledOrInjectedRun(t *testing.T) {
	inst, err := workloads.ByName("kNN_N6_K4")
	if err != nil {
		t.Fatal(err)
	}
	g := inst.DAG
	tree := mip.Options{NodeLimit: 500}

	// Count the context checks of an uncancelled run.
	count := newFlipCtx(1 << 30)
	tree.Context = count
	if _, err := NewMemo(1<<18).partition(g, 45, tree); err != nil {
		t.Fatal(err)
	}
	checks := count.calls.Load()
	if checks < 3 {
		t.Fatalf("%d context checks; the fixture must split", checks)
	}
	for after := int32(0); after <= checks; after++ {
		memo := NewMemo(1 << 18)
		tree.Context = newFlipCtx(after)
		_, err := memo.partition(g, 45, tree)
		if after == checks-1 && err != nil {
			t.Fatalf("cancelled only after partitioning: %v", err)
		}
		wantEntries := 0
		if after == checks {
			wantEntries = 1 // never cancelled
		}
		if st := memo.Stats(); st.Entries != wantEntries {
			t.Fatalf("context done from check %d of %d: %d entries stored, want %d", after+1, checks, st.Entries, wantEntries)
		}
	}

	memo := NewMemo(1 << 18)
	tree.Context = nil
	tree.Inject = faultinject.New(7, 0.5, 0, faultinject.ColdFallback)
	for range 2 {
		if _, err := memo.partition(g, 45, tree); err != nil {
			t.Fatal(err)
		}
	}
	if st := memo.Stats(); st != (MemoStats{}) {
		t.Fatalf("injected runs reached the memo: %+v", st)
	}
}

// reorderedEdges copies g with its edges inserted in the order of less.
func reorderedEdges(g *graph.DAG, less func(a, b [3]int) bool) *graph.DAG {
	c := graph.New(g.Name())
	var edges [][3]int // u, v, index of v among u's children
	for u := 0; u < g.N(); u++ {
		c.AddNodeLabeled(g.Label(u), g.Comp(u), g.Mem(u))
		for i, v := range g.Children(u) {
			edges = append(edges, [3]int{u, v, i})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return less(edges[i], edges[j]) })
	for _, e := range edges {
		c.AddEdge(e[0], e[1])
	}
	return c
}

// TestMemoEdgeOrder feeds the memo the same DAG with its edges inserted
// in other orders. Reversing every children list must miss; keeping the
// children lists but reordering the parents lists may hit, because the
// partitioner reads children lists only. Either way the run must equal a
// memo-less run on that body byte for byte.
func TestMemoEdgeOrder(t *testing.T) {
	inst, err := workloads.ByName("kNN_N6_K4")
	if err != nil {
		t.Fatal(err)
	}
	g := inst.DAG
	reversed := reorderedEdges(g, func(a, b [3]int) bool { return a[0] < b[0] || a[0] == b[0] && a[2] > b[2] })
	// Edges by their index in the children list, then by descending
	// source: each children list keeps its order, parents lists change.
	parents := reorderedEdges(g, func(a, b [3]int) bool { return a[2] < b[2] || a[2] == b[2] && a[0] > b[0] })
	moved := false
	for v := 0; v < g.N(); v++ {
		moved = moved || fmt.Sprint(parents.Parents(v)) != fmt.Sprint(g.Parents(v))
		if fmt.Sprint(parents.Children(v)) != fmt.Sprint(g.Children(v)) {
			t.Fatalf("node %d: children order changed", v)
		}
	}
	if !moved {
		t.Fatal("the fixture must reorder some parents list")
	}

	arch := mbsp.Arch{P: 2, R: 3 * g.MinCache(), G: 1, L: 10}
	memo := NewMemo(1 << 18)
	solveText(t, g, arch, servingOpts(mbsp.Sync), memo)
	for _, tc := range []struct {
		name string
		g    *graph.DAG
		hit  bool
	}{{"children reversed", reversed, false}, {"parents reordered", parents, true}} {
		before := memo.Stats()
		got, gotStats := solveText(t, tc.g, arch, servingOpts(mbsp.Sync), memo)
		want, wantStats := solveText(t, tc.g, arch, servingOpts(mbsp.Sync), nil)
		if !bytes.Equal(got, want) || gotStats != wantStats {
			t.Fatalf("%s: memo run differs from a recompute of the same body", tc.name)
		}
		if hit := memo.Stats().Hits > before.Hits; hit != tc.hit {
			t.Fatalf("%s: hit = %v, want %v", tc.name, hit, tc.hit)
		}
	}
}

// chainWithShortcut is a 12-node path plus one edge 0→k: distinct
// topologies of equal size, 12 nodes + 12 edges.
func chainWithShortcut(k int) *graph.DAG {
	g := graph.New(fmt.Sprintf("chain%d", k))
	for v := 0; v < 12; v++ {
		g.AddNode(1, 1)
	}
	for v := 1; v < 12; v++ {
		g.AddEdge(v-1, v)
	}
	g.AddEdge(0, k)
	return g
}

// TestMemoCapEvictsOldest: at a cap of two DAGs' entries, storing a third
// evicts the first one stored, and a DAG above the cap is never stored.
func TestMemoCapEvictsOldest(t *testing.T) {
	tree := mip.Options{NodeLimit: 50}
	g1, g2, g3 := chainWithShortcut(3), chainWithShortcut(5), chainWithShortcut(7)
	const size = 12 + 12
	memo := NewMemo(2 * size)
	lookup := func(g *graph.DAG, wantHit bool) {
		t.Helper()
		before := memo.Stats().Hits
		if _, err := memo.partition(g, 5, tree); err != nil {
			t.Fatal(err)
		}
		if hit := memo.Stats().Hits > before; hit != wantHit {
			t.Fatalf("%s: hit = %v, want %v", g.Name(), hit, wantHit)
		}
	}
	lookup(g1, false)
	lookup(g2, false)
	lookup(g3, false) // evicts g1
	if st := memo.Stats(); st.Entries != 2 {
		t.Fatalf("%d entries at a cap of two DAGs", st.Entries)
	}
	lookup(g2, true)
	lookup(g3, true)
	lookup(g1, false)

	small := NewMemo(size - 1)
	for range 2 {
		if _, err := small.partition(g1, 5, tree); err != nil {
			t.Fatal(err)
		}
	}
	if st := small.Stats(); st != (MemoStats{Misses: 2}) {
		t.Fatalf("a DAG above the cap: %+v, want 2 misses and nothing stored", st)
	}
}

// TestMemoKeysTreeSettings: the part size, NodeLimit and NoPerturb are
// part of the key, so changing any of them misses.
func TestMemoKeysTreeSettings(t *testing.T) {
	g := chainWithShortcut(3)
	memo := NewMemo(1 << 18)
	for i, tc := range []struct {
		maxPart int
		tree    mip.Options
		hit     bool
	}{
		{5, mip.Options{NodeLimit: 50}, false},
		{5, mip.Options{NodeLimit: 20}, false},
		{6, mip.Options{NodeLimit: 50}, false},
		{5, mip.Options{NodeLimit: 50, NoPerturb: true}, false},
		{5, mip.Options{NodeLimit: 50, Workers: 2}, true},
	} {
		before := memo.Stats().Hits
		if _, err := memo.partition(g, tc.maxPart, tc.tree); err != nil {
			t.Fatal(err)
		}
		if hit := memo.Stats().Hits > before; hit != tc.hit {
			t.Fatalf("lookup %d (part size %d, %+v): hit = %v, want %v", i, tc.maxPart, tc.tree, hit, tc.hit)
		}
	}
}

// TestMemoConcurrentLookups: concurrent lookups of one DAG agree and
// leave one entry. Run with -race.
func TestMemoConcurrentLookups(t *testing.T) {
	g := chainWithShortcut(5)
	memo := NewMemo(1 << 18)
	parts := make([]string, 4)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := memo.partition(g, 5, mip.Options{NodeLimit: 50})
			if err != nil {
				t.Error(err)
			}
			parts[i] = fmt.Sprint(res)
		}()
	}
	wg.Wait()
	for i := range parts {
		if parts[i] != parts[0] {
			t.Fatalf("lookup %d returned %s, lookup 0 %s", i, parts[i], parts[0])
		}
	}
	if st := memo.Stats(); st.Entries != 1 || st.Hits+st.Misses != int64(len(parts)) {
		t.Fatalf("memo stats %+v after %d lookups of one DAG", st, len(parts))
	}
}

package twostage

import (
	"runtime"
	"strings"
	"testing"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/workloads"
)

func archFor(g *graph.DAG, p int, rFactor float64) mbsp.Arch {
	return mbsp.Arch{P: p, R: rFactor * g.MinCache(), G: 1, L: 10}
}

func TestConvertValidOnTinySetAllPipelines(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		for _, rf := range []float64{1, 3, 5} {
			arch := archFor(inst.DAG, 4, rf)
			for _, pl := range Pipelines(arch) {
				s, err := pl.Run(inst.DAG, arch, 7, nil)
				if err != nil {
					t.Fatalf("%s %s rf=%g: %v", inst.Name, pl.Name(), rf, err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s %s rf=%g: invalid schedule: %v", inst.Name, pl.Name(), rf, err)
				}
				if err := s.CheckComputesAll(); err != nil {
					t.Fatalf("%s %s rf=%g: %v", inst.Name, pl.Name(), rf, err)
				}
			}
		}
	}
}

func TestConvertValidOnSmallSet(t *testing.T) {
	for _, inst := range workloads.Small() {
		arch := archFor(inst.DAG, 4, 5)
		s, err := Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
	}
}

func TestConvertP1DFS(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		arch := archFor(inst.DAG, 1, 3)
		s, err := Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
	}
}

func TestConvertRejectsTooSmallCache(t *testing.T) {
	g := workloads.SpMV(6, 1)
	arch := mbsp.Arch{P: 2, R: g.MinCache() - 1, G: 1, L: 10}
	if _, err := Baseline(arch).Run(g, arch, 0, nil); err != ErrCacheTooSmall {
		t.Fatalf("expected ErrCacheTooSmall, got %v", err)
	}
}

// TestConvertRejectsInvalidStage1 checks that the package-level Convert,
// the entry point for stage-1 schedules from other packages, validates
// its BSP input before converting it.
func TestConvertRejectsInvalidStage1(t *testing.T) {
	g := graph.Chain(3) // source 0 → 1 → 2
	arch := mbsp.Arch{P: 2, R: 100, G: 1, L: 0}
	crossing := bsp.NewSchedule(g, 2)
	crossing.Assign(1, 0, 0)
	crossing.Assign(2, 1, 0) // cross-processor edge inside one superstep
	unassigned := bsp.NewSchedule(g, 2)
	unassigned.Assign(1, 0, 0)
	for name, b := range map[string]*bsp.Schedule{"crossing": crossing, "unassigned": unassigned} {
		if _, err := Convert(b, arch, memmgr.Clairvoyant{}, nil); err == nil || !strings.Contains(err.Error(), "invalid stage-1 schedule") {
			t.Fatalf("%s: Convert returned %v, want an invalid stage-1 schedule error", name, err)
		}
	}
}

func TestConvertChainSingleProc(t *testing.T) {
	// A unit chain with generous cache: cost should be
	// load(source) + m computes + save(sink) + L per superstep (2 steps).
	m := 6
	g := graph.Chain(m + 1)
	arch := mbsp.Arch{P: 1, R: 100, G: 1, L: 0}
	b := bsp.DFS(g)
	s, err := Convert(b, arch, memmgr.Clairvoyant{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Load 1 + computes m + save 1.
	want := 1.0 + float64(m) + 1.0
	if got := s.SyncCost(); got != want {
		t.Fatalf("cost=%g want %g\n%s", got, want, s)
	}
}

func TestConvertTightCacheForcesReloads(t *testing.T) {
	// Theorem 4.1 gadget with r=d+2 forces the converted optimal-BSP
	// schedule into Θ(d·m) loads, while a loose cache avoids them.
	gd := graph.NewTwoStageGapGadget(4, 8)
	g := gd.DAG
	// Stage-1: one chain per processor (the BSP optimum shape).
	b := bsp.NewSchedule(g, 2)
	for i, v := range gd.V {
		b.Assign(v, 0, i/1000) // all in superstep 0
	}
	for i, u := range gd.U {
		b.Assign(u, 1, i/1000)
	}
	tight := mbsp.Arch{P: 2, R: float64(gd.D) + 2, G: 1, L: 0}
	loose := mbsp.Arch{P: 2, R: 4 * float64(gd.D+2), G: 1, L: 0}
	st, err := Convert(b, tight, memmgr.Clairvoyant{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	sl, err := Convert(b, loose, memmgr.Clairvoyant{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
	_, _, loadsTight, _ := st.Ops()
	_, _, loadsLoose, _ := sl.Ops()
	if loadsTight <= 2*loadsLoose {
		t.Fatalf("tight cache loads=%d not far above loose loads=%d", loadsTight, loadsLoose)
	}
	if st.SyncCost() <= sl.SyncCost() {
		t.Fatalf("tight cost %g not above loose cost %g", st.SyncCost(), sl.SyncCost())
	}
}

func TestClairvoyantNotWorseThanLRUOnAverage(t *testing.T) {
	// Clairvoyant should win (or tie) the total across the tiny set for
	// the same stage-1 schedules.
	var cl, lru float64
	for _, inst := range workloads.Tiny() {
		arch := archFor(inst.DAG, 4, 3)
		b, berr := bsp.BSPg(inst.DAG, arch.P, bsp.BSPgOptions{G: arch.G})
		if berr != nil {
			t.Fatal(berr)
		}
		sc, err := Convert(b, arch, memmgr.Clairvoyant{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := Convert(b, arch, memmgr.LRU{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl += sc.SyncCost()
		lru += sl.SyncCost()
	}
	if cl > lru {
		t.Fatalf("clairvoyant total %g worse than LRU total %g", cl, lru)
	}
}

func TestConvertAsyncCostComputable(t *testing.T) {
	for _, inst := range workloads.Tiny()[:4] {
		arch := mbsp.Arch{P: 4, R: 3 * inst.DAG.MinCache(), G: 1, L: 0}
		s, err := Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.AsyncCost() <= 0 {
			t.Fatalf("%s: async cost %g", inst.Name, s.AsyncCost())
		}
		if s.AsyncCost() > s.SyncCost()+1e-9 {
			t.Fatalf("%s: async %g > sync %g with L=0", inst.Name, s.AsyncCost(), s.SyncCost())
		}
	}
}

func TestLargerCacheNeverIncreasesBaselineLoads(t *testing.T) {
	for _, inst := range workloads.Tiny() {
		b, berr := bsp.BSPg(inst.DAG, 4, bsp.BSPgOptions{G: 1})
		if berr != nil {
			t.Fatal(berr)
		}
		var prevLoads = 1 << 30
		for _, rf := range []float64{1, 2, 3, 5, 10} {
			arch := archFor(inst.DAG, 4, rf)
			s, err := Convert(b, arch, memmgr.Clairvoyant{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, _, loads, _ := s.Ops()
			if loads > prevLoads {
				// Clairvoyant is a heuristic under weights, so allow a
				// small wobble but catch gross regressions.
				if float64(loads) > 1.2*float64(prevLoads) {
					t.Fatalf("%s: loads grew sharply with larger cache (rf=%g): %d > %d",
						inst.Name, rf, loads, prevLoads)
				}
			}
			prevLoads = loads
		}
	}
}

// layeredDAG returns layers × width unit nodes; every node past the first
// layer reads two nodes of the layer before it.
func layeredDAG(layers, width int) *graph.DAG {
	g := graph.New("layered")
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			v := g.AddNode(1, 1)
			if l > 0 {
				prev := (l - 1) * width
				g.AddEdge(prev+i, v)
				g.AddEdge(prev+(7*i+3)%width, v)
			}
		}
	}
	return g
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestConvertStateLinearAtManyProcessors bounds the pebble state that a
// conversion and a validation allocate when P is far above the work per
// processor: it must be O(n+m), not O(P·n). Bytes beyond the output's
// bare superstep frame are charged per node and edge. On this input,
// per node and edge, P dense node-indexed rows cost the converter about
// 12 kB and the validator 360 B; maps keyed by node id cost about 500 B
// and 50 B, and the per-processor local index and holder lists 320 B and
// 6 B.
func TestConvertStateLinearAtManyProcessors(t *testing.T) {
	const p = 1024
	const layers, width = 40, 75
	g := layeredDAG(layers, width)
	// Layer l runs in superstep l-1, its nodes dealt round-robin over all
	// P processors.
	b := bsp.NewSchedule(g, p)
	for v := width; v < g.N(); v++ {
		b.Assign(v, v%p, v/width-1)
	}
	var err error
	arch := mbsp.Arch{P: p, R: 3 * g.MinCache(), G: 1, L: 10}
	var s *mbsp.Schedule
	conv := allocatedBytes(func() { s, err = Convert(b, arch, memmgr.Clairvoyant{}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	frame := allocatedBytes(func() {
		o := mbsp.NewSchedule(g, arch)
		for range s.Steps {
			o.AddSuperstep()
		}
	})
	val := allocatedBytes(func() { err = s.Validate() })
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(g.N() + g.M())
	if conv < frame || conv-frame > 1024*size {
		t.Errorf("Convert allocated %d B beyond a %d B frame, want at most %d B (1 kB per node and edge)",
			conv-frame, frame, 1024*size)
	}
	if val > 64*size {
		t.Errorf("Validate allocated %d B, want at most %d B (64 B per node and edge)", val, 64*size)
	}
	t.Logf("n=%d m=%d steps=%d: convert %d B (frame %d B), validate %d B", g.N(), g.M(), len(s.Steps), conv, frame, val)
}

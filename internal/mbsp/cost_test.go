package mbsp_test

import (
	"math"
	"math/rand"
	"testing"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
)

// referenceAsyncCost is AsyncCost as it stood before CostScratch: fresh
// storage per call and the source list from g.Sources().
func referenceAsyncCost(s *mbsp.Schedule) float64 {
	g := s.Graph
	gamma := make([]float64, s.Arch.P)
	const unsaved = -1.0
	avail := make([]float64, g.N())
	minThis := make([]float64, g.N())
	for v := range avail {
		avail[v], minThis[v] = unsaved, unsaved
	}
	for _, v := range g.Sources() {
		avail[v] = 0
	}
	var savedNow []int
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			for _, op := range s.Steps[i].Procs[p].Comp {
				if op.Kind == mbsp.OpCompute {
					gamma[p] += g.Comp(op.Node)
				}
			}
		}
		savedNow = savedNow[:0]
		for p := range s.Steps[i].Procs {
			for _, v := range s.Steps[i].Procs[p].Save {
				gamma[p] += s.Arch.G * g.Mem(v)
				switch t := minThis[v]; {
				case t == unsaved:
					minThis[v] = gamma[p]
					savedNow = append(savedNow, v)
				case gamma[p] < t:
					minThis[v] = gamma[p]
				}
			}
		}
		for _, v := range savedNow {
			if avail[v] == unsaved {
				avail[v] = minThis[v]
			}
			minThis[v] = unsaved
		}
		for p := range s.Steps[i].Procs {
			for _, v := range s.Steps[i].Procs[p].Load {
				start := gamma[p]
				if t := avail[v]; t != unsaved && t > start {
					start = t
				}
				gamma[p] = start + s.Arch.G*g.Mem(v)
			}
		}
	}
	best := 0.0
	for p := range gamma {
		best = max(best, gamma[p])
	}
	return best
}

// TestCostScratchMatchesAsyncCost scores random valid schedules — random
// DAGs of varying size, random processor counts and assignments — with
// one CostScratch reused across all of them, and requires the bits of
// AsyncCost, of the pre-scratch reference and of SyncCost for the two
// cost models.
func TestCostScratchMatchesAsyncCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c mbsp.CostScratch
	for trial := 0; trial < 200; trial++ {
		g := graph.RandomDAG("r", 4+rng.Intn(40), 0.2, 3, 5, 4, int64(trial))
		arch := mbsp.Arch{P: 1 + rng.Intn(6), R: float64(1+rng.Intn(3)) * g.MinCache(), G: float64(rng.Intn(3)), L: 1}
		proc := make([]int, g.N())
		for v := range proc {
			proc[v] = -1
			if !g.IsSource(v) {
				proc[v] = rng.Intn(arch.P)
			}
		}
		b, err := bsp.FromAssignment(g, arch.P, proc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := twostage.Convert(b, arch, memmgr.Clairvoyant{}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		want := math.Float64bits(referenceAsyncCost(s))
		if got := math.Float64bits(s.AsyncCost()); got != want {
			t.Fatalf("trial %d: AsyncCost %#x, reference %#x", trial, got, want)
		}
		if got := math.Float64bits(c.Cost(s, mbsp.Async)); got != want {
			t.Fatalf("trial %d: reused scratch %#x, reference %#x", trial, got, want)
		}
		if got, want := math.Float64bits(c.Cost(s, mbsp.Sync)), math.Float64bits(s.SyncCost()); got != want {
			t.Fatalf("trial %d: scratch sync %#x, SyncCost %#x", trial, got, want)
		}
	}
}

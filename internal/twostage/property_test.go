package twostage

import (
	"testing"
	"testing/quick"

	"mbsp/internal/bounds"
	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
)

// Property: over random DAGs, processor counts, cache factors and both
// eviction policies, the conversion always yields a valid schedule that
// computes every node and never beats the lower bound.
func TestConvertPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		abs := func(x int64) int64 {
			if x < 0 {
				return -x
			}
			return x
		}
		g := graph.RandomLayered("p", 2+int(abs(rng)%3), 3+int(abs(rng/7)%4), 0.4, 4, 4, seed)
		p := 1 + int(abs(rng/13)%4)
		rf := 1.0 + float64(abs(rng/17)%3)
		arch := mbsp.Arch{P: p, R: rf * g.MinCache(), G: 1 + float64(abs(rng/19)%3), L: float64(abs(rng/23) % 11)}
		var b *bsp.Schedule
		if p == 1 {
			b = bsp.DFS(g)
		} else {
			var berr error
			b, berr = bsp.BSPg(g, p, bsp.BSPgOptions{G: arch.G})
			if berr != nil {
				return false
			}
		}
		for _, pol := range []memmgr.Policy{memmgr.Clairvoyant{}, memmgr.LRU{}} {
			s, err := Convert(b, arch, pol, nil)
			if err != nil {
				return false
			}
			if s.Validate() != nil || s.CheckComputesAll() != nil {
				return false
			}
			if s.SyncCost() < bounds.Lower(g, arch, mbsp.Sync)-1e-9 {
				return false
			}
			if s.AsyncCost() > s.SyncCost()+1e-9 && arch.L == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: converting the same BSP schedule with a larger cache never
// increases the number of supersteps drastically (segments only grow).
func TestConvertMonotoneSegments(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := graph.RandomLayered("p", 3, 4, 0.4, 4, 4, seed)
		b, berr := bsp.BSPg(g, 2, bsp.BSPgOptions{G: 1})
		if berr != nil {
			t.Fatal(berr)
		}
		var prevSteps = 1 << 30
		for _, rf := range []float64{1, 2, 4, 8} {
			arch := mbsp.Arch{P: 2, R: rf * g.MinCache(), G: 1, L: 10}
			s, err := Convert(b, arch, memmgr.Clairvoyant{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumSupersteps() > prevSteps+1 {
				t.Fatalf("seed %d rf=%g: supersteps grew from %d to %d with a larger cache",
					seed, rf, prevSteps, s.NumSupersteps())
			}
			prevSteps = s.NumSupersteps()
		}
	}
}

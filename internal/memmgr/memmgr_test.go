package memmgr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClairvoyantPrefersFurthestUse(t *testing.T) {
	c := Clairvoyant{}
	cands := []Info{
		{Node: 0, Mem: 1, NextUse: 3},
		{Node: 1, Mem: 1, NextUse: 10},
		{Node: 2, Mem: 1, NextUse: 5},
	}
	if got := c.Pick(cands); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

func TestClairvoyantPrefersDeadValues(t *testing.T) {
	c := Clairvoyant{}
	cands := []Info{
		{Node: 0, Mem: 5, NextUse: 100},
		{Node: 1, Mem: 1, NextUse: NoUse},
	}
	if got := c.Pick(cands); got != 1 {
		t.Fatalf("picked %d, want dead value", got)
	}
}

func TestClairvoyantTieBreaksByMem(t *testing.T) {
	c := Clairvoyant{}
	cands := []Info{
		{Node: 0, Mem: 2, NextUse: 7},
		{Node: 1, Mem: 4, NextUse: 7},
	}
	if got := c.Pick(cands); got != 1 {
		t.Fatalf("picked %d, want heavier value", got)
	}
}

func TestClairvoyantDeterministicTieBreak(t *testing.T) {
	c := Clairvoyant{}
	cands := []Info{
		{Node: 3, Mem: 2, NextUse: 7},
		{Node: 1, Mem: 2, NextUse: 7},
	}
	if got := c.Pick(cands); got != 1 {
		t.Fatalf("picked %d, want smaller id", got)
	}
}

func TestLRUPicksLeastRecent(t *testing.T) {
	l := LRU{}
	cands := []Info{
		{Node: 0, LastUse: 9},
		{Node: 1, LastUse: 2},
		{Node: 2, LastUse: 5},
	}
	if got := l.Pick(cands); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

func TestLRUTieBreak(t *testing.T) {
	l := LRU{}
	cands := []Info{
		{Node: 7, LastUse: 2},
		{Node: 3, LastUse: 2},
	}
	if got := l.Pick(cands); got != 1 {
		t.Fatalf("picked %d, want node 3", got)
	}
}

// Property: both policies always return a valid index, and Clairvoyant's
// pick has maximal NextUse among candidates.
func TestPolicyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		cands := make([]Info, n)
		for i := range cands {
			cands[i] = Info{
				Node:    rng.Intn(100),
				Mem:     float64(1 + rng.Intn(5)),
				NextUse: rng.Intn(50),
				LastUse: rng.Intn(50),
			}
		}
		ci := Clairvoyant{}.Pick(cands)
		li := LRU{}.Pick(cands)
		if ci < 0 || ci >= n || li < 0 || li >= n {
			return false
		}
		for _, c := range cands {
			if c.NextUse > cands[ci].NextUse {
				return false
			}
			if c.LastUse < cands[li].LastUse {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the victim does not depend on the order of the candidates.
// The converter lists them in resident-list order, which shifts as values
// come and go; a Pick that read the order would change schedules.
// Node ids are distinct (the converter offers each resident value once)
// and the other fields are drawn from small ranges so ties are common.
func TestPickIgnoresCandidateOrder(t *testing.T) {
	for _, pol := range []Policy{Clairvoyant{}, LRU{}} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(12)
			cands := make([]Info, n)
			for i, v := range rng.Perm(3 * n)[:n] {
				next := rng.Intn(4)
				if next == 3 {
					next = NoUse
				}
				cands[i] = Info{
					Node:    v,
					Mem:     float64(1 + rng.Intn(2)),
					NextUse: next,
					LastUse: rng.Intn(4),
					Saved:   rng.Intn(2) == 0,
				}
			}
			want := cands[pol.Pick(cands)].Node
			for k := 0; k < 8; k++ {
				rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
				if cands[pol.Pick(cands)].Node != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if (Clairvoyant{}).Name() != "clairvoyant" || (LRU{}).Name() != "lru" {
		t.Fatal("policy names")
	}
}

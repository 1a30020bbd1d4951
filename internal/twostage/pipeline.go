package twostage

import (
	"fmt"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
)

// Pipeline names a complete two-stage baseline: a stage-1 scheduler plus
// an eviction policy.
type Pipeline struct {
	Name   string
	Stage1 func(g *graph.DAG, p int) (*bsp.Schedule, error)
	Policy memmgr.Policy
}

// Run executes the pipeline on g for the given architecture.
func (pl Pipeline) Run(g *graph.DAG, arch mbsp.Arch) (*mbsp.Schedule, error) {
	b, err := pl.Stage1(g, arch.P)
	if err != nil {
		return nil, fmt.Errorf("twostage: stage-1 scheduler %s: %w", pl.Name, err)
	}
	return Convert(b, arch, pl.Policy)
}

// BSPgClairvoyant is the paper's main baseline: the BSPg greedy scheduler
// combined with the clairvoyant eviction policy.
func BSPgClairvoyant(g1, l float64) Pipeline {
	return Pipeline{
		Name: "BSPg+clairvoyant",
		Stage1: func(g *graph.DAG, p int) (*bsp.Schedule, error) {
			return bsp.BSPg(g, p, bsp.BSPgOptions{G: g1, L: l})
		},
		Policy: memmgr.Clairvoyant{},
	}
}

// CilkLRU is the paper's "application-oriented" baseline: a Cilk-style
// work-stealing scheduler combined with LRU eviction.
func CilkLRU(seed int64) Pipeline {
	return Pipeline{
		Name: "Cilk+LRU",
		Stage1: func(g *graph.DAG, p int) (*bsp.Schedule, error) {
			return bsp.Cilk(g, p, seed)
		},
		Policy: memmgr.LRU{},
	}
}

// DFSClairvoyant is the single-processor baseline (red-blue pebbling with
// compute costs): a depth-first order plus clairvoyant eviction.
func DFSClairvoyant() Pipeline {
	return Pipeline{
		Name: "DFS+clairvoyant",
		Stage1: func(g *graph.DAG, p int) (*bsp.Schedule, error) {
			return bsp.DFS(g), nil
		},
		Policy: memmgr.Clairvoyant{},
	}
}

// Baseline is the paper's main baseline for arch: BSPg+clairvoyant, or
// DFS+clairvoyant on a single processor, where BSPg has nothing to
// balance.
func Baseline(arch mbsp.Arch) Pipeline {
	if arch.P == 1 {
		return DFSClairvoyant()
	}
	return BSPgClairvoyant(arch.G, arch.L)
}

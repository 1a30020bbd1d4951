package twostage

import (
	"fmt"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
)

// Stage1 selects a stage-1 BSP scheduler.
type Stage1 uint8

const (
	// BSPg is the greedy BSP scheduler, scoring communication with the
	// architecture's g.
	BSPg Stage1 = iota
	// Cilk is Cilk-style randomized work stealing.
	Cilk
	// DFS is a depth-first order on one processor (red-blue pebbling with
	// compute costs).
	DFS
)

var stage1Names = [...]string{BSPg: "bspg", Cilk: "cilk", DFS: "dfs"}

// Pipeline is a complete two-stage scheduler: a stage-1 scheduler plus an
// eviction policy.
type Pipeline struct {
	Stage1 Stage1
	Policy memmgr.Policy
}

// Name is the pipeline's lowercase name, e.g. "bspg+clairvoyant".
func (pl Pipeline) Name() string { return stage1Names[pl.Stage1] + "+" + pl.Policy.Name() }

// Run executes the pipeline on g for arch. seed drives the Cilk stage's
// randomness; extraSave is passed to Convert.
func (pl Pipeline) Run(g *graph.DAG, arch mbsp.Arch, seed int64, extraSave []int) (*mbsp.Schedule, error) {
	b, err := pl.stage1(g, arch, seed)
	if err != nil {
		return nil, err
	}
	return Convert(b, arch, pl.Policy, extraSave)
}

// stage1 runs the pipeline's stage-1 scheduler.
func (pl Pipeline) stage1(g *graph.DAG, arch mbsp.Arch, seed int64) (*bsp.Schedule, error) {
	var b *bsp.Schedule
	var err error
	switch pl.Stage1 {
	case BSPg:
		b, err = bsp.BSPg(g, arch.P, arch.G)
	case Cilk:
		b, err = bsp.Cilk(g, arch.P, seed)
	case DFS:
		b = bsp.DFS(g)
	}
	if err != nil {
		return nil, fmt.Errorf("twostage: stage-1 scheduler %s: %w", pl.Name(), err)
	}
	return b, nil
}

// Pipelines lists the two-stage pipelines applicable on arch: each of
// BSPg, Cilk and DFS, with clairvoyant and then LRU eviction. On a single
// processor BSPg and Cilk reduce to DFS, so only the DFS pipelines are
// listed; on more, DFS leaves all but one processor idle and wins when
// synchronization and communication dominate compute. The first entry is
// the paper's main baseline.
func Pipelines(arch mbsp.Arch) []Pipeline {
	stages := []Stage1{BSPg, Cilk, DFS}
	if arch.P == 1 {
		stages = []Stage1{DFS}
	}
	out := make([]Pipeline, 0, 2*len(stages))
	for _, s := range stages {
		out = append(out, Pipeline{s, memmgr.Clairvoyant{}}, Pipeline{s, memmgr.LRU{}})
	}
	return out
}

// Baseline is the paper's main baseline for arch: BSPg+clairvoyant, or
// DFS+clairvoyant on a single processor, where BSPg has nothing to
// balance.
func Baseline(arch mbsp.Arch) Pipeline { return Pipelines(arch)[0] }

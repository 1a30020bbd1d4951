package workloads

import (
	"fmt"
	"math/rand"

	"mbsp/internal/graph"
)

// Instance is a named benchmark DAG.
type Instance struct {
	Name string
	DAG  *graph.DAG
}

// AssignRandomMemWeights assigns uniform random memory weights from
// {lo..hi} to every node, deterministically from seed — the paper adds
// μ ∈ {1..5} this way because the source dataset has compute weights
// only.
func AssignRandomMemWeights(g *graph.DAG, lo, hi int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < g.N(); v++ {
		g.SetMem(v, float64(lo+rng.Intn(hi-lo+1)))
	}
}

// entry is one dataset instance: its name, the generator call that builds
// its DAG, and the seed of its memory weights.
type entry struct {
	name string
	dag  func() *graph.DAG
	seed int64
}

// build makes the entry's instance: a fresh DAG on every call, so callers
// may mutate it.
func (e entry) build() Instance {
	g := e.dag()
	g.SetName(e.name)
	AssignRandomMemWeights(g, 1, 5, e.seed)
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("workloads: instance %s invalid: %v", e.name, err))
	}
	return Instance{Name: e.name, DAG: g}
}

func build(table []entry) []Instance {
	insts := make([]Instance, len(table))
	for i, e := range table {
		insts[i] = e.build()
	}
	return insts
}

var tinyTable = []entry{
	{"bicgstab", func() *graph.DAG { return BiCGSTAB(2) }, 101},
	{"k-means", func() *graph.DAG { return KMeans(3, 2) }, 102},
	{"pregel", func() *graph.DAG { return Pregel(3, 2) }, 103},
	{"spmv_N6", func() *graph.DAG { return SpMV(6, 6) }, 104},
	{"spmv_N7", func() *graph.DAG { return SpMV(7, 7) }, 105},
	{"spmv_N10", func() *graph.DAG { return SpMV(10, 10) }, 106},
	{"CG_N2_K2", func() *graph.DAG { return CG(2, 2, 22) }, 107},
	{"CG_N3_K1", func() *graph.DAG { return CG(3, 1, 31) }, 108},
	{"CG_N4_K1", func() *graph.DAG { return CG(4, 1, 41) }, 109},
	{"exp_N4_K2", func() *graph.DAG { return IteratedSpMV(4, 2, 42) }, 110},
	{"exp_N5_K3", func() *graph.DAG { return IteratedSpMV(5, 3, 53) }, 111},
	{"exp_N6_K4", func() *graph.DAG { return IteratedSpMV(6, 4, 64) }, 112},
	{"kNN_N4_K3", func() *graph.DAG { return KNN(4, 3, 43) }, 113},
	{"kNN_N5_K3", func() *graph.DAG { return KNN(5, 3, 53) }, 114},
	{"kNN_N6_K4", func() *graph.DAG { return KNN(6, 4, 64) }, 115},
}

// Tiny returns the default "tiny" dataset: the same 15 instance names and
// computation families as the paper's smallest dataset, at sizes our
// bundled branch-and-bound solver can explore within test/bench budgets
// (the paper used a commercial solver with 60-minute limits; see
// DESIGN.md for the substitution note).
func Tiny() []Instance { return build(tinyTable) }

var smallTable = []entry{
	{"simple_pagerank", func() *graph.DAG { return PageRank(6, 5) }, 201},
	{"snni_graphchall.", func() *graph.DAG { return SNNI(6, 6, 7) }, 202},
	{"spmv_N25", func() *graph.DAG { return SpMV(25, 25) }, 203},
	{"spmv_N35", func() *graph.DAG { return SpMV(35, 35) }, 204},
	{"CG_N5_K4", func() *graph.DAG { return CG(5, 4, 54) }, 205},
	{"CG_N7_K2", func() *graph.DAG { return CG(7, 2, 72) }, 206},
	{"exp_N10_K8", func() *graph.DAG { return IteratedSpMV(10, 8, 108) }, 207},
	{"exp_N15_K4", func() *graph.DAG { return IteratedSpMV(15, 4, 154) }, 208},
	{"kNN_N10_K8", func() *graph.DAG { return KNN(10, 8, 108) }, 209},
	{"kNN_N15_K4", func() *graph.DAG { return KNN(15, 4, 154) }, 210},
}

// Small returns the default "small" dataset: the 10 instance names of the
// paper's second dataset (two smallest per family plus the two
// coarse-grained graphs), again at solver-friendly sizes.
func Small() []Instance { return build(smallTable) }

var paperTinyTable = []entry{
	{"bicgstab", func() *graph.DAG { return BiCGSTAB(5) }, 101},
	{"k-means", func() *graph.DAG { return KMeans(5, 4) }, 102},
	{"pregel", func() *graph.DAG { return Pregel(5, 4) }, 103},
	{"spmv_N12", func() *graph.DAG { return SpMV(12, 6) }, 104},
	{"spmv_N14", func() *graph.DAG { return SpMV(14, 7) }, 105},
	{"spmv_N16", func() *graph.DAG { return SpMV(16, 10) }, 106},
	{"CG_N4_K2", func() *graph.DAG { return CG(4, 2, 22) }, 107},
	{"CG_N5_K2", func() *graph.DAG { return CG(5, 2, 31) }, 108},
	{"CG_N6_K2", func() *graph.DAG { return CG(6, 2, 41) }, 109},
	{"exp_N6_K4", func() *graph.DAG { return IteratedSpMV(6, 4, 42) }, 110},
	{"exp_N7_K5", func() *graph.DAG { return IteratedSpMV(7, 5, 53) }, 111},
	{"exp_N8_K5", func() *graph.DAG { return IteratedSpMV(8, 5, 64) }, 112},
	{"kNN_N6_K5", func() *graph.DAG { return KNN(6, 5, 43) }, 113},
	{"kNN_N7_K5", func() *graph.DAG { return KNN(7, 5, 53) }, 114},
	{"kNN_N8_K6", func() *graph.DAG { return KNN(8, 6, 64) }, 115},
}

// PaperTiny returns the tiny dataset scaled up to the paper's node counts
// (roughly 40–80 nodes per instance). Intended for long offline runs.
func PaperTiny() []Instance { return build(paperTinyTable) }

var paperSmallTable = []entry{
	{"simple_pagerank", func() *graph.DAG { return PageRank(10, 9) }, 201},
	{"snni_graphchall.", func() *graph.DAG { return SNNI(10, 10, 7) }, 202},
	{"spmv_N60", func() *graph.DAG { return SpMV(60, 25) }, 203},
	{"spmv_N90", func() *graph.DAG { return SpMV(90, 35) }, 204},
	{"CG_N8_K5", func() *graph.DAG { return CG(8, 5, 54) }, 205},
	{"CG_N12_K3", func() *graph.DAG { return CG(12, 3, 72) }, 206},
	{"exp_N16_K10", func() *graph.DAG { return IteratedSpMV(16, 10, 108) }, 207},
	{"exp_N24_K6", func() *graph.DAG { return IteratedSpMV(24, 6, 154) }, 208},
	{"kNN_N16_K10", func() *graph.DAG { return KNN(16, 10, 108) }, 209},
	{"kNN_N24_K6", func() *graph.DAG { return KNN(24, 6, 154) }, 210},
}

// PaperSmall returns the small dataset scaled up to the paper's node
// counts (roughly 264–464 nodes per instance).
func PaperSmall() []Instance { return build(paperSmallTable) }

// datasets holds every dataset's table in ByName's search order.
var datasets = [][]entry{tinyTable, smallTable, paperTinyTable, paperSmallTable}

// ByName builds the named instance and only that one, a fresh DAG per
// call. The first dataset that holds the name wins, in the order Tiny,
// Small, PaperTiny, PaperSmall, so six paper-scale entries are never
// returned: PaperTiny's "bicgstab", "k-means", "pregel" and "exp_N6_K4",
// and PaperSmall's "simple_pagerank" and "snni_graphchall.". An unknown
// name's error lists every entry's name in that order.
func ByName(name string) (Instance, error) {
	var names []string
	for _, table := range datasets {
		for _, e := range table {
			if e.name == name {
				return e.build(), nil
			}
			names = append(names, e.name)
		}
	}
	return Instance{}, fmt.Errorf("workloads: unknown instance %q (known: %v)", name, names)
}

// Names returns every name ByName resolves, once each, in search order.
func Names() []string {
	var names []string
	seen := map[string]bool{}
	for _, table := range datasets {
		for _, e := range table {
			if !seen[e.name] {
				seen[e.name] = true
				names = append(names, e.name)
			}
		}
	}
	return names
}

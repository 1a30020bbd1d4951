// Package experiments reproduces the paper's evaluation (Section 7 /
// Appendix D): the baseline-vs-ILP comparisons of Tables 1 and 3, the
// parameter sweep of Table 4, the divide-and-conquer comparison of Table
// 2, the cost-ratio distributions of Figure 4, and the single-processor
// side experiment. The no-recomputation ablation is
// BenchmarkNoRecomputationAblation in the module root's bench_test.go.
//
// Budgets are configurable: the paper ran a commercial solver for 60
// minutes per instance on 64 cores, while the defaults here are tuned for
// second-scale runs with the bundled solver (see DESIGN.md).
package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbsp/internal/bounds"
	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/portfolio"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// Config carries the architecture and solver environment of one
// experiment.
type Config struct {
	P       int
	RFactor float64 // r = RFactor · r0
	G       float64
	L       float64

	// ILP is the grid's solver environment. Every ILP-based method passes
	// it to its solver (Table 2's with a quarter of the local-search
	// budget); ILP.Model ranks every column and ILP.Seed seeds Cilk+LRU.
	// MIPWorkers never changes a result. The per-cell fields WarmStart,
	// Incumbent and NeedBlue must stay unset, and LUStats, which is not
	// synchronized, needs Workers 1.
	ILP ilpsched.Options

	// Workers bounds how many (instance, method) grid cells run
	// concurrently. 0 selects GOMAXPROCS; 1 is the sequential path.
	// Results are collected in grid order, so for deterministic methods
	// the rendered table is identical for any worker count.
	Workers int

	// Checkpoint, when non-nil, makes grid runs resumable: every
	// completed (instance, method) cell is durably journaled, and cells
	// whose key — instance fingerprint, method, and the cost-relevant
	// Config fields — already completed are replayed instead of
	// recomputed, so a killed run resumed with the same checkpoint file
	// renders an identical table. nil disables checkpointing.
	Checkpoint *Checkpoint
}

// Base returns the paper's main configuration (P=4, r=3·r0, g=1, L=10,
// synchronous) with bench-friendly budgets.
func Base() Config {
	return Config{
		P: 4, RFactor: 3, G: 1, L: 10,
		ILP: ilpsched.Options{Model: mbsp.Sync, TimeLimit: 2 * time.Second, LocalSearchBudget: 2000, Seed: 1},
	}
}

// Portfolio returns the options that race every applicable scheduler
// under this configuration: the grid's solver environment, whose LU
// counters move to the portfolio's run-wide accumulator, with Workers
// schedulers at a time.
func (c Config) Portfolio() portfolio.Options {
	o := portfolio.Options{Workers: c.Workers, ILP: c.ILP, LUStats: c.ILP.LUStats}
	o.ILP.LUStats = nil
	return o
}

// Arch builds the mbsp.Arch for an instance under this configuration.
func (c Config) Arch(g *graph.DAG) mbsp.Arch {
	return mbsp.Arch{P: c.P, R: c.RFactor * g.MinCache(), G: c.G, L: c.L}
}

// Row is one instance's results across methods, in method order.
type Row struct {
	Instance string
	Costs    []float64
}

// Table is a named set of rows with one column per method.
type Table struct {
	Name    string
	Methods []string
	Rows    []Row
}

// Ratio returns cost(numMethod)/cost(denMethod) per row.
func (t *Table) Ratio(numMethod, denMethod string) []float64 {
	ni, di := -1, -1
	for i, m := range t.Methods {
		if m == numMethod {
			ni = i
		}
		if m == denMethod {
			di = i
		}
	}
	if ni < 0 || di < 0 {
		panic(fmt.Sprintf("experiments: unknown methods %q/%q", numMethod, denMethod))
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Costs[ni] / r.Costs[di]
	}
	return out
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Method is a named scheduler.
type Method struct {
	Name string
	Run  func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error)
}

// Baseline is the paper's main baseline: BSPg + clairvoyant (DFS +
// clairvoyant for P=1).
func Baseline() Method {
	return Method{Name: "base", Run: func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		return twostage.Baseline(arch).Run(g, arch, 0, nil)
	}}
}

// ILPMethod is the holistic ILP scheduler warm-started from the main
// baseline.
func ILPMethod() Method {
	return Method{Name: "ilp", Run: func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		s, _, err := ilpsched.Solve(g, arch, cfg.ILP)
		return s, err
	}}
}

// CilkLRUMethod is the application-oriented weak baseline.
func CilkLRUMethod() Method {
	pl := twostage.Pipeline{Stage1: twostage.Cilk, Policy: memmgr.LRU{}}
	return Method{Name: pl.Name(), Run: func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		return pl.Run(g, arch, cfg.ILP.Seed, nil)
	}}
}

// bspILPMethods returns the stronger two-stage baseline, ILP-based BSP
// scheduling plus the clairvoyant policy ("bsp-ilp"), and the holistic
// ILP warm-started from it ("bsp-ilp+ilp"). The pair shares one stage-1
// solve per instance: whichever of an instance's two cells runs first
// solves it, and the other derives its column from the same schedule,
// so bsp-ilp+ilp never exceeds bsp-ilp. The stage-1 tree runs in the
// grid's tree environment, cfg.ILP.Tree(), with its clock narrowed to
// cfg.ILP.TimeLimit. A pair serves one grid, under one Config.
func bspILPMethods() (base, plus Method) {
	type stage1 struct {
		once  sync.Once
		sched *mbsp.Schedule
		err   error
	}
	var solved sync.Map // *graph.DAG → *stage1
	warm := func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		v, _ := solved.LoadOrStore(g, &stage1{})
		st := v.(*stage1)
		st.once.Do(func() {
			run := cfg.ILP.Tree()
			var cancel context.CancelFunc
			run.Context, cancel = context.WithTimeout(cmp.Or(run.Context, context.Background()),
				cmp.Or(cfg.ILP.TimeLimit, ilpsched.DefaultTimeLimit))
			b, err := bsp.ILP(g, arch.P, arch.G, arch.L, run)
			cancel()
			if err == nil {
				st.sched, err = twostage.Convert(b, arch, memmgr.Clairvoyant{}, nil)
			}
			st.err = err
		})
		return st.sched, st.err
	}
	base = Method{Name: "bsp-ilp", Run: warm}
	plus = Method{Name: "bsp-ilp+ilp", Run: func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		w, err := warm(g, arch, cfg)
		if err != nil {
			return nil, err
		}
		opts := cfg.ILP
		opts.WarmStart = w
		s, _, err := ilpsched.Solve(g, arch, opts)
		return s, err
	}}
	return base, plus
}

// Run evaluates the methods on every instance and returns the table. The
// instances × methods grid is fanned out over cfg.Workers goroutines;
// results are collected in grid order (instance-major, method-minor), so
// the table — and, on failure, the reported error — match the sequential
// path cell for cell.
func Run(name string, insts []workloads.Instance, cfg Config, methods ...Method) (*Table, error) {
	if cfg.ILP.WarmStart != nil || cfg.ILP.Incumbent != nil || cfg.ILP.NeedBlue != nil {
		return nil, errors.New("experiments: WarmStart, Incumbent and NeedBlue are set per cell, not by the grid")
	}
	t := &Table{Name: name}
	for _, m := range methods {
		t.Methods = append(t.Methods, m.Name)
	}
	nm := len(methods)
	cells := len(insts) * nm
	if cells == 0 {
		return t, nil
	}
	costs := make([]float64, cells)
	errs := make([]error, cells)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	if cfg.ILP.LUStats != nil && workers > 1 {
		return nil, errors.New("experiments: ILP.LUStats is not synchronized; it needs Workers 1")
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	// Lowest failing cell index seen so far. Once a cell fails the table
	// is lost, so cells after it skip their solver work — but cells
	// before it still run, keeping the reported error the first in grid
	// order exactly as the sequential path would.
	firstFail := atomic.Int64{}
	firstFail.Store(int64(cells))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if int64(idx) > firstFail.Load() {
					continue
				}
				inst, m := insts[idx/nm], methods[idx%nm]
				key := cellKey(inst, m, cfg)
				if cost, ok := cfg.Checkpoint.Lookup(key); ok {
					costs[idx] = cost
					continue
				}
				costs[idx], errs[idx] = runCell(inst, m, cfg)
				if errs[idx] == nil {
					// Commit before moving on: when Record returns the cell
					// survives kill -9. A failed append only costs
					// resumability, so the run presses on.
					if cerr := cfg.Checkpoint.Record(key, costs[idx]); cerr != nil {
						fmt.Fprintf(os.Stderr, "experiments: checkpointing %s: %v\n", key, cerr)
					}
				}
				if errs[idx] != nil {
					for {
						cur := firstFail.Load()
						if int64(idx) >= cur || firstFail.CompareAndSwap(cur, int64(idx)) {
							break
						}
					}
				}
			}
		}()
	}
	for idx := 0; idx < cells; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	for idx := 0; idx < cells; idx++ {
		if errs[idx] != nil {
			return nil, errs[idx]
		}
	}
	for i, inst := range insts {
		row := Row{Instance: inst.Name, Costs: costs[i*nm : (i+1)*nm : (i+1)*nm]}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runCell evaluates one (instance, method) grid cell.
func runCell(inst workloads.Instance, m Method, cfg Config) (float64, error) {
	arch := cfg.Arch(inst.DAG)
	s, err := m.Run(inst.DAG, arch, cfg)
	if err != nil {
		return 0, fmt.Errorf("%s on %s: %w", m.Name, inst.Name, err)
	}
	if err := s.Validate(); err != nil {
		return 0, fmt.Errorf("%s on %s produced invalid schedule: %w", m.Name, inst.Name, err)
	}
	cost := s.Cost(cfg.ILP.Model)
	// Soundness net: no scheduler may beat the proven lower bound.
	if lb := bounds.Lower(inst.DAG, arch, cfg.ILP.Model); cost < lb-1e-9 {
		return 0, fmt.Errorf("%s on %s reports cost %g below the lower bound %g",
			m.Name, inst.Name, cost, lb)
	}
	return cost, nil
}

// BoxSummary is the five-number summary used to render Figure 4.
type BoxSummary struct {
	Label                    string
	Min, Q1, Median, Q3, Max float64
	GeoMean                  float64
}

// Summarize computes a five-number summary of the ratios.
func Summarize(label string, ratios []float64) BoxSummary {
	xs := append([]float64(nil), ratios...)
	sort.Float64s(xs)
	q := func(f float64) float64 {
		if len(xs) == 1 {
			return xs[0]
		}
		pos := f * float64(len(xs)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(xs) {
			return xs[lo]
		}
		frac := pos - float64(lo)
		return xs[lo]*(1-frac) + xs[hi]*frac
	}
	return BoxSummary{
		Label: label, Min: xs[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75),
		Max: xs[len(xs)-1], GeoMean: GeoMean(ratios),
	}
}

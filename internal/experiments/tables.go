package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mbsp/internal/dnc"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// Table1 reproduces the paper's Table 1 (and the "base" column of Figure
// 4): synchronous MBSP costs of the two-stage baseline vs the holistic
// ILP method on the tiny dataset at P=4, r=3·r0, g=1, L=10.
func Table1(insts []workloads.Instance, cfg Config) (*Table, error) {
	return Run("Table 1: baseline vs ILP (sync)", insts, cfg, Baseline(), ILPMethod())
}

// Table3 reproduces the paper's Table 3: the full baseline matrix — main
// baseline, our ILP, Cilk+LRU, the ILP-based BSP baseline, and our ILP
// warm-started from the schedule that baseline's column reports.
func Table3(insts []workloads.Instance, cfg Config) (*Table, error) {
	bspILP, bspILPPlusILP := bspILPMethods()
	return Run("Table 3: baseline matrix", insts, cfg,
		Baseline(), ILPMethod(), CilkLRUMethod(), bspILP, bspILPPlusILP)
}

// Table4Variant names one column group of the paper's Table 4.
type Table4Variant struct {
	Label  string
	Mutate func(Config) Config
}

// Table4Variants returns the paper's alternative configurations:
// r=5·r0, r=r0, P=8, L=0, and the asynchronous cost model.
func Table4Variants() []Table4Variant {
	return []Table4Variant{
		{"r=5r0", func(c Config) Config { c.RFactor = 5; return c }},
		{"r=r0", func(c Config) Config { c.RFactor = 1; return c }},
		{"P=8", func(c Config) Config { c.P = 8; return c }},
		{"L=0", func(c Config) Config { c.L = 0; return c }},
		{"async", func(c Config) Config { c.L = 0; c.ILP.Model = mbsp.Async; return c }},
	}
}

// Table4 runs baseline/ILP for every variant; the result maps variant
// label to its table.
func Table4(insts []workloads.Instance, cfg Config) (map[string]*Table, error) {
	out := map[string]*Table{}
	for _, v := range Table4Variants() {
		t, err := Run("Table 4: "+v.Label, insts, v.Mutate(cfg), Baseline(), ILPMethod())
		if err != nil {
			return nil, err
		}
		out[v.Label] = t
	}
	return out, nil
}

// DNCMethod is the divide-and-conquer ILP used on the small dataset: its
// sub-ILPs run under the grid's ILP options with a quarter of their
// local-search budget.
func DNCMethod(maxPart int) Method {
	return Method{Name: "dnc-ilp", Run: func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		opts := cfg.ILP
		opts.LocalSearchBudget /= 4
		s, _, err := dnc.Solve(g, arch, maxPart, opts)
		return s, err
	}}
}

// Table2 reproduces the paper's Table 2: baseline vs divide-and-conquer
// ILP on the small dataset at r=5·r0.
func Table2(insts []workloads.Instance, cfg Config, maxPart int) (*Table, error) {
	cfg.RFactor = 5
	return Run("Table 2: baseline vs divide-and-conquer ILP", insts, cfg,
		Baseline(), DNCMethod(maxPart))
}

// SingleProcessor runs the paper's P=1 red-blue-pebbling experiment:
// DFS+clairvoyant vs the ILP, on the tiny dataset.
func SingleProcessor(insts []workloads.Instance, cfg Config) (*Table, error) {
	cfg.P = 1
	return Run("P=1 pebbling: DFS+clairvoyant vs ILP", insts, cfg, Baseline(), ILPMethod())
}

// Figure4 computes the cost-reduction ratio distributions (ILP/base) for
// the base configuration and each Table 4 variant.
func Figure4(insts []workloads.Instance, cfg Config) ([]BoxSummary, error) {
	var out []BoxSummary
	base, err := Table1(insts, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, Summarize("base", base.Ratio("ilp", "base")))
	variants, err := Table4(insts, cfg)
	if err != nil {
		return nil, err
	}
	for _, v := range Table4Variants() {
		out = append(out, Summarize(v.Label, variants[v.Label].Ratio("ilp", "base")))
	}
	return out, nil
}

// Render writes the table as aligned text with a geometric-mean footer
// for every non-first method relative to the first.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Name)
	fmt.Fprintf(w, "%-20s", "Instance")
	for _, m := range t.Methods {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-20s", r.Instance)
		for _, c := range r.Costs {
			fmt.Fprintf(w, "%14.4g", c)
		}
		fmt.Fprintln(w)
	}
	if len(t.Methods) > 1 && len(t.Rows) > 0 {
		fmt.Fprintf(w, "%-20s%14s", "geomean ratio", "1.00")
		for _, m := range t.Methods[1:] {
			fmt.Fprintf(w, "%14.3f", GeoMean(t.Ratio(m, t.Methods[0])))
		}
		fmt.Fprintln(w)
	}
}

// RenderBoxes writes Figure 4's summaries as text.
func RenderBoxes(w io.Writer, boxes []BoxSummary) {
	fmt.Fprintf(w, "Figure 4: ILP/baseline cost-ratio distributions\n")
	fmt.Fprintf(w, "%-8s%8s%8s%8s%8s%8s%10s\n", "variant", "min", "q1", "median", "q3", "max", "geomean")
	for _, b := range boxes {
		fmt.Fprintf(w, "%-8s%8.3f%8.3f%8.3f%8.3f%8.3f%10.3f\n",
			b.Label, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.GeoMean)
	}
}

// WriteCSV emits the table in CSV form (as the paper's test suite does).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"instance"}, t.Methods...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{r.Instance}
		for _, c := range r.Costs {
			rec = append(rec, strconv.FormatFloat(c, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

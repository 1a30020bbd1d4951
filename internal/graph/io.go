package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ParseError is the typed error Read returns for malformed input. The
// text format is an untrusted network input path (the scheduling server
// accepts it as the request body), so every syntactic or structural
// defect surfaces as a *ParseError — never a panic — and callers can
// detect it with errors.As to map it to a 4xx response.
type ParseError struct {
	Line int    // 1-based input line, 0 when the whole input is at fault
	Msg  string // what was wrong
}

func (e *ParseError) Error() string {
	if e.Line == 0 {
		return "graph: " + e.Msg
	}
	return fmt.Sprintf("graph: line %d: %s", e.Line, e.Msg)
}

func parseErrf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// The text format is line based:
//
//	# comment
//	dag <name> <n> <m>
//	node <id> <comp> <mem> [label]
//	edge <u> <v>
//
// Nodes must be declared before edges that use them, ids must be the dense
// sequence 0..n-1 in order.

// Write serializes the DAG in the text format.
func Write(w io.Writer, g *DAG) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "dag %s %d %d\n", sanitizeName(g.Name()), g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		if g.Label(v) != "" {
			fmt.Fprintf(bw, "node %d %g %g %s\n", v, g.Comp(v), g.Mem(v), sanitizeName(g.Label(v)))
		} else {
			fmt.Fprintf(bw, "node %d %g %g\n", v, g.Comp(v), g.Mem(v))
		}
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Children(u) {
			fmt.Fprintf(bw, "edge %d %d\n", u, v)
		}
	}
	return bw.Flush()
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// Read parses a DAG from the text format. Every node's children and
// parents lists come back sorted, whatever order the edge lines were in.
// Malformed input — syntax errors, out-of-order node ids, dangling or
// self-loop edges, non-finite or negative weights, header counts that
// disagree with the body — is rejected with a *ParseError (cycles with
// ErrCyclic), never a panic.
func Read(r io.Reader) (*DAG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var g *DAG
	wantN, wantM := -1, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "dag":
			if len(fields) < 2 {
				return nil, parseErrf(line, "malformed dag header")
			}
			if g != nil {
				return nil, parseErrf(line, "duplicate dag header")
			}
			g = New(fields[1])
			if len(fields) >= 4 {
				n, err1 := strconv.Atoi(fields[2])
				m, err2 := strconv.Atoi(fields[3])
				if err1 != nil || err2 != nil || n < 0 || m < 0 {
					return nil, parseErrf(line, "bad node/edge counts %q %q", fields[2], fields[3])
				}
				wantN, wantM = n, m
			}
		case "node":
			if g == nil {
				return nil, parseErrf(line, "node before dag header")
			}
			if len(fields) < 4 {
				return nil, parseErrf(line, "malformed node line")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, parseErrf(line, "bad node id: %v", err)
			}
			comp, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, parseErrf(line, "bad compute weight: %v", err)
			}
			mem, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, parseErrf(line, "bad memory weight: %v", err)
			}
			if comp < 0 || mem < 0 || !isFinite(comp) || !isFinite(mem) {
				return nil, parseErrf(line, "node %d has unusable weights (ω=%g, μ=%g)", id, comp, mem)
			}
			label := ""
			if len(fields) >= 5 {
				label = fields[4]
			}
			got := g.AddNodeLabeled(label, comp, mem)
			if got != id {
				return nil, parseErrf(line, "node id %d out of order (expected %d)", id, got)
			}
		case "edge":
			if g == nil {
				return nil, parseErrf(line, "edge before dag header")
			}
			if len(fields) < 3 {
				return nil, parseErrf(line, "malformed edge line")
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, parseErrf(line, "bad edge source: %v", err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, parseErrf(line, "bad edge target: %v", err)
			}
			if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
				return nil, parseErrf(line, "edge (%d,%d) references unknown node", u, v)
			}
			if u == v {
				// AddEdge panics on self-loops (a caller bug in library
				// use); on the wire it is just malformed input.
				return nil, parseErrf(line, "self-loop edge on node %d", u)
			}
			g.AddEdge(u, v)
		default:
			return nil, parseErrf(line, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, &ParseError{Msg: "empty input"}
	}
	if wantN >= 0 && (g.N() != wantN || g.M() != wantM) {
		return nil, &ParseError{Msg: fmt.Sprintf(
			"header declares n=%d m=%d but body has n=%d m=%d (duplicate edges collapse)",
			wantN, wantM, g.N(), g.M())}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The schedulers read the adjacency lists in stored order, but the
	// exact digest keys the response cache on the edge set alone, so
	// every body with one edge set must parse to one DAG.
	for v := range g.out {
		slices.Sort(g.out[v])
		slices.Sort(g.in[v])
	}
	return g, nil
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// DOT renders the DAG in Graphviz DOT format, for visual inspection.
func DOT(w io.Writer, g *DAG) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", sanitizeName(g.Name()))
	for v := 0; v < g.N(); v++ {
		label := g.Label(v)
		if label == "" {
			label = strconv.Itoa(v)
		}
		fmt.Fprintf(bw, "  n%d [label=\"%s\\nω=%g μ=%g\"];\n", v, label, g.Comp(v), g.Mem(v))
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Children(u) {
			fmt.Fprintf(bw, "  n%d -> n%d;\n", u, v)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

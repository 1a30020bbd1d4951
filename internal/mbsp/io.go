package mbsp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mbsp/internal/graph"
)

// The schedule text format is line based:
//
//	mbsp-schedule <P> <r> <g> <L>
//	superstep
//	p <proc>
//	c <node>      compute op (compute phase)
//	x <node>      delete op inside the compute phase
//	s <node>      save
//	d <node>      delete phase
//	l <node>      load
//
// Supersteps and processor blocks repeat; ops belong to the most recent
// `p` line. The DAG itself is serialized separately (graph.Write).

// WriteSchedule serializes a schedule (without its DAG).
func WriteSchedule(w io.Writer, s *Schedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "mbsp-schedule %d %g %g %g\n", s.Arch.P, s.Arch.R, s.Arch.G, s.Arch.L)
	for i := range s.Steps {
		fmt.Fprintln(bw, "superstep")
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			if ps.Empty() {
				continue
			}
			fmt.Fprintf(bw, "p %d\n", p)
			for _, op := range ps.Comp {
				if op.Kind == OpCompute {
					fmt.Fprintf(bw, "c %d\n", op.Node)
				} else {
					fmt.Fprintf(bw, "x %d\n", op.Node)
				}
			}
			for _, v := range ps.Save {
				fmt.Fprintf(bw, "s %d\n", v)
			}
			for _, v := range ps.Del {
				fmt.Fprintf(bw, "d %d\n", v)
			}
			for _, v := range ps.Load {
				fmt.Fprintf(bw, "l %d\n", v)
			}
		}
	}
	return bw.Flush()
}

// ReadSchedule parses a schedule in the text format and attaches it to g.
// The schedule is validated before being returned.
func ReadSchedule(r io.Reader, g *graph.DAG) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var s *Schedule
	var cur *Superstep
	proc := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "mbsp-schedule":
			if len(fields) != 5 {
				return nil, fmt.Errorf("mbsp: line %d: malformed header", line)
			}
			p, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("mbsp: line %d: bad P: %v", line, err)
			}
			rv, err1 := strconv.ParseFloat(fields[2], 64)
			gv, err2 := strconv.ParseFloat(fields[3], 64)
			lv, err3 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("mbsp: line %d: bad architecture parameters", line)
			}
			arch := Arch{P: p, R: rv, G: gv, L: lv}
			if err := arch.Validate(); err != nil {
				return nil, fmt.Errorf("mbsp: line %d: %w", line, err)
			}
			s = NewSchedule(g, arch)
		case "superstep":
			if s == nil {
				return nil, fmt.Errorf("mbsp: line %d: superstep before header", line)
			}
			cur = s.AddSuperstep()
			proc = -1
		case "p":
			if cur == nil {
				return nil, fmt.Errorf("mbsp: line %d: proc before superstep", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("mbsp: line %d: malformed processor line", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 || v >= s.Arch.P {
				return nil, fmt.Errorf("mbsp: line %d: bad processor id %q", line, fields[1])
			}
			proc = v
		case "c", "x", "s", "d", "l":
			if proc < 0 {
				return nil, fmt.Errorf("mbsp: line %d: op before processor", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("mbsp: line %d: malformed op", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("mbsp: line %d: bad node id: %v", line, err)
			}
			ps := &cur.Procs[proc]
			switch fields[0] {
			case "c":
				ps.Comp = append(ps.Comp, Op{Kind: OpCompute, Node: v})
			case "x":
				ps.Comp = append(ps.Comp, Op{Kind: OpDelete, Node: v})
			case "s":
				ps.Save = append(ps.Save, v)
			case "d":
				ps.Del = append(ps.Del, v)
			case "l":
				ps.Load = append(ps.Load, v)
			}
		default:
			return nil, fmt.Errorf("mbsp: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("mbsp: empty schedule input")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

package mbsp

import (
	"fmt"
	"math"
)

// epsilon tolerance for floating-point memory accounting.
const memEps = 1e-9

// state tracks the pebbling configuration during validation or cost
// evaluation.
type state struct {
	red    []map[int]bool // per processor: nodes with a red pebble
	redUse []float64      // per processor: Σ μ over red set
	blue   map[int]bool   // shared blue pebbles
}

func newState(s *Schedule) *state {
	st := &state{
		red:    make([]map[int]bool, s.Arch.P),
		redUse: make([]float64, s.Arch.P),
		blue:   make(map[int]bool),
	}
	for p := 0; p < s.Arch.P; p++ {
		st.red[p] = make(map[int]bool)
	}
	for _, v := range s.Graph.Sources() {
		st.blue[v] = true
	}
	return st
}

// ValidationError describes where a schedule violates the model rules.
type ValidationError struct {
	Superstep int
	Proc      int
	Op        string
	Node      int
	Reason    string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("mbsp: invalid schedule: superstep %d, proc %d, %s(%d): %s",
		e.Superstep, e.Proc, e.Op, e.Node, e.Reason)
}

// Validate checks that the schedule is a valid MBSP schedule:
//
//   - every COMPUTE has all parents red on the same processor and the node
//     is not a source;
//   - every SAVE has the node red on the saving processor;
//   - every LOAD has the node blue (saved in this or an earlier superstep,
//     or a source);
//   - every DELETE removes an existing red pebble;
//   - the memory bound Σ μ ≤ r holds on every processor after every
//     transition;
//   - all sink nodes are blue at the end.
//
// Blue pebbles saved within a superstep become loadable in the same
// superstep's load phase (the save phases of all processors complete
// before any load phase, per the model's B ← ∪B_p union semantics).
func (s *Schedule) Validate() error {
	if err := s.Arch.Validate(); err != nil {
		return err
	}
	st := newState(s)
	for i := range s.Steps {
		if len(s.Steps[i].Procs) != s.Arch.P {
			return fmt.Errorf("mbsp: superstep %d has %d processor slots, want %d",
				i, len(s.Steps[i].Procs), s.Arch.P)
		}
		if err := st.applySuperstep(s, i); err != nil {
			return err
		}
	}
	for _, v := range s.Graph.Sinks() {
		if !st.blue[v] {
			return fmt.Errorf("mbsp: invalid schedule: sink node %d has no blue pebble at the end", v)
		}
	}
	return nil
}

// applySuperstep simulates superstep i.
func (st *state) applySuperstep(s *Schedule, i int) error {
	g := s.Graph
	step := &s.Steps[i]
	fail := func(p int, op string, v int, reason string) error {
		return &ValidationError{Superstep: i, Proc: p, Op: op, Node: v, Reason: reason}
	}
	// Phase 1: compute (and interleaved deletes) on every processor.
	for p := range step.Procs {
		ps := &step.Procs[p]
		for _, op := range ps.Comp {
			v := op.Node
			if v < 0 || v >= g.N() {
				return fail(p, op.Kind.String(), v, "node out of range")
			}
			switch op.Kind {
			case OpCompute:
				if g.IsSource(v) {
					return fail(p, "compute", v, "source nodes cannot be computed")
				}
				for _, u := range g.Parents(v) {
					if !st.red[p][u] {
						return fail(p, "compute", v, fmt.Sprintf("parent %d has no red pebble on proc %d", u, p))
					}
				}
				if !st.red[p][v] {
					st.red[p][v] = true
					st.redUse[p] += g.Mem(v)
				}
			case OpDelete:
				if !st.red[p][v] {
					return fail(p, "delete", v, "no red pebble to delete")
				}
				delete(st.red[p], v)
				st.redUse[p] -= g.Mem(v)
			default:
				return fail(p, op.Kind.String(), v, "only compute/delete allowed in the compute phase")
			}
			if st.redUse[p] > s.Arch.R+memEps {
				return fail(p, op.Kind.String(), v,
					fmt.Sprintf("memory bound exceeded: %.6g > r=%.6g", st.redUse[p], s.Arch.R))
			}
		}
	}
	// Phase 2: save on every processor; blue set updated after all saves.
	newBlue := make([]int, 0)
	for p := range step.Procs {
		ps := &step.Procs[p]
		for _, v := range ps.Save {
			if v < 0 || v >= g.N() {
				return fail(p, "save", v, "node out of range")
			}
			if !st.red[p][v] {
				return fail(p, "save", v, "no red pebble to save")
			}
			newBlue = append(newBlue, v)
		}
	}
	for _, v := range newBlue {
		st.blue[v] = true
	}
	// Phase 3: deletes.
	for p := range step.Procs {
		ps := &step.Procs[p]
		for _, v := range ps.Del {
			if v < 0 || v >= g.N() {
				return fail(p, "delete", v, "node out of range")
			}
			if !st.red[p][v] {
				return fail(p, "delete", v, "no red pebble to delete")
			}
			delete(st.red[p], v)
			st.redUse[p] -= g.Mem(v)
		}
	}
	// Phase 4: loads.
	for p := range step.Procs {
		ps := &step.Procs[p]
		for _, v := range ps.Load {
			if v < 0 || v >= g.N() {
				return fail(p, "load", v, "node out of range")
			}
			if !st.blue[v] {
				return fail(p, "load", v, "no blue pebble to load from")
			}
			if !st.red[p][v] {
				st.red[p][v] = true
				st.redUse[p] += g.Mem(v)
			}
			if st.redUse[p] > s.Arch.R+memEps {
				return fail(p, "load", v,
					fmt.Sprintf("memory bound exceeded: %.6g > r=%.6g", st.redUse[p], s.Arch.R))
			}
		}
	}
	return nil
}

// CheckComputesAll verifies that every non-source node is computed at
// least once somewhere in the schedule. Validate does not require this
// directly (it follows from sink blue pebbles and rule prerequisites),
// but it is a useful diagnostic for schedule builders.
func (s *Schedule) CheckComputesAll() error {
	computed := make([]bool, s.Graph.N())
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			for _, op := range s.Steps[i].Procs[p].Comp {
				if op.Kind == OpCompute {
					computed[op.Node] = true
				}
			}
		}
	}
	for v := 0; v < s.Graph.N(); v++ {
		if !s.Graph.IsSource(v) && !computed[v] {
			return fmt.Errorf("mbsp: node %d is never computed", v)
		}
	}
	return nil
}

// MaxResidentMemory returns the maximum Σ μ over any processor's red set
// at any point of the schedule, useful for diagnostics. The schedule must
// be valid.
func (s *Schedule) MaxResidentMemory() float64 {
	st := newState(s)
	maxUse := 0.0
	record := func() {
		for p := range st.redUse {
			if st.redUse[p] > maxUse {
				maxUse = st.redUse[p]
			}
		}
	}
	for i := range s.Steps {
		if err := st.applySuperstep(s, i); err != nil {
			return math.NaN()
		}
		record()
	}
	return maxUse
}

// FinalRedSets replays the schedule and returns, per processor, the nodes
// holding a red pebble after the last superstep. The schedule must be
// valid.
func (s *Schedule) FinalRedSets() ([][]int, error) {
	st := newState(s)
	for i := range s.Steps {
		if err := st.applySuperstep(s, i); err != nil {
			return nil, err
		}
	}
	out := make([][]int, s.Arch.P)
	for p := 0; p < s.Arch.P; p++ {
		for v := range st.red[p] {
			out[p] = append(out[p], v)
		}
	}
	return out, nil
}

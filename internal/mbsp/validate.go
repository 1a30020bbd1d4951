package mbsp

import (
	"fmt"
	"math/bits"
)

// epsilon tolerance for floating-point memory accounting.
const memEps = 1e-9

// state tracks the pebbling configuration during validation or cost
// evaluation.
type state struct {
	red    redSets   // every processor's red pebbles
	redUse []float64 // per processor: Σ μ over red set
	blue   []bool    // node id -> has a blue pebble
	// newBlue collects one superstep's saves; reused across supersteps.
	newBlue []int
}

func newState(s *Schedule) *state {
	n := s.Graph.N()
	st := &state{
		red:    newRedSets(n, s.Arch.P),
		redUse: make([]float64, s.Arch.P),
		blue:   make([]bool, n),
	}
	for _, v := range s.Graph.Sources() {
		st.blue[v] = true
	}
	return st
}

// redSets holds the red pebbles of all processors in O(n + pebbles)
// space, whatever P is. Processors below 64 are bits of low[v]; a pebble
// of a higher processor is an entry in v's list, which head[v] starts and
// pool threads, with released entries chained from free. Entry 0 ends a
// list, so a zeroed head is all-empty; head is allocated only when P > 64.
type redSets struct {
	low  []uint64
	head []int
	pool []redEntry
	free int
}

type redEntry struct{ proc, next int }

// lowProcs is the number of processors kept as bits of low.
const lowProcs = 64

func newRedSets(n, procs int) redSets {
	r := redSets{low: make([]uint64, n)}
	if procs > lowProcs {
		r.head = make([]int, n)
		r.pool = make([]redEntry, 1)
	}
	return r
}

// has reports whether v holds a red pebble on p.
func (r *redSets) has(p, v int) bool {
	if p < lowProcs {
		return r.low[v]>>p&1 != 0
	}
	for e := r.head[v]; e != 0; e = r.pool[e].next {
		if r.pool[e].proc == p {
			return true
		}
	}
	return false
}

// add places a red pebble on v on p, which must not hold one.
func (r *redSets) add(p, v int) {
	if p < lowProcs {
		r.low[v] |= 1 << p
		return
	}
	e := r.free
	if e != 0 {
		r.free = r.pool[e].next
	} else {
		e = len(r.pool)
		r.pool = append(r.pool, redEntry{})
	}
	r.pool[e] = redEntry{proc: p, next: r.head[v]}
	r.head[v] = e
}

// remove takes v's red pebble off p, which must hold one.
func (r *redSets) remove(p, v int) {
	if p < lowProcs {
		r.low[v] &^= 1 << p
		return
	}
	link := &r.head[v]
	for r.pool[*link].proc != p {
		link = &r.pool[*link].next
	}
	e := *link
	*link = r.pool[e].next
	r.pool[e].next = r.free
	r.free = e
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
					if !st.red.has(p, u) {
						return fail(p, "compute", v, fmt.Sprintf("parent %d has no red pebble on proc %d", u, p))
					}
				}
				if !st.red.has(p, v) {
					st.red.add(p, v)
					st.redUse[p] += g.Mem(v)
				}
			case OpDelete:
				if !st.red.has(p, v) {
					return fail(p, "delete", v, "no red pebble to delete")
				}
				st.red.remove(p, v)
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
	newBlue := st.newBlue[:0]
	for p := range step.Procs {
		ps := &step.Procs[p]
		for _, v := range ps.Save {
			if v < 0 || v >= g.N() {
				return fail(p, "save", v, "node out of range")
			}
			if !st.red.has(p, v) {
				return fail(p, "save", v, "no red pebble to save")
			}
			newBlue = append(newBlue, v)
		}
	}
	for _, v := range newBlue {
		st.blue[v] = true
	}
	st.newBlue = newBlue
	// Phase 3: deletes.
	for p := range step.Procs {
		ps := &step.Procs[p]
		for _, v := range ps.Del {
			if v < 0 || v >= g.N() {
				return fail(p, "delete", v, "node out of range")
			}
			if !st.red.has(p, v) {
				return fail(p, "delete", v, "no red pebble to delete")
			}
			st.red.remove(p, v)
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
			if !st.red.has(p, v) {
				st.red.add(p, v)
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

// FinalRedSets replays the schedule and returns, per processor, the nodes
// holding a red pebble after the last superstep, in ascending node order.
// The schedule must be valid.
func (s *Schedule) FinalRedSets() ([][]int, error) {
	st := newState(s)
	for i := range s.Steps {
		if err := st.applySuperstep(s, i); err != nil {
			return nil, err
		}
	}
	out := make([][]int, s.Arch.P)
	r := &st.red
	for v, low := range r.low {
		for ; low != 0; low &= low - 1 {
			p := bits.TrailingZeros64(low)
			out[p] = append(out[p], v)
		}
		if r.head != nil {
			for e := r.head[v]; e != 0; e = r.pool[e].next {
				out[r.pool[e].proc] = append(out[r.pool[e].proc], v)
			}
		}
	}
	return out, nil
}

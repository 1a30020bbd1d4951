// Package mbsp defines the MBSP scheduling model of the paper: a
// computational DAG executed by P processors, each with a private fast
// memory of capacity r (red pebbles) and a shared slow memory of unbounded
// capacity (blue pebbles), under the BSP parameters g (cost per
// transferred memory unit) and L (synchronization cost).
//
// A schedule is a sequence of supersteps; within a superstep every
// processor runs a pebbling sequence of the form
// Ψcomp ∘ Ψsave ∘ Ψdel ∘ Ψload. The blue-pebble set is shared: values
// saved by any processor in a superstep become visible to all processors
// from that superstep's load phase onward.
package mbsp

import (
	"fmt"
	"math"
	"strings"

	"mbsp/internal/graph"
)

// Arch describes a computing architecture: P identical processors with
// fast memories of capacity R each, communication cost G per memory unit
// and synchronization cost L per superstep.
type Arch struct {
	P int
	R float64
	G float64
	L float64
}

// Validate checks basic sanity of the architecture parameters.
func (a Arch) Validate() error {
	if a.P < 1 {
		return fmt.Errorf("mbsp: need at least one processor, got P=%d", a.P)
	}
	for _, v := range []float64{a.R, a.G, a.L} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mbsp: architecture parameters must be finite and non-negative (r=%g, g=%g, L=%g)", a.R, a.G, a.L)
		}
	}
	return nil
}

func (a Arch) String() string {
	return fmt.Sprintf("Arch(P=%d, r=%g, g=%g, L=%g)", a.P, a.R, a.G, a.L)
}

// OpKind enumerates the transition rules of the model.
type OpKind uint8

const (
	// OpCompute places a red pebble on a non-source node whose parents
	// all carry a red pebble of the same processor. Cost ω(v).
	OpCompute OpKind = iota
	// OpSave copies a red-pebbled value to slow memory. Cost g·μ(v).
	OpSave
	// OpLoad copies a blue-pebbled value into fast memory. Cost g·μ(v).
	OpLoad
	// OpDelete removes a red pebble. Free.
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpSave:
		return "save"
	case OpLoad:
		return "load"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is a single transition applied to a node. The processor is implied by
// the ProcStep containing the op.
type Op struct {
	Kind OpKind
	Node int
}

// ProcStep is one processor's pebbling within one superstep, split into
// the four phases of the model. Comp may interleave compute and delete
// ops; Save, Del and Load hold node ids only.
type ProcStep struct {
	Comp []Op  // compute and delete ops, in execution order
	Save []int // values saved to slow memory
	Del  []int // red pebbles removed after the save phase
	Load []int // values loaded from slow memory
}

// Empty reports whether the processor performs no operation in this
// superstep.
func (ps *ProcStep) Empty() bool {
	return len(ps.Comp) == 0 && len(ps.Save) == 0 && len(ps.Del) == 0 && len(ps.Load) == 0
}

// Superstep holds one ProcStep per processor.
type Superstep struct {
	Procs []ProcStep
}

// Schedule is a full MBSP schedule for a DAG on an architecture.
type Schedule struct {
	Graph *graph.DAG
	Arch  Arch
	Steps []Superstep
}

// NewSchedule returns an empty schedule shell for g on arch.
func NewSchedule(g *graph.DAG, arch Arch) *Schedule {
	return &Schedule{Graph: g, Arch: arch}
}

// AddSuperstep appends an empty superstep and returns a pointer to it.
func (s *Schedule) AddSuperstep() *Superstep {
	s.Steps = append(s.Steps, Superstep{Procs: make([]ProcStep, s.Arch.P)})
	return &s.Steps[len(s.Steps)-1]
}

// NumSupersteps returns the number of supersteps.
func (s *Schedule) NumSupersteps() int { return len(s.Steps) }

// Ops returns the total number of operations in the schedule, by kind.
func (s *Schedule) Ops() (computes, saves, loads, deletes int) {
	for i := range s.Steps {
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			for _, op := range ps.Comp {
				if op.Kind == OpCompute {
					computes++
				} else {
					deletes++
				}
			}
			saves += len(ps.Save)
			deletes += len(ps.Del)
			loads += len(ps.Load)
		}
	}
	return
}

// String renders a human-readable description of the schedule.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MBSP schedule for %s on %s: %d supersteps\n", s.Graph.Name(), s.Arch, len(s.Steps))
	for i := range s.Steps {
		fmt.Fprintf(&b, " superstep %d:\n", i)
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			if ps.Empty() {
				continue
			}
			fmt.Fprintf(&b, "  proc %d:", p)
			for _, op := range ps.Comp {
				fmt.Fprintf(&b, " %s(%d)", op.Kind, op.Node)
			}
			for _, v := range ps.Save {
				fmt.Fprintf(&b, " save(%d)", v)
			}
			for _, v := range ps.Del {
				fmt.Fprintf(&b, " del(%d)", v)
			}
			for _, v := range ps.Load {
				fmt.Fprintf(&b, " load(%d)", v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// MergeSteps greedily folds superstep i+1 into superstep i while the
// schedule stays valid and its cost under model does not grow, keeping
// each phase's op order. It recovers the paper's superstep structure (a
// compute phase, then a communication phase) from schedules that spread
// work over more supersteps than they need.
func (s *Schedule) MergeSteps(model CostModel) {
	cost := s.Cost(model)
	for i := 0; i+1 < len(s.Steps); {
		trial := s.Clone()
		trial.mergeStep(i)
		if trial.Validate() == nil {
			if c := trial.Cost(model); c <= cost+1e-9 {
				*s = *trial
				cost = c
				continue // try merging the next one into position i too
			}
		}
		i++
	}
}

// mergeStep folds superstep i+1 into superstep i, phase by phase.
func (s *Schedule) mergeStep(i int) {
	a, b := &s.Steps[i], &s.Steps[i+1]
	for p := range a.Procs {
		a.Procs[p].Comp = append(a.Procs[p].Comp, b.Procs[p].Comp...)
		a.Procs[p].Save = append(a.Procs[p].Save, b.Procs[p].Save...)
		a.Procs[p].Del = append(a.Procs[p].Del, b.Procs[p].Del...)
		a.Procs[p].Load = append(a.Procs[p].Load, b.Procs[p].Load...)
	}
	s.Steps = append(s.Steps[:i+1], s.Steps[i+2:]...)
}

// Clone returns a deep copy of the schedule (sharing the DAG).
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Graph: s.Graph, Arch: s.Arch, Steps: make([]Superstep, len(s.Steps))}
	for i := range s.Steps {
		c.Steps[i].Procs = make([]ProcStep, len(s.Steps[i].Procs))
		for p := range s.Steps[i].Procs {
			src := &s.Steps[i].Procs[p]
			dst := &c.Steps[i].Procs[p]
			dst.Comp = append([]Op(nil), src.Comp...)
			dst.Save = append([]int(nil), src.Save...)
			dst.Del = append([]int(nil), src.Del...)
			dst.Load = append([]int(nil), src.Load...)
		}
	}
	return c
}

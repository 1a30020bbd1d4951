package mip

import (
	"math"
	"sync/atomic"
)

// Incumbent is a monotone, concurrency-safe upper bound on a shared
// minimization objective. Solvers working on the same objective read the
// best known bound with Get; branch-and-bound then prunes any subtree
// whose LP relaxation cannot beat the bound.
//
// The bound only ever decreases (Offer), so pruning against it removes
// only provably non-improving subtrees. Seal freezes the current value:
// subsequent Offers are ignored. The scheduler portfolio offers its
// baseline cost once and seals the incumbent before any solver starts,
// because updates at timing-dependent points would perturb the
// deterministic node accounting — see DESIGN.md.
type Incumbent struct {
	bits   atomic.Uint64 // math.Float64bits of the current bound
	sealed atomic.Bool
}

// NewIncumbent returns an incumbent initialized to +Inf (no bound known).
func NewIncumbent() *Incumbent {
	inc := &Incumbent{}
	inc.bits.Store(math.Float64bits(math.Inf(1)))
	return inc
}

// Get returns the current bound; +Inf when no solution has been offered.
// A nil incumbent reads as +Inf, so callers can pass it through
// unconditionally.
func (inc *Incumbent) Get() float64 {
	if inc == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(inc.bits.Load())
}

// Offer lowers the bound to v if v improves it; reports whether it did.
// Offers against a nil or sealed incumbent are ignored.
func (inc *Incumbent) Offer(v float64) bool {
	if inc == nil || inc.sealed.Load() || math.IsNaN(v) {
		return false
	}
	for {
		cur := inc.bits.Load()
		if v >= math.Float64frombits(cur) {
			return false
		}
		if inc.bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return true
		}
	}
}

// Seal freezes the bound at its current value; later Offers are no-ops.
func (inc *Incumbent) Seal() {
	if inc != nil {
		inc.sealed.Store(true)
	}
}

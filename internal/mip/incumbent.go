package mip

import (
	"math"
	"sync/atomic"
)

// Incumbent is a monotone, concurrency-safe upper bound on a shared
// minimization objective. The branch-and-bound tree does not read it: a
// tree prunes against its own incumbent only. The scheduler portfolio
// offers its baseline cost once and seals the incumbent before any
// candidate starts; the divide-and-conquer scheduler reads it with Get
// as its between-parts cutoff (see DESIGN.md). The type stays in this
// package because the benchmark module builds one by name.
//
// The bound only ever decreases (Offer). Seal freezes the current value:
// subsequent Offers are ignored.
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

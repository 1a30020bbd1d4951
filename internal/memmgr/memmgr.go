// Package memmgr implements the cache-management (memory-management)
// policies of the paper's two-stage baseline: the clairvoyant (Bélády)
// policy that evicts the resident value whose next use lies furthest in
// the future, and the least-recently-used (LRU) policy. Both operate on
// candidate descriptors supplied by the schedule converter, so the same
// policies serve any stage-1 scheduler.
package memmgr

import "math"

// NoUse marks a value with no further use on the processor.
const NoUse = math.MaxInt32

// Info describes one evictable resident value at eviction time.
type Info struct {
	Node    int
	Mem     float64 // μ(v)
	NextUse int     // position of next local use, NoUse if none
	LastUse int     // position of most recent activity (compute or use)
	Saved   bool    // value already has a blue pebble
}

// Policy selects an eviction victim among candidates. Pick returns an
// index into cands; cands is never empty.
//
// Pick must not depend on the order of cands: the converter lists them
// in an order that follows its internal bookkeeping, not the schedule,
// so the victim must be a function of the candidate set alone. Both
// policies here meet this by ordering candidates totally, with node id
// as the last tie-break.
type Policy interface {
	Name() string
	Pick(cands []Info) int
}

// Clairvoyant is Bélády's optimal offline policy generalized to weighted
// values: evict the value whose next use is furthest in the future
// (never-used-again values first); among equals, prefer the larger value
// (frees more space per eviction), then the smaller node id for
// determinism. For unit weights and a fixed compute sequence this is the
// optimal eviction rule; with general weights the problem is NP-hard
// (paper, Lemmas 5.1–5.2), so this remains the strong heuristic the paper
// uses.
type Clairvoyant struct{}

// Name implements Policy.
func (Clairvoyant) Name() string { return "clairvoyant" }

// Pick implements Policy.
func (Clairvoyant) Pick(cands []Info) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		a, b := cands[i], cands[best]
		switch {
		case a.NextUse != b.NextUse:
			if a.NextUse > b.NextUse {
				best = i
			}
		case a.Mem != b.Mem:
			if a.Mem > b.Mem {
				best = i
			}
		case a.Node < b.Node:
			best = i
		}
	}
	return best
}

// LRU evicts the value that was least recently active; ties broken by
// smaller node id.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Pick implements Policy.
func (LRU) Pick(cands []Info) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		a, b := cands[i], cands[best]
		if a.LastUse < b.LastUse || (a.LastUse == b.LastUse && a.Node < b.Node) {
			best = i
		}
	}
	return best
}

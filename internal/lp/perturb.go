package lp

import "math"

// Deterministic EXPAND-style bound perturbation (Gill, Murray, Saunders,
// Wright): the working bounds of a solve are expanded outward by tiny
// pseudo-random amounts before the simplex runs, so that the ratio-test
// ties of a degenerate vertex — many basic variables sitting exactly on a
// bound — resolve into strictly positive (if tiny) steps instead of
// zero-length pivots that cycle. The shifts are a pure function of
// (instance fingerprint, Options.PerturbSeq, column index, bound side):
// no global state, no clock, no math/rand — the same solve always sees
// the same shifted bounds, which is what lets the deterministic parallel
// branch-and-bound of package mip thread a node sequence number through
// PerturbSeq and keep its byte-identical-for-any-worker-count contract.
//
// At optimality the shifts are removed again (spx.finish): nonbasic
// columns snap back to the exact bounds, basic values are recomputed, and
// a short dual/primal clean-up re-solve repairs the residual
// infeasibility, so callers only ever observe exact solutions.

// perturbScaleFactor sizes the shifts relative to eps: shifts of
// ~1% of the feasibility tolerance are large enough to separate exact
// ratio-test ties (which EXPAND needs) yet small enough that every
// perturbed iterate is feasible for the true bounds within tolerance and
// the clean-up re-solve finishes in a handful of pivots.
const perturbScaleFactor = 1e-2

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// mixer used both to derive per-solve seeds and per-column shifts.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perturbUnit maps (seed, k) to a float in [1/2, 1): the classic EXPAND
// recipe keeps every shift within a factor two of the scale so no bound
// receives a degenerate (near-zero) shift that would fail to break ties.
func perturbUnit(seed, k uint64) float64 {
	u := mix64(seed ^ mix64(k))
	return 0.5 + float64(0.5*float64(u>>11)/(1<<53))
}

// fingerprint hashes the assembled instance (dimensions, sparsity
// pattern, coefficients, objective, right-hand sides and slack bounds)
// with FNV-1a so perturbation seeds are a pure function of the matrix:
// two Prepare calls over the same problem perturb identically, on any
// machine.
func (in *Instance) fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	word := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	word(uint64(in.m))
	word(uint64(in.nStruct))
	for _, v := range in.colPtr {
		word(uint64(uint32(v)))
	}
	for _, v := range in.rowIdx {
		word(uint64(uint32(v)))
	}
	for _, v := range in.vals {
		word(math.Float64bits(v))
	}
	for _, v := range in.obj {
		word(math.Float64bits(v))
	}
	for _, v := range in.rhs {
		word(math.Float64bits(v))
	}
	for _, v := range in.slackLb {
		word(math.Float64bits(v))
	}
	for _, v := range in.slackUb {
		word(math.Float64bits(v))
	}
	return h
}

// perturbBounds expands every finite working bound outward by a seeded
// tiny amount, saving the exact bounds for spx.finish. Fixed columns
// (lb == ub — branched binaries, equality-row slacks) become tiny boxes,
// which is exactly where the scheduling models' degeneracy lives.
func (s *spx) perturbBounds() {
	in := s.in
	seed := mix64(in.fprint ^ mix64(s.opts.PerturbSeq))
	scale := perturbScaleFactor * eps
	copy(s.lbTrue, s.lb[:s.nTot])
	copy(s.ubTrue, s.ub[:s.nTot])
	for j := 0; j < s.nTot; j++ {
		if !math.IsInf(s.lb[j], -1) {
			f := perturbUnit(seed, uint64(2*j))
			s.lb[j] -= float64(scale * f * (1 + math.Abs(s.lb[j])))
		}
		if !math.IsInf(s.ub[j], 1) {
			f := perturbUnit(seed, uint64(2*j+1))
			s.ub[j] += float64(scale * f * (1 + math.Abs(s.ub[j])))
		}
	}
	s.perturbed = true
	s.didPerturb = true
}

// perturbCosts shifts the phase-2 cost of every nonbasic bounded column
// by a tiny seeded amount in the direction that preserves the installed
// basis's dual feasibility: at-lower columns get a positive shift (their
// reduced cost d = c_j − y·A_j moves further ≥ 0), at-upper columns a
// negative one. This is the dual-simplex analog of the bound expansion
// above: warm re-solves in branch-and-bound stall not on primal
// degeneracy but on DUAL degeneracy — every reduced cost sits at zero, so
// every dual ratio ties at zero, every dual step has zero length, and the
// BFRT walks an arbitrary plateau. Distinct tiny reduced costs make the
// breakpoint order meaningful and every dual step strictly improving,
// which is what terminates the walk. finish() restores the exact costs
// and re-optimizes, so reported objectives never see the shifts.
func (s *spx) perturbCosts() {
	in := s.in
	seed := mix64(in.fprint ^ mix64(s.opts.PerturbSeq))
	scale := perturbScaleFactor * eps
	for j := 0; j < s.nTot; j++ {
		f := float64(scale * perturbUnit(seed, uint64(2*s.nTot+j)) * (1 + math.Abs(s.obj2[j])))
		switch s.stat[j] {
		case atLower:
			if !math.IsInf(s.lb[j], -1) {
				s.obj2[j] += f
			}
		case atUpper:
			if !math.IsInf(s.ub[j], 1) {
				s.obj2[j] -= f
			}
		}
	}
	s.costPerturbed = true
	s.didPerturb = true
}

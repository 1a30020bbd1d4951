package mip

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mbsp/internal/lp"
)

// This file implements the branch-and-bound search as a deterministic
// parallel engine: a shared best-bound work queue feeds synchronous waves
// of node relaxations to a bounded worker pool, and a serial commit step
// applies the results in a fixed order. The reported solution and every
// counter in Result are byte-identical for any Options.Workers value —
// see DESIGN.md ("Deterministic parallel branch and bound") for the full
// argument. The short version:
//
//   - every node receives a sequence number at creation, in a fixed child
//     order (the dive-preferred child first), so the identity of the k-th
//     node ever created is independent of execution interleaving;
//   - the global node budget is charged against that creation sequence: a
//     child whose sequence reaches Options.NodeLimit is never enqueued,
//     so the admitted tree is the same for any worker count;
//   - each wave deterministically pops the best (bound, sequence) open
//     nodes, solves their LP relaxations concurrently — each relaxation
//     is a pure function of (matrix, parent basis, bounds, seq): every
//     worker owns a private lp.Instance, and the sparse LU core makes a
//     warm solve from a basis snapshot bit-identical whether it reuses
//     the worker's live factorization or replays the snapshot's recipe
//     (see lp/sparse.go), so which worker last touched which basis is
//     invisible — and then commits the results serially in pop order:
//     pruning tests, incumbent updates and child creation all happen at
//     deterministic points;
//   - incumbent ties break by node sequence, so even equal-cost optima
//     resolve identically.
//
// Options.Context — its cancellation or deadline, polled between waves
// and inside every relaxation solve — is the one nondeterministic cut:
// runs that need byte-identical results must let a node limit bind
// instead.

// waveSize is the number of nodes popped per wave. It is a fixed
// constant, NOT derived from Options.Workers: the logical search schedule
// (which nodes are solved in which wave) must be identical for every
// worker count, with Workers only deciding how many of a wave's
// relaxations solve concurrently. Larger waves expose more parallelism
// but commit later against a staler incumbent, re-solving nodes a
// one-node wave would already have pruned.
const waveSize = 8

// MaxWorkers is the largest effective Options.Workers value: the engine
// never solves more concurrent relaxations than one wave holds. Callers
// splitting a machine between several solver trees (e.g. the portfolio's
// auto budget) should clamp to it — workers beyond the wave width sit
// idle.
const MaxWorkers = waveSize

// bbNode is one open node of the tree. Bounds are delta-encoded: a node
// stores only its own branching decision plus a parent pointer, and a
// worker materializes the full bound vectors by walking the ancestor
// chain (every branch tightens, so ancestry application order is
// irrelevant). This keeps the best-bound queue small — a node is ~100
// bytes plus a basis snapshot shared with its sibling — where full bound
// copies would cost 2·n floats per open node.
type bbNode struct {
	parent *bbNode
	// basis is the parent relaxation's optimal basis; the node's LP
	// differs from the parent's by one bound and dual-reoptimizes from
	// it. Nil for the root (and for children of nodes whose basis could
	// not be captured), which cold-start.
	basis *lp.Basis
	// bound is the parent relaxation's objective: a lower bound on every
	// solution in this subtree, and the best-bound queue's sort key.
	bound     float64
	branchVal float64
	seq       int64 // creation sequence number; root = 0
	branchVar int32
	toUpper   bool // true: ub[branchVar] ← branchVal (down child)
}

// openHeap is the shared best-bound work queue: a min-heap on
// (bound, seq). Sequence numbers are unique, so the pop order is a total
// order — no heap tie can introduce nondeterminism.
type openHeap []*bbNode

func (h openHeap) Len() int { return len(h) }
func (h openHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h openHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *openHeap) Push(x interface{}) { *h = append(*h, x.(*bbNode)) }
func (h *openHeap) Pop() interface{} {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return nd
}

// bbSlot pairs a popped node with its relaxation result for the commit
// step.
type bbSlot struct {
	nd  *bbNode
	res lp.Result
	// panicked records that the relaxation solve panicked. The commit
	// step treats such a node like an LP iteration-limit failure: no
	// bound, no children, result demoted.
	panicked bool
}

// bbEngine holds the search state shared between the wave loop and the
// serial commit step.
type bbEngine struct {
	m    *Model
	opts *Options
	res  *Result

	open    openHeap
	nextSeq int64
	batch   []bbSlot

	// workers is the effective worker count; insts/lb/ub are the
	// per-worker LP instances and bound-materialization buffers.
	workers int
	insts   []*lp.Instance
	lb, ub  [][]float64

	rootBound float64
	rootDone  bool
	bestSeq   int64 // sequence of the incumbent's node (−1: warm start)
	truncated bool  // some child fell past the node budget
	sharedCut bool  // some subtree was pruned only by the shared bound
	aborted   bool  // the context cut the search
}

func newEngine(m *Model, opts *Options, res *Result) *bbEngine {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > waveSize {
		workers = waveSize
	}
	// The former dense core shrank the pool on large models to cap the
	// two-dense-m×m-matrix workspaces; LU workspace is O(nnz of the
	// factors), so the full requested pool is affordable at any model size
	// and the cap is gone.
	e := &bbEngine{
		m: m, opts: opts, res: res,
		workers:   workers,
		insts:     make([]*lp.Instance, workers),
		lb:        make([][]float64, workers),
		ub:        make([][]float64, workers),
		rootBound: math.Inf(-1),
		bestSeq:   -1,
	}
	// Worker 0 (the calling goroutine) always solves; the other slots are
	// created lazily on first dispatch — warm-started trees frequently
	// commit only a handful of nodes, and early waves are narrower than
	// the pool, so eagerly paying workers×Prepare would waste O(nnz) per
	// idle slot on every small sub-ILP. Worker identity is scheduling
	// noise, so lazy creation cannot affect results.
	e.prepareWorker(0)
	return e
}

// prepareWorker materializes worker w's private LP instance and bound
// buffers. Each worker touches only its own slot, so concurrent calls
// from different wave goroutines are race-free.
func (e *bbEngine) prepareWorker(w int) {
	if e.insts[w] != nil {
		return
	}
	n := e.m.NumVars()
	e.insts[w] = lp.Prepare(e.m.prob)
	e.lb[w] = make([]float64, n)
	e.ub[w] = make([]float64, n)
}

// run executes the wave loop until the queue drains or the context
// aborts the search.
func (e *bbEngine) run() {
	root := &bbNode{bound: math.Inf(-1)}
	if e.opts.NodeLimit < 1 {
		e.truncated = true
		return
	}
	e.open = openHeap{root}
	e.nextSeq = 1
	for len(e.open) > 0 {
		if e.opts.Context.Err() != nil {
			e.aborted = true
			return
		}
		// Injected spurious cancellation, keyed on (instance fingerprint,
		// next creation sequence): wave boundaries and sequence numbers are
		// deterministic under node limits, so the same chaos run cancels at
		// the same boundary for any worker count.
		if e.opts.Inject.CancelAt(e.insts[0].Fingerprint(), uint64(e.nextSeq)) {
			e.res.InjectedFaults++
			e.aborted = true
			return
		}
		n := min(len(e.open), waveSize)
		e.batch = e.batch[:0]
		for i := 0; i < n; i++ {
			e.batch = append(e.batch, bbSlot{nd: heap.Pop(&e.open).(*bbNode)})
		}
		e.solveWave()
		for i := range e.batch {
			e.commit(&e.batch[i])
		}
	}
}

// solveWave solves the batch relaxations, spreading them over the worker
// pool when it pays. Which worker solves which node is scheduling noise:
// every relaxation result is a pure function of the node, so the commit
// step sees identical inputs regardless.
func (e *bbEngine) solveWave() {
	n := len(e.batch)
	k := min(e.workers, n)
	if k <= 1 {
		for i := range e.batch {
			e.solveNode(0, &e.batch[i])
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				e.solveNode(w, &e.batch[i])
			}
		}(w)
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		e.solveNode(0, &e.batch[i])
	}
	wg.Wait()
}

// solveNode materializes the node's bounds from its ancestor chain and
// solves the relaxation on worker w's private instance.
func (e *bbEngine) solveNode(w int, s *bbSlot) {
	// Panic containment: solveNode runs on wave worker goroutines, where
	// an escaping panic kills the whole process. Recover here and let the
	// serial commit step demote the node to a failed relaxation.
	defer func() {
		if r := recover(); r != nil {
			s.panicked = true
			s.res = lp.Result{Status: lp.IterLimit}
		}
	}()
	e.prepareWorker(w)
	lb, ub := e.lb[w], e.ub[w]
	copy(lb, e.m.prob.Lb)
	copy(ub, e.m.prob.Ub)
	for nd := s.nd; nd.parent != nil; nd = nd.parent {
		j := int(nd.branchVar)
		if nd.toUpper {
			if nd.branchVal < ub[j] {
				ub[j] = nd.branchVal
			}
		} else {
			if nd.branchVal > lb[j] {
				lb[j] = nd.branchVal
			}
		}
	}
	lpOpts := lp.Options{
		Context: e.opts.Context,
		// EXPAND perturbation keyed to the node's creation sequence: the
		// shifts are a pure function of (matrix, seq), so the relaxation
		// result stays a pure function of the node and the determinism
		// argument above is untouched, while sibling relaxations do not
		// share one unlucky shift pattern.
		Perturb: !e.opts.NoPerturb, PerturbSeq: uint64(s.nd.seq),
	}
	if e.opts.Inject != nil {
		lpOpts.Inject = e.opts.Inject
		// Injected latency: a deterministic subset of nodes sleeps before
		// solving. Timing-only — the relaxation result is unchanged — so
		// node-limited determinism is preserved; only wall-clock limits
		// observe the difference.
		if d := e.opts.Inject.InjectedLatency(e.insts[w].Fingerprint(), uint64(s.nd.seq)); d > 0 {
			time.Sleep(d)
		}
	}
	switch {
	case e.opts.ReferenceLP:
		relax := &lp.Problem{Obj: e.m.prob.Obj, Lb: lb, Ub: ub, Rows: e.m.prob.Rows}
		s.res = lp.SolveDense(relax, lpOpts)
	case s.nd.basis == nil || e.opts.ColdStart:
		s.res = e.insts[w].Solve(lb, ub, lpOpts)
	default:
		s.res = e.insts[w].SolveFrom(s.nd.basis, lb, ub, lpOpts)
	}
}

// commit applies one solved node: counters, the pruning test against the
// incumbents, and either an incumbent update or two children. Commits run
// serially in wave pop order, so every decision lands at the same point
// of the search for any worker count.
func (e *bbEngine) commit(s *bbSlot) {
	res, lpRes := e.res, &s.res
	res.ILPNodes++
	res.ILPLPs++
	res.SimplexIters += lpRes.Iters
	res.CleanupIters += lpRes.CleanupIters
	if lpRes.Perturbed {
		res.PerturbedLPs++
	}
	if lpRes.Injected {
		res.InjectedFaults++
	}
	if s.panicked {
		// The relaxation solve panicked (recovered in solveNode): treat the
		// node as a failed relaxation — no bound, no children — and demote
		// the result exactly as for an LP iteration-limit node.
		res.Panics++
		res.ColdLPs++
		s.nd.basis = nil
		e.truncated = true
		return
	}
	switch {
	case e.opts.ReferenceLP, s.nd.basis == nil, e.opts.ColdStart, lpRes.ColdRestart:
		res.ColdLPs++
	default:
		res.WarmLPs++
	}
	// The node's basis (its parent's snapshot) was consumed by solveNode
	// and by the warm/cold classification above; open descendants keep the
	// whole ancestor chain alive through the parent pointers used for
	// bound materialization, so dropping the reference here keeps live
	// snapshots frontier-bounded — a sibling still holding the same
	// snapshot keeps it reachable.
	s.nd.basis = nil
	if !e.rootDone {
		e.rootDone = true
		if lpRes.Status == lp.Optimal {
			e.rootBound = lpRes.Obj
		}
	}
	switch lpRes.Status {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		// Integer restriction of an unbounded relaxation: give up on
		// bounding; treat as no-prune and branch on nothing — the model
		// author should bound the objective. The subtree stays unexplored,
		// so the search must not claim optimality or infeasibility.
		e.truncated = true
		return
	case lp.IterLimit:
		// The relaxation exhausted its pivot budget (or an abort surfaced
		// as IterLimit): the node has no valid bound and gets no
		// children, leaving its subtree unexplored — like a
		// budget-dropped child, this demotes Optimal to Feasible and
		// Infeasible to NoSolution. Deterministic whenever the contract
		// applies: under node-limited runs the LP result is a pure
		// function of the node, so every worker count commits the same
		// statuses in the same order.
		e.truncated = true
		return
	}
	cutoff := res.Obj
	if v := e.opts.SharedIncumbent.Get(); v < cutoff {
		cutoff = v
	}
	if lpRes.Obj >= cutoff-absGap {
		if lpRes.Obj < res.Obj-absGap {
			e.sharedCut = true // own incumbent alone would not have pruned
		}
		return // pruned: provably not improving on the best known bound
	}
	// Find most fractional integer variable.
	branch := -1
	worst := intTol
	for j := range e.m.integer {
		if !e.m.integer[j] {
			continue
		}
		f := math.Abs(lpRes.X[j] - math.Round(lpRes.X[j]))
		if f > worst {
			worst = f
			branch = j
		}
	}
	if branch < 0 {
		// Integral: candidate incumbent. Ties break by node sequence so
		// equal-cost optima resolve identically for any worker count.
		x := append([]float64(nil), lpRes.X...)
		for j := range e.m.integer {
			if e.m.integer[j] {
				x[j] = math.Round(x[j])
			}
		}
		obj := e.m.ObjValue(x)
		improved := obj < res.Obj-1e-12
		tie := !improved && res.X != nil &&
			math.Abs(obj-res.Obj) <= 1e-12 && s.nd.seq < e.bestSeq
		if !improved && !tie {
			return
		}
		res.Obj = obj
		res.X = x
		res.Status = Feasible
		e.bestSeq = s.nd.seq
		return
	}
	v := lpRes.X[branch]
	floor, ceil := math.Floor(v), math.Ceil(v)
	down := &bbNode{
		parent: s.nd, basis: lpRes.Basis, bound: lpRes.Obj,
		branchVar: int32(branch), branchVal: floor, toUpper: true,
	}
	up := &bbNode{
		parent: s.nd, basis: lpRes.Basis, bound: lpRes.Obj,
		branchVar: int32(branch), branchVal: ceil, toUpper: false,
	}
	// Fixed child order: the dive-preferred child (nearer integer) takes
	// the smaller sequence number and therefore pops first among equal
	// bounds.
	first, second := up, down
	if v-floor < ceil-v {
		first, second = down, up
	}
	e.push(first)
	e.push(second)
}

// push assigns the next creation sequence number and enqueues the node —
// unless the sequence falls past the node budget, in which case the child
// is charged and dropped. The budget binds on creation order, which is
// independent of worker scheduling, so the admitted tree is deterministic.
func (e *bbEngine) push(nd *bbNode) {
	nd.seq = e.nextSeq
	e.nextSeq++
	if nd.seq >= int64(e.opts.NodeLimit) {
		e.truncated = true
		return
	}
	heap.Push(&e.open, nd)
}

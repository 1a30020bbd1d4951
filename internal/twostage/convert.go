// Package twostage implements the paper's two-stage baseline: a stage-1
// BSP schedule (computed without memory constraints) is converted into a
// valid MBSP schedule by splitting compute phases into maximal segments
// that need no intervening I/O, and driving loads/evictions with a cache
// management policy (clairvoyant or LRU).
//
// The conversion follows Section 4 of the paper: new MBSP supersteps are
// formed by splitting each BSP compute phase into maximally long segments
// of compute steps that can still be executed without a new I/O
// operation; values computed for another processor (or for the terminal
// configuration) are saved in the superstep where they are produced;
// values with no remaining use are evicted automatically; when space is
// needed the policy selects a victim, saving it first if it is still live
// and not yet in slow memory.
package twostage

import (
	"errors"
	"fmt"
	"slices"

	"mbsp/internal/bsp"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
)

// ErrCacheTooSmall is returned when the architecture's fast memory cannot
// hold some node together with its parents (r < r0).
var ErrCacheTooSmall = errors.New("twostage: fast memory smaller than r0, no valid schedule exists")

// Convert turns a valid BSP schedule into a valid MBSP schedule on arch
// using the given eviction policy. Nodes in extraSave must also end up in
// slow memory (saved when produced); the divide-and-conquer scheduler
// passes the values later subproblems consume.
func Convert(b *bsp.Schedule, arch mbsp.Arch, policy memmgr.Policy, extraSave []int) (*mbsp.Schedule, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("twostage: invalid stage-1 schedule: %w", err)
	}
	var cv Converter
	return cv.Convert(b, arch, policy, extraSave)
}

// A Converter runs Convert repeatedly, keeping its pebble state and
// the storage of the schedule it returns from one call to the next, for
// callers that convert many stage-1 schedules and keep few of the
// results (the local search). The zero Converter is ready to use.
type Converter struct {
	c converter
}

// Convert is the package-level Convert on cv's storage, without its
// validation of b: b must already be a valid BSP schedule (as
// bsp.Schedule.FromAssignment output is by construction). The schedule
// it returns is overwritten by cv's next call; a caller that keeps it
// must not call cv again.
func (cv *Converter) Convert(b *bsp.Schedule, arch mbsp.Arch, policy memmgr.Policy, extraSave []int) (*mbsp.Schedule, error) {
	if arch.P < b.P {
		return nil, fmt.Errorf("twostage: architecture has %d processors, schedule uses %d", arch.P, b.P)
	}
	g := b.Graph
	if g.MinCache() > arch.R {
		return nil, ErrCacheTooSmall
	}

	c := &cv.c
	c.b, c.arch, c.policy = b, arch, policy
	if c.out == nil || c.out.Graph != g {
		c.out = mbsp.NewSchedule(g, arch)
	} else {
		c.out.Arch = arch
		c.out.Steps = c.out.Steps[:0]
	}
	c.init(extraSave)
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.out, nil
}

// procState is one processor's pebble state. Values are addressed by a
// local index over the values the processor touches: seq[i] is local i,
// and the parents of seq that are not in it follow. Every per-value field
// is a slice over local indices, so all processors together hold O(n+m)
// state whatever P is.
type procState struct {
	seq  []int // full compute sequence (concatenated BSP supersteps)
	head int   // next index into seq
	node []int // local index -> node id; node[:len(seq)] is seq
	// parLoc[parOff[i]:parOff[i+1]] are the local indices of seq[i]'s
	// parents, in g.Parents order.
	parOff []int
	parLoc []int
	// usePos[useOff[x]:useOff[x+1]] are the positions in seq consuming
	// x, ascending; usePtr[x] indexes usePos at x's next unconsumed use.
	useOff []int
	usePos []int
	usePtr []int
	// Resident values (red pebbles): res[x] marks them, resList holds
	// them in no particular order and resPos[x] is x's index there.
	res     []bool
	resList []int
	resPos  []int
	memUse  float64
	last    []int // local index -> logical time of last activity
	clock   int
}

type converter struct {
	b      *bsp.Schedule
	arch   mbsp.Arch
	policy memmgr.Policy
	out    *mbsp.Schedule

	procs    []*procState
	blue     []bool // node id -> has a blue pebble
	needSave []bool // node id -> must reach slow memory when produced

	// Buffers reused across supersteps and conversions; candLoc[k] is
	// the local index of cands[k].
	seqs        bsp.Sequences
	loc         []int
	computedNow [][]int
	cands       []memmgr.Info
	candLoc     []int
}

// zeroed returns s resized to n zero elements, reusing its storage when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (c *converter) init(extraSave []int) {
	g := c.b.Graph
	n := g.N()
	c.seqs.Fill(c.b)
	// loc maps a node to its local index on the processor being indexed,
	// or -1; it is reset after each processor.
	c.loc = zeroed(c.loc, n)
	loc := c.loc
	for v := range loc {
		loc[v] = -1
	}
	if len(c.procs) != c.arch.P {
		c.procs = make([]*procState, c.arch.P)
	}
	for p, ps := range c.procs {
		if ps == nil {
			ps = &procState{}
			c.procs[p] = ps
		}
		ps.head, ps.memUse, ps.clock = 0, 0, 0
		ps.resList = ps.resList[:0]
		var seq []int
		if p < c.b.P {
			seq = c.seqs.Proc(p)
		}
		npar := 0
		for _, v := range seq {
			npar += len(g.Parents(v))
		}
		ps.node = append(slices.Grow(ps.node[:0], len(seq)+npar), seq...)
		ps.parLoc = slices.Grow(ps.parLoc[:0], npar)
		ps.seq = ps.node[:len(ps.node):len(ps.node)]
		for i, v := range ps.seq {
			loc[v] = i
		}
		ps.parOff = zeroed(ps.parOff, len(ps.seq)+1)
		for i, v := range ps.seq {
			for _, u := range g.Parents(v) {
				if loc[u] < 0 {
					loc[u] = len(ps.node)
					ps.node = append(ps.node, u)
				}
				ps.parLoc = append(ps.parLoc, loc[u])
			}
			ps.parOff[i+1] = len(ps.parLoc)
		}
		for _, v := range ps.node {
			loc[v] = -1
		}
		nl := len(ps.node)
		ps.useOff = zeroed(ps.useOff, nl+1)
		for _, x := range ps.parLoc {
			ps.useOff[x+1]++
		}
		for x := 0; x < nl; x++ {
			ps.useOff[x+1] += ps.useOff[x]
		}
		ps.usePtr = zeroed(ps.usePtr, nl)
		copy(ps.usePtr, ps.useOff[:nl])
		ps.usePos = zeroed(ps.usePos, len(ps.parLoc))
		for i := range ps.seq {
			for _, x := range ps.parents(i) {
				ps.usePos[ps.usePtr[x]] = i
				ps.usePtr[x]++
			}
		}
		copy(ps.usePtr, ps.useOff[:nl])
		ps.res = zeroed(ps.res, nl)
		ps.resPos = zeroed(ps.resPos, nl)
		ps.last = zeroed(ps.last, nl)
	}
	c.blue = zeroed(c.blue, n)
	c.needSave = zeroed(c.needSave, n)
	for v := 0; v < n; v++ {
		if g.IsSource(v) {
			c.blue[v] = true
			continue
		}
		if g.IsSink(v) {
			c.needSave[v] = true
			continue
		}
		for _, w := range g.Children(v) {
			if c.b.Proc[w] != c.b.Proc[v] {
				c.needSave[v] = true
				break
			}
		}
	}
	for _, v := range extraSave {
		if !g.IsSource(v) {
			c.needSave[v] = true
		}
	}
	if len(c.computedNow) != c.arch.P {
		c.computedNow = make([][]int, c.arch.P)
	}
}

// parents returns the local indices of seq[i]'s parents.
func (ps *procState) parents(i int) []int { return ps.parLoc[ps.parOff[i]:ps.parOff[i+1]] }

// remUses returns the number of future consumptions of x on p.
func (ps *procState) remUses(x int) int { return ps.useOff[x+1] - ps.usePtr[x] }

// nextUse returns the next consumption position of x on p, or
// memmgr.NoUse.
func (ps *procState) nextUse(x int) int {
	if ps.usePtr[x] < ps.useOff[x+1] {
		return ps.usePos[ps.usePtr[x]]
	}
	return memmgr.NoUse
}

// addRes places a red pebble on x, which must not hold one.
func (ps *procState) addRes(x int, mem float64) {
	ps.res[x] = true
	ps.resPos[x] = len(ps.resList)
	ps.resList = append(ps.resList, x)
	ps.memUse += mem
}

// dropRes removes x's red pebble by moving the last resident into its
// slot.
func (ps *procState) dropRes(x int, mem float64) {
	i, last := ps.resPos[x], ps.resList[len(ps.resList)-1]
	ps.resList[i] = last
	ps.resPos[last] = i
	ps.resList = ps.resList[:len(ps.resList)-1]
	ps.res[x] = false
	ps.memUse -= mem
}

// addCand lists resident x on ps as an eviction candidate.
func (c *converter) addCand(ps *procState, x int) {
	v := ps.node[x]
	c.cands = append(c.cands, memmgr.Info{
		Node: v, Mem: c.b.Graph.Mem(v), NextUse: ps.nextUse(x), LastUse: ps.last[x], Saved: c.blue[v],
	})
	c.candLoc = append(c.candLoc, x)
}

// pickVictim returns the local index of the policy's choice among the
// listed candidates, or -1 if there are none.
func (c *converter) pickVictim() int {
	if len(c.cands) == 0 {
		return -1
	}
	return c.candLoc[c.policy.Pick(c.cands)]
}

// run drives superstep rounds until every processor exhausts its
// sequence.
func (c *converter) run() error {
	g := c.b.Graph
	for {
		doneAll := true
		for _, ps := range c.procs {
			if ps.head < len(ps.seq) {
				doneAll = false
			}
		}
		if doneAll {
			break
		}

		step := c.addSuperstep()
		progress := false

		// Phase 1: compute on every processor (maximal segments).
		// computedNow holds local indices, which are seq positions.
		computedNow := c.computedNow
		for p, ps := range c.procs {
			sp := &step.Procs[p]
			computedNow[p] = computedNow[p][:0]
			for ps.head < len(ps.seq) {
				i := ps.head
				v, par := ps.seq[i], ps.parents(i)
				okParents := true
				for _, x := range par {
					if !ps.res[x] {
						okParents = false
						break
					}
				}
				if !okParents {
					break
				}
				if !c.makeRoomComp(p, sp, g.Mem(v), par) {
					break
				}
				sp.Comp = append(sp.Comp, mbsp.Op{Kind: mbsp.OpCompute, Node: v})
				ps.addRes(i, g.Mem(v))
				ps.clock++
				ps.last[i] = ps.clock
				computedNow[p] = append(computedNow[p], i)
				// Consume parents; auto-evict values that just died.
				for _, x := range par {
					ps.usePtr[x]++
					ps.clock++
					ps.last[x] = ps.clock
				}
				for _, x := range par {
					u := ps.node[x]
					if ps.res[x] && ps.remUses(x) == 0 && (c.blue[u] || !c.needSave[u]) {
						sp.Comp = append(sp.Comp, mbsp.Op{Kind: mbsp.OpDelete, Node: u})
						ps.dropRes(x, g.Mem(u))
					}
				}
				ps.head++
				progress = true
			}
		}

		// Phase 2: production saves — every value computed this superstep
		// that is needed by another processor or terminally.
		for p, ps := range c.procs {
			sp := &step.Procs[p]
			for _, i := range computedNow[p] {
				if v := ps.seq[i]; c.needSave[v] && !c.blue[v] {
					sp.Save = append(sp.Save, v)
				}
			}
		}
		for p := range c.procs {
			for _, v := range step.Procs[p].Save {
				c.blue[v] = true
			}
		}

		// Phase 3+4: per-processor eviction and load planning for the
		// next segment.
		for p, ps := range c.procs {
			sp := &step.Procs[p]
			// Dead freshly-computed values can go now that they are
			// saved.
			for _, i := range computedNow[p] {
				if v := ps.seq[i]; ps.res[i] && ps.remUses(i) == 0 && c.blue[v] {
					sp.Del = append(sp.Del, v)
					ps.dropRes(i, g.Mem(v))
				}
			}
			if ps.head >= len(ps.seq) {
				continue
			}
			loaded := c.planLoads(p, sp)
			if loaded {
				progress = true
			}
		}

		if !progress {
			return fmt.Errorf("twostage: no progress in superstep %d (stage-1 schedule inconsistent?)", len(c.out.Steps)-1)
		}
	}
	c.trimEmptySupersteps()
	return nil
}

// makeRoomComp frees space during a compute phase: only values that are
// already in slow memory or dead-and-unneeded may be deleted here (a save
// is not possible mid-compute-phase). pinned local indices are never
// evicted.
func (c *converter) makeRoomComp(p int, sp *mbsp.ProcStep, need float64, pinned []int) bool {
	ps := c.procs[p]
	g := c.b.Graph
	for ps.memUse+need > c.arch.R+1e-9 {
		c.cands, c.candLoc = c.cands[:0], c.candLoc[:0]
		for _, x := range ps.resList {
			if slices.Contains(pinned, x) {
				continue
			}
			if u := ps.node[x]; c.blue[u] || (ps.remUses(x) == 0 && !c.needSave[u]) {
				c.addCand(ps, x)
			}
		}
		x := c.pickVictim()
		if x < 0 {
			return false
		}
		victim := ps.node[x]
		sp.Comp = append(sp.Comp, mbsp.Op{Kind: mbsp.OpDelete, Node: victim})
		ps.dropRes(x, g.Mem(victim))
	}
	return true
}

// makeRoomComm frees space during the communication phase: any non-pinned
// resident value may be evicted; live values not yet in slow memory are
// saved first (save-before-evict).
func (c *converter) makeRoomComm(p int, sp *mbsp.ProcStep, need float64, pinned []int) bool {
	ps := c.procs[p]
	g := c.b.Graph
	for ps.memUse+need > c.arch.R+1e-9 {
		c.cands, c.candLoc = c.cands[:0], c.candLoc[:0]
		for _, x := range ps.resList {
			if !slices.Contains(pinned, x) {
				c.addCand(ps, x)
			}
		}
		x := c.pickVictim()
		if x < 0 {
			return false
		}
		victim := ps.node[x]
		if !c.blue[victim] && (ps.remUses(x) > 0 || c.needSave[victim]) {
			sp.Save = append(sp.Save, victim)
			c.blue[victim] = true
		}
		sp.Del = append(sp.Del, victim)
		ps.dropRes(x, g.Mem(victim))
	}
	return true
}

// planLoads plans the load phase so the next compute segment can start:
// it guarantees the parents of the next node (plus room for its output),
// then opportunistically prefetches parents of subsequent nodes while
// everything fits without evicting pinned values. Only values already in
// slow memory can be loaded; if the next node's parents are not all
// available yet (another processor has not produced them), nothing is
// guaranteed and the processor idles this superstep.
func (c *converter) planLoads(p int, sp *mbsp.ProcStep) bool {
	ps := c.procs[p]
	g := c.b.Graph
	v0, par0 := ps.seq[ps.head], ps.parents(ps.head)
	// Availability check for the mandatory loads.
	var needMem float64
	for _, x := range par0 {
		if !ps.res[x] {
			u := ps.node[x]
			if !c.blue[u] {
				return false // produced later by another processor; idle
			}
			needMem += g.Mem(u)
		}
	}
	// Reserve room for v0's output too, so the next compute phase cannot
	// stall on space. v0's parents are pinned: they are what the room is
	// for.
	if !c.makeRoomComm(p, sp, needMem+g.Mem(v0), par0) {
		return false
	}
	loadedAny := false
	load := func(x int) {
		u := ps.node[x]
		sp.Load = append(sp.Load, u)
		ps.addRes(x, g.Mem(u))
		ps.clock++
		ps.last[x] = ps.clock
		loadedAny = true
	}
	// Pinned values are never evicted, so the parents resident before
	// the eviction still are; load the rest.
	for _, x := range par0 {
		if !ps.res[x] {
			load(x)
		}
	}
	// Opportunistic prefetch for subsequent nodes: stop at the first node
	// whose extra parents do not fit (without any further eviction) or
	// are not yet available.
	budget := c.arch.R - ps.memUse - g.Mem(v0)
	for i := ps.head + 1; i < len(ps.seq); i++ {
		var extraMem float64
		ok := true
		for _, x := range ps.parents(i) {
			if ps.res[x] {
				continue
			}
			u := ps.node[x]
			if !c.blue[u] {
				ok = false
				break
			}
			extraMem += g.Mem(u)
		}
		w := ps.seq[i]
		if !ok || extraMem+g.Mem(w) > budget+1e-9 {
			break
		}
		for _, x := range ps.parents(i) {
			if !ps.res[x] {
				load(x)
			}
		}
		budget -= extraMem + g.Mem(w)
	}
	return loadedAny
}

// addSuperstep appends an empty superstep to c.out, reusing the storage
// of one that an earlier conversion left beyond the schedule's length.
func (c *converter) addSuperstep() *mbsp.Superstep {
	n := len(c.out.Steps)
	if n == cap(c.out.Steps) || len(c.out.Steps[:n+1][n].Procs) != c.arch.P {
		return c.out.AddSuperstep()
	}
	c.out.Steps = c.out.Steps[:n+1]
	st := &c.out.Steps[n]
	for p := range st.Procs {
		sp := &st.Procs[p]
		sp.Comp, sp.Save, sp.Del, sp.Load = sp.Comp[:0], sp.Save[:0], sp.Del[:0], sp.Load[:0]
	}
	return st
}

// trimEmptySupersteps removes supersteps in which no processor does
// anything (possible when a processor idles waiting for data). It swaps
// rather than overwrites, so every superstep's storage stays distinct
// for addSuperstep to reuse.
func (c *converter) trimEmptySupersteps() {
	steps := c.out.Steps
	k := 0
	for i := range steps {
		empty := true
		for p := range steps[i].Procs {
			if !steps[i].Procs[p].Empty() {
				empty = false
				break
			}
		}
		if !empty {
			steps[k], steps[i] = steps[i], steps[k]
			k++
		}
	}
	c.out.Steps = steps[:k]
}

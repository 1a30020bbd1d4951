package mbsp

// SyncCost evaluates the synchronous (Multi-BSP style) cost of the
// schedule:
//
//	Σ over supersteps of [ max_p cost(Ψcomp_p) + max_p cost(Ψsave_p)
//	                       + max_p cost(Ψload_p) + L ].
//
// The schedule is assumed valid; call Validate first.
func (s *Schedule) SyncCost() float64 {
	total := 0.0
	for i := range s.Steps {
		comp, save, load := s.phaseMax(i)
		total += comp + save + load + s.Arch.L
	}
	return total
}

// phaseMax returns superstep i's compute, save and load phase costs, each
// the maximum over processors.
func (s *Schedule) phaseMax(i int) (maxComp, maxSave, maxLoad float64) {
	for p := range s.Steps[i].Procs {
		ps := &s.Steps[i].Procs[p]
		var comp, save, load float64
		for _, op := range ps.Comp {
			if op.Kind == OpCompute {
				comp += s.Graph.Comp(op.Node)
			}
		}
		for _, v := range ps.Save {
			save += s.Arch.G * s.Graph.Mem(v)
		}
		for _, v := range ps.Load {
			load += s.Arch.G * s.Graph.Mem(v)
		}
		maxComp = max(maxComp, comp)
		maxSave = max(maxSave, save)
		maxLoad = max(maxLoad, load)
	}
	return maxComp, maxSave, maxLoad
}

// AsyncCost evaluates the asynchronous cost (makespan) of the schedule.
// Each processor executes its own transition sequence back to back; a
// LOAD of node v additionally waits until Γ(v), the finishing time of the
// earliest SAVE of v within the first superstep that saves v. Source
// nodes are available in slow memory at time 0.
//
// The returned value is max_p γ(last transition on p). The schedule is
// assumed valid.
func (s *Schedule) AsyncCost() float64 {
	var c CostScratch
	return c.async(s)
}

// CostScratch holds the working storage of the asynchronous cost so that
// a caller scoring many schedules (the local search, once per move)
// allocates it once. The zero value is ready to use; one CostScratch
// serves schedules of any size, one at a time.
type CostScratch struct {
	gamma, avail, minThis []float64
	savedNow              []int
}

// Cost evaluates s under the given cost model.
func (c *CostScratch) Cost(s *Schedule, model CostModel) float64 {
	if model == Async {
		return c.async(s)
	}
	return s.SyncCost()
}

func (c *CostScratch) async(s *Schedule) float64 {
	g := s.Graph
	gamma := resize(c.gamma, s.Arch.P, 0) // current finishing time per processor
	// Γ(v), the time v first becomes available in slow memory, and the
	// minimum over the current superstep's saves of v. Times are sums of
	// non-negative weights, so unsaved never collides with one.
	const unsaved = -1.0
	avail := resize(c.avail, g.N(), unsaved)
	minThis := resize(c.minThis, g.N(), unsaved)
	c.gamma, c.avail, c.minThis = gamma, avail, minThis
	for v := range avail {
		if g.IsSource(v) {
			avail[v] = 0
		}
	}
	savedNow := c.savedNow[:0] // nodes with a minThis entry, in first-save order
	for i := range s.Steps {
		// Compute phases (deletes are free).
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			for _, op := range ps.Comp {
				if op.Kind == OpCompute {
					gamma[p] += g.Comp(op.Node)
				}
			}
		}
		// Save phases: Γ(v) is set in the first superstep saving v, as
		// the minimum finish time over that superstep's saves of v;
		// saves in later supersteps never lower Γ.
		savedNow = savedNow[:0]
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			for _, v := range ps.Save {
				gamma[p] += s.Arch.G * g.Mem(v)
				switch t := minThis[v]; {
				case t == unsaved:
					minThis[v] = gamma[p]
					savedNow = append(savedNow, v)
				case gamma[p] < t:
					minThis[v] = gamma[p]
				}
			}
		}
		for _, v := range savedNow {
			if avail[v] == unsaved {
				avail[v] = minThis[v]
			}
			minThis[v] = unsaved
		}
		// Load phases.
		for p := range s.Steps[i].Procs {
			ps := &s.Steps[i].Procs[p]
			for _, v := range ps.Load {
				start := gamma[p]
				if t := avail[v]; t != unsaved && t > start {
					start = t
				}
				gamma[p] = start + s.Arch.G*g.Mem(v)
			}
		}
	}
	c.savedNow = savedNow
	best := 0.0
	for p := range gamma {
		best = max(best, gamma[p])
	}
	return best
}

// resize returns buf resized to n entries, each set to fill, reusing its
// storage when large enough.
func resize(buf []float64, n int, fill float64) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// Cost evaluates the schedule under the given cost model.
func (s *Schedule) Cost(model CostModel) float64 {
	var c CostScratch
	return c.Cost(s, model)
}

// CostModel selects between the synchronous and asynchronous objective.
type CostModel uint8

const (
	// Sync is the superstep-structured (Multi-)BSP cost.
	Sync CostModel = iota
	// Async is the makespan-style cost with Γ-mediated load waits.
	Async
)

func (m CostModel) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

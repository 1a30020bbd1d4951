package main

import (
	"fmt"
	"strings"
	"time"

	"mbsp"
	"mbsp/internal/lp"
)

// ilpItem is one solve-ilp operation: the holistic ILP scheduler on a
// tiny-dataset instance, synchronous cost, r = rfactor·r0, g = 1, L = 10.
type ilpItem struct {
	inst      string
	p         int
	rfactor   float64
	nodeLimit int
}

func (it ilpItem) String() string {
	return fmt.Sprintf("%s/p%d/rf%g/nodes%d", it.inst, it.p, it.rfactor, it.nodeLimit)
}

// ilpRotation is one solve-ilp pass. Tree-dominated solves (P=1, 20
// nodes, 700–2400 rows, warm dual re-solves) and two root-dominated
// solves above the serving row cap (NodeLimit 1, cold primal). The P=1
// models at rfactor 2, 4, 5, 6 and 8 are the same families at other
// memory bounds: short solves that give every run enough samples for a
// tail percentile.
var ilpRotation = []ilpItem{
	{"k-means", 1, 3, 20},
	{"pregel", 1, 3, 20},
	{"bicgstab", 1, 3, 20},
	{"kNN_N4_K3", 1, 3, 20},
	{"spmv_N6", 1, 3, 20},
	{"spmv_N7", 1, 3, 1},
	{"spmv_N6", 2, 3, 1},
	{"k-means", 1, 2, 20},
	{"k-means", 1, 4, 20},
	{"k-means", 1, 5, 20},
	{"pregel", 1, 2, 20},
	{"pregel", 1, 4, 20},
	{"pregel", 1, 6, 20},
	{"bicgstab", 1, 5, 20},
	{"bicgstab", 1, 6, 20},
	{"kNN_N4_K3", 1, 6, 20},
	{"kNN_N4_K3", 1, 8, 20},
}

// ilpTail selects solve-ilp's tail: the highest percentile with ten
// samples beyond it (p70.6 of two 17-solve passes).
const ilpTail = 0

// ilpPass is the nominal solve-ilp pass time on a 2-core machine.
const ilpPass = 16 * time.Second

// ilpOptions is the solve-ilp configuration: one MIP worker, the item's
// node limit, minimal local search and a wall clock that never binds.
func ilpOptions(it ilpItem, lu *lp.FactorStats) mbsp.ILPOptions {
	return mbsp.ILPOptions{
		Model:             mbsp.Sync,
		NodeLimit:         it.nodeLimit,
		MIPWorkers:        1,
		LocalSearchBudget: 1,
		TimeLimit:         time.Hour,
		Seed:              1,
		LUStats:           lu,
	}
}

// ilpInput is an item's DAG, architecture and baseline cost.
type ilpInput struct {
	g        *mbsp.DAG
	arch     mbsp.Arch
	baseline float64
}

func ilpInputs() ([]ilpInput, error) {
	in := make([]ilpInput, len(ilpRotation))
	for i, it := range ilpRotation {
		inst, err := mbsp.InstanceByName(it.inst)
		if err != nil {
			return nil, err
		}
		g := inst.DAG
		arch := mbsp.Arch{P: it.p, R: it.rfactor * g.MinCache(), G: 1, L: 10}
		base, err := mbsp.ScheduleBaseline(g, arch)
		if err != nil {
			return nil, fmt.Errorf("%s: baseline: %w", it, err)
		}
		in[i] = ilpInput{g: g, arch: arch, baseline: base.Cost(mbsp.Sync)}
	}
	return in, nil
}

// ilpOp is one measured solve.
type ilpOp struct {
	item    int
	at      time.Time // solve start
	latency time.Duration
	sched   *mbsp.Schedule
	stats   mbsp.ILPStats
	lu      lp.FactorStats
	err     error
}

// runILPSegment solves n seeded passes over the rotation. traced attaches
// the LP factorization counters to every solve; a non-nil calibrator is
// sampled before every solve. wall excludes the calibration samples.
func runILPSegment(r *run, in []ilpInput, n int, traced bool, cal *calibrator, passBase int) (ops []ilpOp, wall time.Duration) {
	start := time.Now()
	var calTime time.Duration
	for pass := passBase; pass < passBase+n; pass++ {
		for _, i := range permutation(r.seed, pass, len(ilpRotation)) {
			if cal != nil {
				calTime += cal.sample()
			}
			op := ilpOp{item: i}
			var lu *lp.FactorStats
			if traced {
				lu = &op.lu
			}
			op.at = time.Now()
			op.sched, op.stats, op.err = mbsp.ScheduleILP(in[i].g, in[i].arch, ilpOptions(ilpRotation[i], lu))
			op.latency = time.Since(op.at)
			ops = append(ops, op)
		}
	}
	return ops, time.Since(start) - calTime
}

// ilpSignature is everything about a solve that must not change when an
// item recurs or when tracing is on: the search counts and the schedule.
func ilpSignature(op *ilpOp) string {
	st := op.stats
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d nodes=%d lps=%d iters=%d warm=%d cold=%d perturbed=%d cleanup=%d moves=%d final=%g bound=%g source=%s status=%s\n",
		st.ModelRows, st.ILPNodes, st.ILPLPs, st.SimplexIters, st.WarmLPs, st.ColdLPs, st.PerturbedLPs,
		st.CleanupIters, st.LocalMoves, st.FinalCost, st.ProvedBound, st.Source, st.ILPStatus)
	if op.sched != nil {
		b.WriteString(op.sched.String())
	}
	return b.String()
}

// checkILPOps applies the solve-ilp correctness gates: every schedule
// validates and costs no more than its warm start, and an item's counts
// and schedule (its signature, kept in sig) are identical every time it
// recurs.
func checkILPOps(r *run, ops []ilpOp, sig map[int]string) {
	for k := range ops {
		op := &ops[k]
		it := ilpRotation[op.item]
		r.attempted++
		if op.err != nil {
			r.failed++
			r.violate("%s: %v", it, op.err)
			continue
		}
		if err := op.sched.Validate(); err != nil {
			r.violate("%s: schedule invalid: %v", it, err)
			continue
		}
		if c := op.sched.Cost(mbsp.Sync); c > op.stats.WarmCost+1e-9 || c != op.stats.FinalCost {
			r.violate("%s: cost %g (reported %g) against warm start %g", it, c, op.stats.FinalCost, op.stats.WarmCost)
		}
		s := ilpSignature(op)
		if prev, ok := sig[op.item]; !ok {
			sig[op.item] = s
		} else if prev != s {
			r.violate("%s: counts or schedule differ between recurrences", it)
		}
	}
}

// ilpSetup builds the rotation's DAGs and baseline costs: solve-ilp's
// set-up, returned with its duration.
func ilpSetup() ([]ilpInput, float64) {
	t0 := time.Now()
	in, err := ilpInputs()
	if err != nil {
		fatalf("solve-ilp set-up: %v", err)
	}
	return in, time.Since(t0).Seconds()
}

func solveILP(r *run) {
	// Set-up is repeated before and after the measured passes, so its
	// median spans the run; each repetition follows a calibration sample.
	cal := &calibrator{threads: 1} // serial solves
	var setups, setupScale []float64
	var setupAt []time.Time
	var in []ilpInput
	setup := func() {
		cal.sample()
		setupAt = append(setupAt, time.Now())
		var d float64
		in, d = ilpSetup()
		setups = append(setups, d)
	}
	for i := 0; i < setupReps/2; i++ {
		setup()
	}
	// Warm-up: one untimed solve of the first item, so the measured
	// passes do not pay the process's first heap growth.
	mbsp.ScheduleILP(in[0].g, in[0].arch, ilpOptions(ilpRotation[0], nil))

	sig := map[int]string{}
	if !r.traced {
		ops, _ := runILPSegment(r, in, passes(r.seconds, ilpPass, 2), false, cal, 0)
		for len(setups) < setupReps {
			setup()
		}
		cal.sample()
		for _, t := range setupAt {
			setupScale = append(setupScale, cal.scale(t))
		}
		checkILPOps(r, ops, sig)
		tm := ilpTimings(ops, cal)
		cal.log(r.workload)
		r.reportLatency(tm, ilpTail)
		r.reportOutcome()
		r.reportSetup(setups, setupScale)
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		var ratios, gaps []float64
		for i := range ilpRotation {
			st := firstStats(ops, i)
			ratios = append(ratios, st.FinalCost/in[i].baseline)
			gaps = append(gaps, mipGap(st))
		}
		r.set("cost_ratio", geomean(ratios), "ratio")
		r.set("gap_median", median(gaps), "ratio")
		return
	}
	traceILP(r, in, sig, cal)
}

// ilpTimings calibrates a segment's solve latencies.
func ilpTimings(ops []ilpOp, cal *calibrator) timings {
	var tm timings
	for _, op := range ops {
		tm.addSerial(ms(op.latency), cal.scale(op.at.Add(op.latency/2)))
	}
	return tm
}

// firstStats returns the stats of item i's first solve in ops.
func firstStats(ops []ilpOp, i int) mbsp.ILPStats {
	for _, op := range ops {
		if op.item == i {
			return op.stats
		}
	}
	return mbsp.ILPStats{}
}

// mipGap is the relative gap between the returned schedule's cost and
// the branch-and-bound dual bound.
func mipGap(st mbsp.ILPStats) float64 {
	if st.FinalCost <= 0 {
		return 0
	}
	g := (st.FinalCost - st.ProvedBound) / st.FinalCost
	if g < 0 {
		return 0
	}
	return g
}

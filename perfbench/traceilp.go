package main

import (
	"time"

	"mbsp"
)

// traceILP is the traced solve-ilp run: an untraced and a traced segment
// of whole passes (the traced one attaches the LP factorization counters
// through ILPOptions.LUStats), the recurrence gate across both (tracing
// must not change a count or a schedule), then one replay per item that
// splits each solve's wall clock into layers:
//
//	twostage  the baseline warm start (ScheduleBaseline)
//	ilpsched  model build, extraction and local search: the same solve
//	          with MaxModelRows 1 (no tree search) minus the baseline
//	lp        the LU kernel (factorizations and triangular solves)
//	mip       the rest: simplex iterations outside the kernel and the
//	          branch-and-bound tree
//
// mip.root_ms is the same solve at NodeLimit 1 minus the no-tree replay;
// mip.tree_ms is the remainder.
func traceILP(r *run, in []ilpInput, sig map[int]string, cal *calibrator) {
	r.initLayerMetrics()
	n := passes(r.seconds/2, ilpPass, 1)
	plain, _ := runILPSegment(r, in, n, false, cal, 0)
	traced, tracedWall := runILPSegment(r, in, n, true, cal, 1<<20)
	cal.sample()
	checkILPOps(r, plain, sig)
	checkILPOps(r, traced, sig)

	type replay struct{ base, noTree, root float64 }
	rep := make([]replay, len(ilpRotation))
	for i, it := range ilpRotation {
		t0 := time.Now()
		if _, err := mbsp.ScheduleBaseline(in[i].g, in[i].arch); err != nil {
			r.violate("%s: baseline replay: %v", it, err)
		}
		rep[i].base = ms(time.Since(t0))
		opts := ilpOptions(it, nil)
		opts.MaxModelRows = 1
		t0 = time.Now()
		if _, _, err := mbsp.ScheduleILP(in[i].g, in[i].arch, opts); err != nil {
			r.violate("%s: no-tree replay: %v", it, err)
		}
		rep[i].noTree = ms(time.Since(t0))
		rep[i].root = -1
		if it.nodeLimit > 1 {
			opts = ilpOptions(it, nil)
			opts.NodeLimit = 1
			t0 = time.Now()
			if _, _, err := mbsp.ScheduleILP(in[i].g, in[i].arch, opts); err != nil {
				r.violate("%s: root replay: %v", it, err)
			}
			rep[i].root = ms(time.Since(t0))
		}
	}

	l := newLedger()
	l.wall = ms(tracedWall)
	nOps := float64(len(traced))
	var sumT, sumLU, sumIters, sumWarm, sumReuse, root, tree, validate float64
	var nodes, cold, refactors, etas, moves, inTree float64
	for k := range traced {
		op := &traced[k]
		rp := rep[op.item]
		t := ms(op.latency)
		lu := float64(op.lu.FactorNanos+op.lu.SolveNanos) / 1e6
		ilpSelf := max(0, rp.noTree-rp.base)
		l.add("twostage", rp.base)
		l.add("ilpsched", ilpSelf)
		l.add("lp", lu)
		l.add("mip", t-rp.base-ilpSelf-lu)
		if rp.root < 0 {
			root += t - rp.noTree
		} else {
			root += rp.root - rp.noTree
			tree += t - rp.root
		}
		r.metrics["lp.factor_ms"] = metric{r.metrics["lp.factor_ms"].Value + float64(op.lu.FactorNanos)/1e6/nOps, "ms"}
		r.metrics["lp.solve_ms"] = metric{r.metrics["lp.solve_ms"].Value + float64(op.lu.SolveNanos)/1e6/nOps, "ms"}
		sumT += t
		sumLU += lu
		st := op.stats
		sumIters += float64(st.SimplexIters)
		sumWarm += float64(st.WarmLPs)
		sumReuse += float64(op.lu.HotSolves + op.lu.Replays)
		nodes += float64(st.ILPNodes)
		cold += float64(st.ColdLPs)
		refactors += float64(op.lu.Refactors)
		etas += float64(op.lu.EtaPivots)
		moves += float64(st.LocalMoves)
		if st.UsedILP {
			inTree++
		}
		t0 := time.Now()
		op.sched.Validate()
		validate += ms(time.Since(t0))
	}
	var gaps []float64
	for i := range ilpRotation {
		gaps = append(gaps, mipGap(firstStats(traced, i)))
	}
	r.set("twostage.ms", l.self["twostage"]/nOps, "ms")
	r.set("ilpsched.ms", l.self["ilpsched"]/nOps, "ms")
	r.set("ilpsched.tree_ratio", inTree/nOps, "ratio")
	r.set("refine.moves", moves/nOps, "count")
	r.set("mip.nodes", nodes/nOps, "count")
	r.set("mip.simplex_iters", sumIters/nOps, "count")
	r.set("mip.warm_lps", sumWarm/nOps, "count")
	r.set("mip.cold_lps", cold/nOps, "count")
	r.set("mip.root_ms", root/nOps, "ms")
	r.set("mip.tree_ms", tree/nOps, "ms")
	r.set("mip.gap", median(gaps), "ratio")
	r.set("lp.share", sumLU/sumT, "ratio")
	r.set("lp.refactors", refactors/nOps, "count")
	r.set("lp.eta_pivots", etas/nOps, "count")
	if sumWarm > 0 {
		r.set("lp.reuse_ratio", sumReuse/sumWarm, "ratio")
	}
	if sumIters > 0 {
		r.set("lp.us_per_iter", 1000*sumLU/sumIters, "us")
	}
	r.set("mbsp.validate_ms", validate/nOps, "ms")
	r.reportLedger(l, ilpTimings(traced, cal).calMean()/ilpTimings(plain, cal).calMean()-1)
}

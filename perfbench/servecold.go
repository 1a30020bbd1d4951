package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"time"

	"mbsp/internal/mbsp"
	"mbsp/internal/portfolio"
	"mbsp/internal/server"
)

// coldTail selects serve-cold's tail: the highest percentile with ten
// samples beyond it (p94.3 of one 176-request pass).
const coldTail = 0

// coldPass is the nominal serve-cold pass time (the sum of the sized cold
// latencies is 19 s on a 2-core machine).
const coldPass = 20 * time.Second

// coldOp is one serve-cold request.
type coldOp struct {
	key     serveKey
	at      time.Time // request start
	rp      reply
	trace   *computeTrace // traced segment only
	handler float64       // ms inside the server's handler; traced segment only
}

// coldSegment is a run of whole serve-cold passes.
type coldSegment struct {
	ops   []coldOp
	stats []server.StatsSnapshot
}

// coldCalEvery is how many serve-cold requests run between two samples of
// the calibration kernel (about half a second's worth).
const coldCalEvery = 4

// runColdSegment runs n passes; each sends every key once, in seeded
// order, to a fresh server on an empty durable cache. A non-nil tracer
// wraps the server's Compute hook; a non-nil calibrator is sampled
// between requests.
func runColdSegment(r *run, c *corpus, keys []serveKey, n int, tr *coldTracer, cal *calibrator, passBase int) coldSegment {
	var seg coldSegment
	var compute server.Compute
	if tr != nil {
		compute = tr.compute
	}
	for pass := passBase; pass < passBase+n; pass++ {
		ls, _, err := bootServer(serveConfig(filepath.Join(r.subdir("cold"), "cache"), compute))
		if err != nil {
			fatalf("serve-cold: booting server: %v", err)
		}
		ls.timer.on.Store(tr != nil)
		first := len(seg.ops)
		for j, i := range permutation(r.seed, pass, len(keys)) {
			if cal != nil && j%coldCalEvery == 0 {
				cal.sample()
			}
			k := keys[i]
			op := coldOp{key: k, at: time.Now()}
			op.rp = ls.schedule(k, c.body[k.Inst])
			if tr != nil {
				op.trace = tr.take()
			}
			seg.ops = append(seg.ops, op)
		}
		if cal != nil {
			cal.sample()
		}
		for i := first; i < len(seg.ops); i++ {
			seg.ops[i].handler = ls.timer.handlerMs(seg.ops[i].rp.id)
		}
		seg.stats = append(seg.stats, ls.srv.Stats())
		ls.stop()
	}
	return seg
}

// checkColdOps applies the serve-cold correctness gates: every response
// is a 200 computed by this request, full fidelity (rung "portfolio",
// nothing degraded, interrupted or fallen back), its schedule re-parses
// and re-validates against the request's DAG and architecture, and its
// reported costs equal the recomputed ones.
func checkColdOps(r *run, c *corpus, seg coldSegment) {
	for _, op := range seg.ops {
		r.attempted++
		k := op.key
		if op.rp.err != nil {
			r.failed++
			r.violate("%s: %v", k, op.rp.err)
			continue
		}
		resp, err := decodeResponse(op.rp.body)
		if err != nil {
			r.failed++
			r.violate("%s: undecodable response: %v", k, err)
			continue
		}
		if resp.Cache == nil || resp.Cache.Hit || resp.Cache.Provenance != "cold" {
			r.violate("%s: not a cold computation: %+v", k, resp.Cache)
		}
		cert := resp.Certificate
		if cert == nil || cert.Rung != portfolio.RungPortfolio || cert.Interrupted ||
			len(cert.Degraded) > 0 || cert.FallbackUsed {
			r.violate("%s: not full fidelity: %+v", k, cert)
			continue
		}
		g := c.dag[k.Inst]
		s, err := mbsp.ReadSchedule(strings.NewReader(resp.Schedule), g)
		if err != nil {
			r.violate("%s: schedule does not re-validate: %v", k, err)
			continue
		}
		if s.Arch != k.arch(g) {
			r.violate("%s: schedule architecture %v, want %v", k, s.Arch, k.arch(g))
		}
		if s.Cost(k.costModel()) != resp.Cost || s.SyncCost() != resp.SyncCost ||
			s.AsyncCost() != resp.AsyncCost || cert.Cost != resp.Cost {
			r.violate("%s: reported cost %g (sync %g, async %g, certificate %g) differs from recomputed %g (sync %g, async %g)",
				k, resp.Cost, resp.SyncCost, resp.AsyncCost, cert.Cost, s.Cost(k.costModel()), s.SyncCost(), s.AsyncCost())
		}
	}
	for _, k := range sameBodies(seg, seg) {
		r.violate("%s: cold answer differs between passes", k)
	}
	for _, st := range seg.stats {
		if st.Admission.Shed != 0 || st.Requests.Degraded != 0 || st.Requests.Errored != 0 {
			r.violate("server counted %d shed, %d degraded, %d errored requests",
				st.Admission.Shed, st.Requests.Degraded, st.Requests.Errored)
		}
	}
}

// coldSetup builds the request corpus and boots a server on an empty
// durable cache: serve-cold's set-up, returned with its duration.
func coldSetup(r *run, keys []serveKey) (*corpus, float64) {
	t0 := time.Now()
	c, err := newCorpus(keys)
	if err != nil {
		fatalf("serve-cold set-up: %v", err)
	}
	ls, _, err := bootServer(serveConfig(filepath.Join(r.subdir("boot"), "cache"), nil))
	if err != nil {
		fatalf("serve-cold set-up: %v", err)
	}
	d := time.Since(t0).Seconds()
	ls.stop()
	return c, d
}

func serveCold(r *run) {
	keys := coldKeys()
	// Set-up is repeated before and after the measured passes, so its
	// median spans the run; each repetition follows a calibration sample.
	cal := &calibrator{threads: 2} // the portfolio races candidates on both cores
	var setups, setupScale []float64
	var setupAt []time.Time
	var c *corpus
	setup := func() {
		cal.sample()
		setupAt = append(setupAt, time.Now())
		var d float64
		c, d = coldSetup(r, keys)
		setups = append(setups, d)
	}
	for i := 0; i < setupReps/2; i++ {
		setup()
	}
	if r.traced {
		traceCold(r, c, keys, cal)
		return
	}
	seg := runColdSegment(r, c, keys, passes(r.seconds, coldPass, 1), nil, cal, 0)
	for len(setups) < setupReps {
		setup()
	}
	cal.sample()
	for _, t := range setupAt {
		setupScale = append(setupScale, cal.scale(t))
	}
	checkColdOps(r, c, seg)
	tm := coldTimings(seg, cal)
	var ratios, gaps []float64
	for _, op := range seg.ops {
		resp, err := decodeResponse(op.rp.body)
		if err != nil || resp.Certificate == nil {
			continue
		}
		base, err := c.baseline(op.key)
		if err != nil {
			r.violate("%s: baseline: %v", op.key, err)
			continue
		}
		ratios = append(ratios, resp.Cost/base.Cost(op.key.costModel()))
		gaps = append(gaps, resp.Certificate.Gap)
	}
	cal.log(r.workload)
	r.reportLatency(tm, coldTail)
	r.reportOutcome()
	r.reportSetup(setups, setupScale)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("cost_ratio", geomean(ratios), "ratio")
	r.set("gap_median", median(gaps), "ratio")
}

// coldTimings calibrates a segment's request latencies.
func coldTimings(seg coldSegment, cal *calibrator) timings {
	var tm timings
	for _, op := range seg.ops {
		tm.addSerial(ms(op.rp.latency), cal.scale(op.at.Add(op.rp.latency/2)))
	}
	return tm
}

// sameBodies reports the keys whose response bodies differ between two
// segments over the same key set (every key appears once per pass, and
// a key's cold answer is deterministic).
func sameBodies(a, b coldSegment) []string {
	first := map[serveKey][]byte{}
	for _, op := range a.ops {
		first[op.key] = op.rp.body
	}
	var diff []string
	for _, op := range b.ops {
		if want, ok := first[op.key]; ok && !bytes.Equal(want, op.rp.body) {
			diff = append(diff, op.key.String())
		}
	}
	return diff
}

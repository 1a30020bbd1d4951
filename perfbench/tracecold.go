package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/persist"
	"mbsp/internal/portfolio"
	"mbsp/internal/schedcache"
	"mbsp/internal/wire"
)

// candSpan is one portfolio candidate's run inside a traced compute.
type candSpan struct {
	name       string
	start, end time.Time
	lu         lp.FactorStats
	sched      *mbsp.Schedule
}

// computeTrace is one traced portfolio run.
type computeTrace struct {
	start, end time.Time
	workers    int
	cands      []candSpan
}

// coldTracer is the server's Compute hook in the traced segment. It runs
// portfolio.RunAnytime exactly as the server would, with the default
// candidates wrapped (names and order unchanged) to time each one and
// read its private LP factorization counters.
type coldTracer struct {
	mu   sync.Mutex
	done []*computeTrace
}

func (t *coldTracer) compute(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error) {
	ct := &computeTrace{start: time.Now()}
	base := portfolio.DefaultCandidates(g, arch)
	ct.cands = make([]candSpan, len(base))
	wrapped := make([]portfolio.Candidate, len(base))
	for i, c := range base {
		sp := &ct.cands[i]
		sp.name = c.Name
		wrapped[i] = portfolio.Candidate{Name: c.Name, Run: func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, o portfolio.Options) (*mbsp.Schedule, error) {
			sp.start = time.Now()
			s, err := c.Run(ctx, g, arch, o)
			sp.end = time.Now()
			if o.LUStats != nil {
				sp.lu = *o.LUStats
			}
			sp.sched = s
			return s, err
		}}
	}
	opts.Candidates = wrapped
	opts.LUStats = &lp.FactorStats{}
	res, err := portfolio.RunAnytime(ctx, g, arch, opts)
	ct.end = time.Now()
	if res != nil {
		ct.workers = res.Workers
	}
	t.mu.Lock()
	t.done = append(t.done, ct)
	t.mu.Unlock()
	return res, err
}

// take returns the trace of the request that just completed (the
// traced client is serial, so exactly one compute finished).
func (t *coldTracer) take() *computeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.done) != 1 {
		t.done = nil
		return nil
	}
	ct := t.done[0]
	t.done = nil
	return ct
}

// attribute splits the candidates' wall clock among them: while k
// candidates run concurrently each is charged 1/k of the time, so the
// charges sum to the time at least one candidate ran.
func attribute(spans []candSpan) []float64 {
	var edges []time.Time
	for _, sp := range spans {
		if !sp.start.IsZero() {
			edges = append(edges, sp.start, sp.end)
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Before(edges[j]) })
	charge := make([]float64, len(spans))
	for e := 0; e+1 < len(edges); e++ {
		lo, hi := edges[e], edges[e+1]
		var active []int
		for i, sp := range spans {
			if !sp.start.IsZero() && !sp.start.After(lo) && !sp.end.Before(hi) {
				active = append(active, i)
			}
		}
		for _, i := range active {
			charge[i] += ms(hi.Sub(lo)) / float64(len(active))
		}
	}
	return charge
}

// candidateLayer maps a candidate to the layer its self time counts in.
func candidateLayer(name string) string {
	switch name {
	case "ilp":
		return "ilpsched"
	case "dnc-ilp":
		return "dnc"
	}
	return "twostage"
}

func traceCold(r *run, c *corpus, keys []serveKey, cal *calibrator) {
	r.initLayerMetrics()
	n := passes(r.seconds/2, coldPass, 1)
	plain := runColdSegment(r, c, keys, n, nil, cal, 0)
	tr := &coldTracer{}
	traced := runColdSegment(r, c, keys, n, tr, cal, 1<<20)
	checkColdOps(r, c, plain)
	checkColdOps(r, c, traced)
	for _, k := range sameBodies(plain, traced) {
		r.violate("%s: traced response body differs from the untraced one", k)
	}

	// Replays of the request path and the journal write, per key.
	store, _, err := persist.Open(filepath.Join(r.subdir("append"), "cache"), persist.Options{})
	if err != nil {
		fatalf("serve-cold trace: %v", err)
	}
	defer store.Close()
	emptyDir := filepath.Join(r.subdir("recover"), "cache")
	recoverMs := timePerCall(1, func() {
		if s, _, err := persist.Open(emptyDir, persist.Options{}); err == nil {
			s.Close()
		}
	})
	l := newLedger()
	nOps := float64(len(traced.ops))
	var sums = map[string]float64{}
	var luSum lp.FactorStats
	var busy, capacity, ilpWins float64
	emptyCache := schedcache.New[*wire.Response](schedcache.Config{})
	ilpCost := map[serveKey]float64{}
	for _, op := range traced.ops {
		ct := op.trace
		if ct == nil || op.rp.err != nil {
			r.violate("%s: no trace record for the request", op.key)
			continue
		}
		resp, err := decodeResponse(op.rp.body)
		if err != nil {
			continue
		}
		L := ms(op.rp.latency)
		l.wall += L
		C := ms(ct.end.Sub(ct.start))
		charge := attribute(ct.cands)
		var union, critical float64
		for i, sp := range ct.cands {
			if sp.start.IsZero() {
				continue
			}
			d := ms(sp.end.Sub(sp.start))
			lu := float64(sp.lu.FactorNanos+sp.lu.SolveNanos) / 1e6
			lpShare := lu * charge[i] / max(d, 1e-9)
			layer := candidateLayer(sp.name)
			l.add(layer, charge[i]-lpShare)
			l.add("lp", lpShare)
			sums[layer+".ms"] += d
			union += charge[i]
			critical = max(critical, d)
			busy += d
			luSum.Add(sp.lu)
			if sp.sched != nil {
				t0 := time.Now()
				sp.sched.Validate()
				sums["validate"] += ms(time.Since(t0))
			}
		}
		capacity += float64(ct.workers) * C
		l.add("portfolio", C-union)
		sums["run"] += C
		sums["critical"] += critical
		if resp.Winner == "ilp" || resp.Winner == "dnc-ilp" {
			ilpWins++
		}
		for _, ci := range resp.Candidates {
			if ci.Name == "ilp" {
				ilpCost[op.key] = ci.Cost
			}
		}

		g := c.dag[op.key.Inst]
		parseMs, keyMs := hitPathReplay(c.body[op.key.Inst], op.key)
		s, err := mbsp.ReadSchedule(strings.NewReader(resp.Schedule), g)
		var fromMs float64
		if err == nil {
			fromMs = timePerCall(3, func() { wire.FromSchedule(g, op.key.arch(g), op.key.costModel(), resp.Winner, s) })
		}
		unstamped := *resp
		unstamped.Cache = nil
		t0 := time.Now()
		payload, _ := json.Marshal(journalEntry{Key: resp.Cache.Key, Response: &unstamped})
		store.Append(payload)
		appendMs := ms(time.Since(t0))
		getMs := timePerCall(1000, func() { emptyCache.Get(resp.Cache.Key) })
		encMs := op.handler - op.rp.elapsedMs
		self := op.rp.elapsedMs - C - parseMs - keyMs - getMs - appendMs - fromMs

		l.add("graph", parseMs+keyMs)
		l.add("schedcache", getMs)
		l.add("persist", appendMs)
		l.add("wire", fromMs+encMs)
		l.add("server", self)
		l.add("http", L-op.handler)
		sums["parse"] += parseMs
		sums["key"] += keyMs
		sums["get"] += getMs
		sums["append"] += appendMs
		sums["encode"] += fromMs + encMs
		sums["server"] += self
		sums["http"] += L - op.handler
		sums["kb"] += float64(len(op.rp.body)) / 1024
	}

	// The ilp candidate's counts, which the portfolio does not expose:
	// one replay per key under the serving configuration.
	var moves, inTree, nodes, iters, warm, cold float64
	var gaps []float64
	for _, k := range keys {
		w, err := c.baseline(k)
		if err != nil {
			r.violate("%s: baseline: %v", k, err)
			continue
		}
		_, st, err := replayILPCandidate(c, k, w)
		if err != nil {
			r.violate("%s: ilp replay: %v", k, err)
			continue
		}
		if st.FinalCost != ilpCost[k] {
			logf("serve-cold: warning: ilp replay of %s costs %g, the candidate returned %g", k, st.FinalCost, ilpCost[k])
		}
		moves += float64(st.LocalMoves)
		nodes += float64(st.ILPNodes)
		iters += float64(st.SimplexIters)
		warm += float64(st.WarmLPs)
		cold += float64(st.ColdLPs)
		if st.UsedILP {
			inTree++
			gaps = append(gaps, mipGap(st))
		}
	}
	nk := float64(len(keys))

	var shed, degraded, hits, misses float64
	for _, st := range traced.stats {
		shed += float64(st.Admission.Shed)
		degraded += float64(st.Requests.Degraded)
		hits += float64(st.Cache.Hits)
		misses += float64(st.Cache.Misses)
	}
	r.set("server.self_ms", sums["server"]/nOps, "ms")
	r.set("server.shed", shed, "count")
	r.set("server.degraded", degraded, "count")
	r.set("graph.parse_ms", sums["parse"]/nOps, "ms")
	r.set("graph.key_ms", sums["key"]/nOps, "ms")
	r.set("schedcache.get_us", 1000*sums["get"]/nOps, "us")
	r.set("schedcache.hit_ratio", hits/max(1, hits+misses), "ratio")
	r.set("wire.encode_ms", sums["encode"]/nOps, "ms")
	r.set("wire.resp_kb", sums["kb"]/nOps, "kB")
	r.set("http.roundtrip_ms", sums["http"]/nOps, "ms")
	r.set("persist.recover_ms", recoverMs, "ms")
	r.set("persist.append_ms", sums["append"]/nOps, "ms")
	r.set("portfolio.run_ms", sums["run"]/nOps, "ms")
	r.set("portfolio.critical_ms", sums["critical"]/nOps, "ms")
	r.set("portfolio.busy_ratio", busy/max(capacity, 1e-9), "ratio")
	r.set("portfolio.ilp_win_ratio", ilpWins/nOps, "ratio")
	r.set("twostage.ms", sums["twostage.ms"]/nOps, "ms")
	r.set("ilpsched.ms", sums["ilpsched.ms"]/nOps, "ms")
	r.set("dnc.ms", sums["dnc.ms"]/nOps, "ms")
	r.set("ilpsched.tree_ratio", inTree/nk, "ratio")
	r.set("refine.moves", moves/nk, "count")
	r.set("mip.nodes", nodes/nk, "count")
	r.set("mip.simplex_iters", iters/nk, "count")
	r.set("mip.warm_lps", warm/nk, "count")
	r.set("mip.cold_lps", cold/nk, "count")
	r.set("mip.gap", median(gaps), "ratio")
	r.set("lp.factor_ms", float64(luSum.FactorNanos)/1e6/nOps, "ms")
	r.set("lp.solve_ms", float64(luSum.SolveNanos)/1e6/nOps, "ms")
	r.set("lp.share", l.self["lp"]/l.wall, "ratio")
	r.set("lp.refactors", float64(luSum.Refactors)/nOps, "count")
	r.set("lp.eta_pivots", float64(luSum.EtaPivots)/nOps, "count")
	r.set("mbsp.validate_ms", sums["validate"]/nOps, "ms")
	r.reportLedger(l, coldTimings(traced, cal).calMean()/coldTimings(plain, cal).calMean()-1)
}

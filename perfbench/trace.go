package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/wire"
)

// layerMetrics is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A workload that does not exercise a layer
// reports 0 for it (a hit runs no solver; a library solve has no server).
var layerMetrics = []struct{ name, unit string }{
	{"server.self_ms", "ms"},
	{"server.shed", "count"},
	{"server.degraded", "count"},
	{"graph.parse_ms", "ms"},
	{"graph.key_ms", "ms"},
	{"schedcache.get_us", "us"},
	{"schedcache.hit_ratio", "ratio"},
	{"wire.encode_ms", "ms"},
	{"wire.resp_kb", "kB"},
	{"http.roundtrip_ms", "ms"},
	{"persist.recover_ms", "ms"},
	{"persist.append_ms", "ms"},
	{"portfolio.run_ms", "ms"},
	{"portfolio.critical_ms", "ms"},
	{"portfolio.busy_ratio", "ratio"},
	{"portfolio.ilp_win_ratio", "ratio"},
	{"twostage.ms", "ms"},
	{"ilpsched.ms", "ms"},
	{"ilpsched.tree_ratio", "ratio"},
	{"refine.moves", "count"},
	{"dnc.ms", "ms"},
	{"mip.nodes", "count"},
	{"mip.simplex_iters", "count"},
	{"mip.warm_lps", "count"},
	{"mip.cold_lps", "count"},
	{"mip.root_ms", "ms"},
	{"mip.tree_ms", "ms"},
	{"mip.gap", "ratio"},
	{"lp.factor_ms", "ms"},
	{"lp.solve_ms", "ms"},
	{"lp.share", "ratio"},
	{"lp.refactors", "count"},
	{"lp.eta_pivots", "count"},
	{"lp.reuse_ratio", "ratio"},
	{"lp.us_per_iter", "us"},
	{"mbsp.validate_ms", "ms"},
	{"trace.wall_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// accountLayers are the layers whose self time the traced segment
// attributes; with the residual they sum to the segment's wall clock.
var accountLayers = []string{
	"server", "graph", "schedcache", "wire", "http", "persist",
	"portfolio", "twostage", "ilpsched", "dnc", "mip", "lp",
}

// ledger is a traced segment's time account (milliseconds).
type ledger struct {
	wall float64
	self map[string]float64
}

func newLedger() *ledger { return &ledger{self: map[string]float64{}} }

func (l *ledger) add(layer string, msv float64) { l.self[layer] += msv }

// initLayerMetrics sets every per-layer metric to 0; workloads overwrite
// the ones their traced segment measures.
func (r *run) initLayerMetrics() {
	for _, m := range layerMetrics {
		r.set(m.name, 0, m.unit)
	}
	for _, l := range accountLayers {
		r.set("self."+l, 0, "ratio")
	}
	r.set("self.residual", 0, "ratio")
}

// reportLedger sets the self-time shares, the residual and the tracing
// overhead, and prints the per-layer table to standard error.
func (r *run) reportLedger(l *ledger, overhead float64) {
	var attributed float64
	for _, name := range accountLayers {
		attributed += l.self[name]
		r.set("self."+name, l.self[name]/l.wall, "ratio")
	}
	residual := l.wall - attributed
	r.set("self.residual", residual/l.wall, "ratio")
	r.set("trace.wall_ms", l.wall, "ms")
	r.set("trace.overhead", overhead, "ratio")

	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time, %s traced segment (wall %.1f ms, tracing overhead %+.1f%%)\n",
		r.workload, l.wall, 100*overhead)
	names := append([]string(nil), accountLayers...)
	sort.SliceStable(names, func(i, j int) bool { return l.self[names[i]] > l.self[names[j]] })
	for _, name := range names {
		if l.self[name] != 0 {
			fmt.Fprintf(&b, "  %-12s %12.2f ms %6.1f%%\n", name, l.self[name], 100*l.self[name]/l.wall)
		}
	}
	fmt.Fprintf(&b, "  %-12s %12.2f ms %6.1f%%\n", "residual", residual, 100*residual/l.wall)
	fmt.Fprintf(&b, "  %-12s %12.2f ms %6.1f%%\n", "total", l.wall, 100.0)
	fmt.Fprint(os.Stderr, b.String())
}

// timePerCall is the median over five batches of f's time per call.
func timePerCall(calls int, f func()) float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		batches = append(batches, ms(time.Since(t0))/float64(calls))
	}
	return median(batches)
}

// hitPathReplay times the request-path steps the server runs before it
// reaches the cache, on the instance's body: parsing, and the cache key
// (fingerprint, digest and the key string).
func hitPathReplay(body []byte, k serveKey) (parseMs, keyMs float64) {
	parseMs = timePerCall(20, func() { graph.Read(bytes.NewReader(body)) })
	g, _ := graph.Read(bytes.NewReader(body))
	a := k.arch(g)
	keyMs = timePerCall(20, func() {
		_ = keyText(g.Fingerprint(), g.ExactDigest(), a, k.Model)
	})
	return parseMs, keyMs
}

// keyText mirrors the server's cache-key formatting.
func keyText(fp, digest uint64, a mbsp.Arch, model string) string {
	return fmt.Sprintf("%s/%s/p%d,r%g,g%g,L%g/%s/seed%d,nodes%d,rows%d",
		fmt.Sprintf("%016x", fp), fmt.Sprintf("%016x", digest), a.P, a.R, a.G, a.L,
		model, 1, serveNodeLimit, serveMaxRows)
}

// journalEntry mirrors the server's journal record.
type journalEntry struct {
	Key      string         `json:"key"`
	Response *wire.Response `json:"response"`
}

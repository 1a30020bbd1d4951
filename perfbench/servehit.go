package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"mbsp/internal/persist"
	"mbsp/internal/schedcache"
	"mbsp/internal/wire"
)

// hitTail is serve-hit's tail percentile. Two clients complete tens of
// thousands of hits per run, hundreds of them beyond p99; the highest
// percentile with ten beyond (logged too) is the 11th-slowest hit, which
// times garbage-collector pauses and host preemption, not the request
// path.
const hitTail = 0.99

const (
	hitClients = 2
	// hitWindows splits the measured load; the calibration kernel runs
	// between windows, with the load paused.
	hitWindows = 10
)

// hitSegment is a closed-loop load of cache hits.
type hitSegment struct {
	lat, elapsed []float64 // per request, ms: client latency, X-Mbsp-Elapsed-Ms
	ids          []string
	keyIdx       []int
	bytes        []int
	wall         time.Duration
	failed       int
	mismatched   []string
}

// runHitSegment runs hitClients closed-loop clients for `budget`; each
// POSTs keys drawn from its own seeded stream and checks every body
// against the key's cold body with the cache stamp removed.
func runHitSegment(r *run, ls *liveServer, c *corpus, keys []serveKey, cold map[serveKey][]byte, budget time.Duration, stream int64) hitSegment {
	var mu sync.Mutex
	var seg hitSegment
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for cl := 0; cl < hitClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*1_000_003 + stream*101 + int64(cl)))
			var mine hitSegment
			for time.Now().Before(deadline) {
				i := rng.Intn(len(keys))
				k := keys[i]
				rp := ls.schedule(k, c.body[k.Inst])
				if rp.err != nil {
					mine.failed++
					if len(mine.mismatched) < 5 {
						mine.mismatched = append(mine.mismatched, k.String()+": "+rp.err.Error())
					}
					continue
				}
				if !bytes.Equal(stripStamp(rp.body), cold[k]) ||
					!bytes.Contains(rp.body[len(cold[k]):], []byte(`"provenance": "hit"`)) {
					mine.failed++
					if len(mine.mismatched) < 5 {
						mine.mismatched = append(mine.mismatched, k.String()+": hit body differs from the cold body")
					}
					continue
				}
				mine.lat = append(mine.lat, ms(rp.latency))
				mine.elapsed = append(mine.elapsed, rp.elapsedMs)
				mine.ids = append(mine.ids, rp.id)
				mine.keyIdx = append(mine.keyIdx, i)
				mine.bytes = append(mine.bytes, len(rp.body))
			}
			mu.Lock()
			seg.merge(mine)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	seg.wall = time.Since(start)
	return seg
}

// runHitLoad runs the closed-loop load for budget in hitWindows windows,
// sampling the calibration kernel before each window and after the last
// (the load paused), and returns the requests with their calibrated
// timings. A non-nil between runs after every window, also with the load
// paused.
func runHitLoad(r *run, ls *liveServer, c *corpus, keys []serveKey, cold map[serveKey][]byte, budget time.Duration, stream int64, cal *calibrator, between func()) (hitSegment, timings) {
	type window struct {
		from, to int
		mid      time.Time
		wall     float64
	}
	var seg hitSegment
	var wins []window
	for w := 0; w < hitWindows; w++ {
		cal.sample()
		start := time.Now()
		ws := runHitSegment(r, ls, c, keys, cold, budget/hitWindows, stream*hitWindows+int64(w))
		wins = append(wins, window{len(seg.lat), len(seg.lat) + len(ws.lat), start.Add(ws.wall / 2), ms(ws.wall)})
		seg.merge(ws)
		if between != nil {
			between()
		}
	}
	cal.sample()
	var tm timings
	for _, w := range wins {
		sc := cal.scale(w.mid)
		for i := w.from; i < w.to; i++ {
			tm.lat = append(tm.lat, seg.lat[i])
			tm.scale = append(tm.scale, sc)
		}
		tm.busy += w.wall
		tm.calBusy += w.wall * sc
	}
	return seg, tm
}

func (s *hitSegment) merge(o hitSegment) {
	s.lat = append(s.lat, o.lat...)
	s.elapsed = append(s.elapsed, o.elapsed...)
	s.ids = append(s.ids, o.ids...)
	s.keyIdx = append(s.keyIdx, o.keyIdx...)
	s.bytes = append(s.bytes, o.bytes...)
	s.failed += o.failed
	s.mismatched = append(s.mismatched, o.mismatched...)
}

func (r *run) checkHitSegment(seg hitSegment) {
	r.attempted += len(seg.lat) + seg.failed
	r.failed += seg.failed
	for _, m := range seg.mismatched {
		r.violate("%s", m)
	}
}

// recoverReplay times what a boot spends in durable-cache recovery:
// opening the store and decoding every recovered record.
func recoverReplay(dir string) float64 {
	return timePerCall(1, func() {
		s, rec, err := persist.Open(dir, persist.Options{})
		if err != nil {
			return
		}
		for _, p := range append(rec.Snapshot, rec.Journal...) {
			var e journalEntry
			json.Unmarshal(p, &e)
		}
		s.Close()
	})
}

// populateHitCache is serve-hit's first server, run as a process of its
// own so that the measured process only boots and serves: it computes
// every hit key once on a durable cache in dir/cache, drains it (which
// snapshots the cache) and writes the cold bodies to dir/cold.json.
func populateHitCache(dir string) error {
	keys := hitKeys()
	c, err := newCorpus(keys)
	if err != nil {
		return err
	}
	ls, _, err := bootServer(serveConfig(filepath.Join(dir, "cache"), nil))
	if err != nil {
		return err
	}
	bodies := map[string][]byte{}
	for _, k := range keys {
		rp := ls.schedule(k, c.body[k.Inst])
		if rp.err != nil {
			ls.stop()
			return fmt.Errorf("%s: %w", k, rp.err)
		}
		bodies[k.String()] = rp.body
	}
	ls.stop()
	b, err := json.Marshal(bodies)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cold.json"), b, 0o644)
}

// hitSetup builds the request corpus and boots a server that recovers the
// populated cache: serve-hit's set-up, returned with its duration.
func hitSetup(r *run, keys []serveKey, cacheDir string) (*corpus, *liveServer, float64) {
	t0 := time.Now()
	c, err := newCorpus(keys)
	if err != nil {
		fatalf("serve-hit set-up: %v", err)
	}
	ls, _, err := bootServer(serveConfig(cacheDir, nil))
	if err != nil {
		fatalf("serve-hit set-up: %v", err)
	}
	d := time.Since(t0).Seconds()
	if got := ls.srv.Stats().Persistence.RecoveredRecords; got != int64(len(keys)) {
		r.violate("boot recovered %d cache entries, want %d", got, len(keys))
	}
	return c, ls, d
}

func serveHit(r *run) {
	keys := hitKeys()
	dir := r.subdir("hit")
	cacheDir := filepath.Join(dir, "cache")
	exe, err := os.Executable()
	if err != nil {
		fatalf("serve-hit set-up: %v", err)
	}
	populate := exec.Command(exe, "-populate", dir, "-dir", r.dir)
	populate.Stdout, populate.Stderr = os.Stderr, os.Stderr
	if err := populate.Run(); err != nil {
		r.attempted++
		r.failed++
		r.violate("populating the durable cache: %v", err)
		return
	}
	b, err := os.ReadFile(filepath.Join(dir, "cold.json"))
	if err != nil {
		fatalf("serve-hit set-up: %v", err)
	}
	var bodies map[string][]byte
	if err := json.Unmarshal(b, &bodies); err != nil {
		fatalf("serve-hit set-up: %v", err)
	}
	cold := map[serveKey][]byte{}
	for _, k := range keys {
		cold[k] = stripStamp(bodies[k.String()])
	}

	// Set-up is repeated before and after the measured load, so its median
	// spans the run; each repetition follows a calibration sample, and the
	// last boot before the load serves it.
	cal := &calibrator{threads: hitClients}
	var setups, setupScale []float64
	var setupAt []time.Time
	var recoverMs float64
	var c *corpus
	var ls *liveServer
	setup := func() {
		cal.sample()
		setupAt = append(setupAt, time.Now())
		var d float64
		c, ls, d = hitSetup(r, keys, cacheDir)
		setups = append(setups, d)
	}
	for i := 0; i < setupReps/2; i++ {
		if ls != nil {
			ls.stop()
		}
		if r.traced && i == setupReps/2-1 {
			recoverMs = recoverReplay(cacheDir)
		}
		setup()
	}

	if r.traced {
		traceHit(r, ls, c, keys, cold, recoverMs, cal)
		ls.stop()
		return
	}
	seg, tm := runHitLoad(r, ls, c, keys, cold, r.seconds, 0, cal, nil)
	for len(setups) < setupReps {
		ls.stop()
		setup()
	}
	ls.stop()
	cal.sample()
	for _, t := range setupAt {
		setupScale = append(setupScale, cal.scale(t))
	}
	r.checkHitSegment(seg)
	cal.log(r.workload)
	r.reportLatency(tm, hitTail)
	r.reportOutcome()
	r.reportSetup(setups, setupScale)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	var ratios, gaps []float64
	for _, k := range keys {
		resp, err := decodeResponse(bodies[k.String()])
		if err != nil || resp.Certificate == nil {
			r.violate("%s: undecodable cold response", k)
			continue
		}
		base, err := c.baseline(k)
		if err != nil {
			r.violate("%s: baseline: %v", k, err)
			continue
		}
		ratios = append(ratios, resp.Cost/base.Cost(k.costModel()))
		gaps = append(gaps, resp.Certificate.Gap)
	}
	r.set("cost_ratio", geomean(ratios), "ratio")
	r.set("gap_median", median(gaps), "ratio")
}

// traceHit is the traced serve-hit run: an untraced and a traced segment
// of the same load, then the split of each traced hit's latency into the
// request-path layers. The handler time is measured (handlerTimer), and
// so is its part before encoding (X-Mbsp-Elapsed-Ms); a hit reaches no
// other hook (Compute runs only on a miss), so the steps before the cache
// are replayed on the same bodies, between the traced segment's windows
// so that they run on the same host state as the load:
//
//	graph       graph.Read of the body; fingerprint, digest and key string
//	schedcache  a Get on a cache holding the rotation
//	server      the handler's time up to encoding minus those replays
//	wire        the handler's time after X-Mbsp-Elapsed-Ms: encoding and
//	            writing the response
//	http        client latency minus handler time: net/http transport and
//	            the client
func traceHit(r *run, ls *liveServer, c *corpus, keys []serveKey, cold map[serveKey][]byte, recoverMs float64, cal *calibrator) {
	r.initLayerMetrics()
	cache := schedcache.New[*wire.Response](schedcache.Config{})
	for _, k := range keys {
		cache.Add(keyOf(c, k), &wire.Response{})
	}
	parse := make([]float64, len(keys))
	key := make([]float64, len(keys))
	get := make([]float64, len(keys))
	replay := func() {
		for i, k := range keys {
			p, kk := hitPathReplay(c.body[k.Inst], k)
			ck := keyOf(c, k)
			parse[i] += p / hitWindows
			key[i] += kk / hitWindows
			get[i] += timePerCall(200, func() { cache.Get(ck) }) / hitWindows
		}
	}

	plain, plainTm := runHitLoad(r, ls, c, keys, cold, r.seconds/2, 0, cal, nil)
	ls.timer.on.Store(true)
	traced, tracedTm := runHitLoad(r, ls, c, keys, cold, r.seconds/2, 1, cal, replay)
	ls.timer.on.Store(false)
	r.checkHitSegment(plain)
	r.checkHitSegment(traced)

	l := newLedger()
	var self, encode, transport, kb float64
	var parseSum, keySum, getSum float64
	for j, i := range traced.keyIdx {
		handler := ls.timer.handlerMs(traced.ids[j])
		s := traced.elapsed[j] - parse[i] - key[i] - get[i]
		l.wall += traced.lat[j]
		l.add("graph", parse[i]+key[i])
		l.add("schedcache", get[i])
		l.add("server", s)
		l.add("wire", handler-traced.elapsed[j])
		l.add("http", traced.lat[j]-handler)
		self += s
		encode += handler - traced.elapsed[j]
		transport += traced.lat[j] - handler
		parseSum += parse[i]
		keySum += key[i]
		getSum += get[i]
		kb += float64(traced.bytes[j]) / 1024
	}
	n := float64(len(traced.lat))
	st := ls.srv.Stats()
	r.set("server.self_ms", self/n, "ms")
	r.set("server.shed", float64(st.Admission.Shed), "count")
	r.set("server.degraded", float64(st.Requests.Degraded), "count")
	r.set("graph.parse_ms", parseSum/n, "ms")
	r.set("graph.key_ms", keySum/n, "ms")
	r.set("schedcache.get_us", 1000*getSum/n, "us")
	r.set("schedcache.hit_ratio", float64(st.Cache.Hits)/max(1, float64(st.Cache.Hits+st.Cache.Misses)), "ratio")
	r.set("wire.encode_ms", encode/n, "ms")
	r.set("wire.resp_kb", kb/n, "kB")
	r.set("http.roundtrip_ms", transport/n, "ms")
	r.set("persist.recover_ms", recoverMs, "ms")
	r.reportLedger(l, tracedTm.calMean()/plainTm.calMean()-1)
}

// keyOf is the server's cache key for k.
func keyOf(c *corpus, k serveKey) string {
	g := c.dag[k.Inst]
	return keyText(g.Fingerprint(), g.ExactDigest(), k.arch(g), k.Model)
}

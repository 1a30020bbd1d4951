package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/portfolio"
	"mbsp/internal/wire"
	"mbsp/internal/workloads"
)

// testConfig is the deterministic fast configuration the suite uses:
// a small node budget keeps cold runs quick while remaining node-limited
// (and therefore cacheable). MaxModelRows pins the dense-era cap: the
// sparse LU core admits the suite's spmv_N6 P=2 model (3215 rows) into
// tree search, which costs ~10s of CPU per cold run — fine for a real
// server, far too slow for a suite full of cold runs.
func testConfig() Config {
	return Config{
		CacheEntries: 64,
		MaxInflight:  2,
		Seed:         1,
		ILPNodeLimit: 200,
		MaxModelRows: 3000,
	}
}

// mustNew constructs a Server, failing the test on the (persistence-
// only) error path.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

func dagBody(t *testing.T, name string) *bytes.Buffer {
	t.Helper()
	inst, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, inst.DAG); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// tryPost is the goroutine-safe request helper (no testing.T calls).
func tryPost(ts *httptest.Server, query string, body *bytes.Buffer) (*http.Response, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule?"+query, "text/plain", bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

func post(t *testing.T, ts *httptest.Server, query string, body *bytes.Buffer) (*http.Response, []byte) {
	t.Helper()
	resp, data, err := tryPost(ts, query, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decode(t *testing.T, data []byte) *wire.Response {
	t.Helper()
	var r wire.Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, data)
	}
	return &r
}

// stripCache re-marshals a response without its per-request cache
// stamp, for whole-body byte comparisons.
func stripCache(t *testing.T, data []byte) []byte {
	t.Helper()
	r := decode(t, data)
	r.Cache = nil
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitForGoroutines polls until the goroutine count drops back to (near)
// the baseline — the repo's goroutine-accounting pattern.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCacheHitByteIdentical: the second identical request is a cache hit
// whose schedule and certificate — in fact the whole body minus the
// provenance stamp — are byte-identical to the cold run, and to a cold
// run on a completely fresh server (the determinism leg of the cache
// contract).
func TestCacheHitByteIdentical(t *testing.T) {
	srv := mustNew(t, testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const query = "p=2&rfactor=3&g=1&l=10"
	resp1, body1 := post(t, ts, query, dagBody(t, "spmv_N6"))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp1.StatusCode, body1)
	}
	r1 := decode(t, body1)
	if r1.Cache == nil || r1.Cache.Hit || r1.Cache.Provenance != "cold" {
		t.Fatalf("cold run provenance: %+v", r1.Cache)
	}
	if r1.Certificate == nil || r1.Certificate.Rung != "portfolio" {
		t.Fatalf("cold run certificate: %+v", r1.Certificate)
	}
	if r1.Schedule == "" {
		t.Fatal("cold run has no schedule text")
	}

	resp2, body2 := post(t, ts, query, dagBody(t, "spmv_N6"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp2.StatusCode, body2)
	}
	r2 := decode(t, body2)
	if r2.Cache == nil || !r2.Cache.Hit || r2.Cache.Provenance != "hit" {
		t.Fatalf("second run should be a cache hit: %+v", r2.Cache)
	}
	if r2.Schedule != r1.Schedule {
		t.Fatalf("cache hit schedule differs from cold run:\n%s\nvs\n%s", r2.Schedule, r1.Schedule)
	}
	if !reflect.DeepEqual(r2.Certificate, r1.Certificate) {
		t.Fatalf("cache hit certificate differs:\n%+v\nvs\n%+v", r2.Certificate, r1.Certificate)
	}
	if !bytes.Equal(stripCache(t, body2), stripCache(t, body1)) {
		t.Fatal("cache hit body differs from cold run beyond the provenance stamp")
	}

	// Fresh server, same request: the cold run must reproduce the same
	// bytes, so a hit is indistinguishable from recomputation.
	srv2 := mustNew(t, testConfig())
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp3, body3 := post(t, ts2, query, dagBody(t, "spmv_N6"))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fresh server: %d %s", resp3.StatusCode, body3)
	}
	if !bytes.Equal(stripCache(t, body3), stripCache(t, body1)) {
		t.Fatal("fresh deterministic run differs from the cached response")
	}

	st := srv.Stats()
	if st.Cache.Hits < 1 || st.Cache.Misses < 1 || st.Cache.Runs != 1 {
		t.Fatalf("unexpected cache stats %+v", st.Cache)
	}
}

// blockingCompute returns a Compute stub that signals each invocation,
// blocks until released (or ctx expires), then delegates to the real
// anytime portfolio with the server's deterministic options.
func blockingCompute(invocations *atomic.Int32, started chan<- struct{}, release <-chan struct{}) Compute {
	return func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error) {
		invocations.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return portfolio.RunAnytime(ctx, g, arch, opts)
	}
}

// TestSingleFlightCollapsesConcurrentRequests: N concurrent identical
// requests run the portfolio once; every response carries the same
// schedule bytes.
func TestSingleFlightCollapsesConcurrentRequests(t *testing.T) {
	var invocations atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Compute = blockingCompute(&invocations, started, release)
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	const query = "p=2&rfactor=3"
	body := dagBody(t, "spmv_N6")
	bodies := make([][]byte, n)
	status := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data, err := tryPost(ts, query, body)
			if err != nil {
				errs[i] = err
				return
			}
			status[i], bodies[i] = resp.StatusCode, data
		}(i)
	}

	<-started // the leader is inside the (stub) portfolio
	// Wait until the other n-1 requests joined the flight, then let the
	// single computation finish.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Cache.Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers did not coalesce: %+v", srv.Stats().Cache)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Fatalf("portfolio ran %d times for %d identical requests", got, n)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := stripCache(t, bodies[0])
	for i := 0; i < n; i++ {
		if status[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status[i], bodies[i])
		}
		if !bytes.Equal(stripCache(t, bodies[i]), want) {
			t.Fatalf("request %d got different bytes", i)
		}
		prov := decode(t, bodies[i]).Cache.Provenance
		if prov != "cold" && prov != "coalesced" {
			t.Fatalf("request %d provenance %q", i, prov)
		}
	}
	if st := srv.Stats(); st.Cache.Runs != 1 || st.Cache.Coalesced != n-1 {
		t.Fatalf("unexpected flight stats %+v", st.Cache)
	}
}

// TestBurstAtCompletionRunsOnce fires bursts of identical requests as
// the leader's portfolio run returns: each burst request posts again and
// again until it is served a hit, so lookups keep landing on both sides
// of the leader's journal write and completion. Every answer must carry
// the leader's bytes, and per key the portfolio runs once and (with a
// durable cache) the journal gains one record.
func TestBurstAtCompletionRunsOnce(t *testing.T) {
	for _, durable := range []bool{true, false} {
		name := map[bool]string{true: "durable", false: "memory"}[durable]
		t.Run(name, func(t *testing.T) { burstAtCompletion(t, durable) })
	}
}

func burstAtCompletion(t *testing.T, durable bool) {
	const (
		rounds   = 12
		burst    = 16
		maxPosts = 1000 // per burst request; a hit ends its loop
	)
	// A round's leader takes the channel sent on gates, closes it as its
	// portfolio run returns and sleeps for lead before it returns, so
	// the first burst requests reach their cache lookup while the leader
	// builds, journals and completes its answer. Leads of 0.25–3 ms
	// across the rounds spread those lookups over the completion. Any
	// other run is not gated.
	gates := make(chan chan struct{}, 1)
	var lead atomic.Int64
	var invocations atomic.Int32
	cfg := testConfig()
	if durable {
		cfg.CachePath = t.TempDir()
	}
	cfg.Compute = func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error) {
		invocations.Add(1)
		res, err := portfolio.RunAnytime(ctx, g, arch, opts)
		select {
		case completing := <-gates:
			close(completing)
			time.Sleep(time.Duration(lead.Load()))
		default:
		}
		return res, err
	}
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := dagBody(t, "k-means")

	for round := 1; round <= rounds; round++ {
		query := fmt.Sprintf("p=%d&rfactor=%d&deadline_ms=60000", 2+round%3, 2+round/3)
		bodies := make([][][]byte, burst+1)
		errs := make([]error, burst+1)
		// fire posts until it is served a hit (the leader posts once).
		fire := func(i int) {
			for n := 0; n < maxPosts; n++ {
				resp, data, err := tryPost(ts, query, body)
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				}
				if err != nil {
					errs[i] = err
					return
				}
				bodies[i] = append(bodies[i], data)
				var r wire.Response
				if err := json.Unmarshal(data, &r); err != nil {
					errs[i] = err
					return
				}
				if i == 0 || r.Cache.Hit {
					return
				}
			}
			errs[i] = fmt.Errorf("no hit after %d posts", maxPosts)
		}
		lead.Store(int64(time.Duration(round) * 250 * time.Microsecond))
		completing := make(chan struct{})
		gates <- completing
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); fire(0) }()
		<-completing // the leader's run is returning: fire the burst now
		for i := 1; i <= burst; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); fire(i) }(i)
		}
		wg.Wait()

		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d request %d: %v", round, i, err)
			}
		}
		want := stripCache(t, bodies[0][0])
		for i := 1; i <= burst; i++ {
			for _, b := range bodies[i] {
				if !bytes.Equal(stripCache(t, b), want) {
					t.Fatalf("round %d request %d got different bytes", round, i)
				}
			}
		}
		st := srv.Stats()
		if got := invocations.Load(); got != int32(round) || st.Cache.Runs != int64(round) {
			t.Fatalf("round %d: portfolio ran %d times, %d runs counted; want %d", round, got, st.Cache.Runs, round)
		}
		if durable && st.Persistence.JournalRecords != int64(round) {
			t.Fatalf("round %d: %d journal records, want %d", round, st.Persistence.JournalRecords, round)
		}
	}
}

// TestAdmissionControlSheds: with the in-flight cap saturated, a request
// for a new key is shed with 429 + Retry-After instead of queueing;
// cache hits keep being served.
func TestAdmissionControlSheds(t *testing.T) {
	var invocations atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.Compute = blockingCompute(&invocations, started, release)
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Saturate the single slot.
	body := dagBody(t, "spmv_N6")
	firstDone := make(chan []byte, 1)
	firstErr := make(chan error, 1)
	go func() {
		_, data, err := tryPost(ts, "p=2&rfactor=3", body)
		if err != nil {
			firstErr <- err
			return
		}
		firstDone <- data
	}()
	<-started

	// A different key cannot be admitted: 429, Retry-After, shed counter.
	resp, data := post(t, ts, "p=3&rfactor=3", dagBody(t, "spmv_N6"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 at capacity, got %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := srv.Stats(); st.Admission.Shed != 1 || st.Admission.Inflight != 1 {
		t.Fatalf("unexpected admission stats %+v", st.Admission)
	}

	// Release the slot; the saturating request completes and its key now
	// serves from cache even though the cap is 1.
	close(release)
	var first *wire.Response
	select {
	case err := <-firstErr:
		t.Fatalf("saturating request: %v", err)
	case data := <-firstDone:
		first = decode(t, data)
	}
	if first.Cache == nil || first.Cache.Provenance != "cold" {
		t.Fatalf("saturating request: %+v", first.Cache)
	}
	resp2, data2 := post(t, ts, "p=2&rfactor=3", dagBody(t, "spmv_N6"))
	if resp2.StatusCode != http.StatusOK || !decode(t, data2).Cache.Hit {
		t.Fatalf("cache hit after release: %d %s", resp2.StatusCode, data2)
	}
	// The shed key was never cached and can now be admitted.
	resp3, data3 := post(t, ts, "p=3&rfactor=3", dagBody(t, "spmv_N6"))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed: %d %s", resp3.StatusCode, data3)
	}
	if got := invocations.Load(); got != 2 {
		t.Fatalf("want 2 portfolio runs (shed request must not compute), got %d", got)
	}
}

// TestDeadlineDegradesNever500: a per-request deadline that fires before
// the computation finishes yields a 200 anytime response on a degraded
// rung — never a 500 — and the degraded answer is not cached.
func TestDeadlineDegradesNever500(t *testing.T) {
	var invocations atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Compute = blockingCompute(&invocations, started, release)
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "p=2&rfactor=3&deadline_ms=40", dagBody(t, "spmv_N6"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline must degrade, not fail: %d %s", resp.StatusCode, data)
	}
	r := decode(t, data)
	if r.Cache == nil || r.Cache.Provenance != "deadline-degraded" {
		t.Fatalf("provenance %+v", r.Cache)
	}
	if r.Certificate == nil || r.Certificate.Rung == "portfolio" || !r.Certificate.FallbackUsed {
		t.Fatalf("want a degraded-rung certificate, got %+v", r.Certificate)
	}
	if r.Schedule == "" {
		t.Fatal("degraded response carries no schedule")
	}
	if st := srv.Stats(); st.Requests.Degraded != 1 {
		t.Fatalf("degraded counter: %+v", st.Requests)
	}

	// The degraded answer must not poison the cache; once the background
	// computation finishes, the full-fidelity result is served.
	close(release)
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp2, data2 := post(t, ts, "p=2&rfactor=3", dagBody(t, "spmv_N6"))
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("follow-up: %d %s", resp2.StatusCode, data2)
		}
		r2 := decode(t, data2)
		if r2.Cache.Hit {
			if r2.Certificate.Rung != "portfolio" {
				t.Fatalf("cached rung %q — a degraded result was cached", r2.Certificate.Rung)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background computation never populated the cache")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestNonCacheableResultNotStored: a computed result that is not the
// full-fidelity answer (here: an interrupted certificate) is served to
// its request but neither cached nor journaled, so an identical second
// request computes again.
func TestNonCacheableResultNotStored(t *testing.T) {
	var invocations atomic.Int32
	cfg := persistConfig(t.TempDir())
	cfg.Compute = func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error) {
		invocations.Add(1)
		res, err := portfolio.RunAnytime(ctx, g, arch, opts)
		if err == nil {
			res.Certificate.Interrupted = true
		}
		return res, err
	}
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 1; i <= 2; i++ {
		resp, data := post(t, ts, "p=2&rfactor=3", dagBody(t, "k-means"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, data)
		}
		r := decode(t, data)
		if r.Cache == nil || r.Cache.Hit || r.Cache.Provenance != "cold" {
			t.Fatalf("request %d: provenance %+v, want a cold miss", i, r.Cache)
		}
		if r.Certificate == nil || !r.Certificate.Interrupted || r.Schedule == "" {
			t.Fatalf("request %d: want the interrupted result with its schedule, got %+v", i, r.Certificate)
		}
		st := srv.Stats()
		if st.Cache.Entries != 0 || st.Persistence.JournalRecords != 0 {
			t.Fatalf("request %d: a non-cacheable result was stored: cache %+v, persistence %+v",
				i, st.Cache, st.Persistence)
		}
		if got := invocations.Load(); got != int32(i) {
			t.Fatalf("after request %d Compute ran %d times", i, got)
		}
	}
}

// reverseEdgeLines returns a DAG body with its edge lines in reverse
// order: the same edge set, so the same cache key.
func reverseEdgeLines(body *bytes.Buffer) *bytes.Buffer {
	lines := strings.SplitAfter(body.String(), "\n")
	var edges []int
	for i, l := range lines {
		if strings.HasPrefix(l, "edge ") {
			edges = append(edges, i)
		}
	}
	out := append([]string(nil), lines...)
	for i, j := range edges {
		out[j] = lines[edges[len(edges)-1-i]]
	}
	return bytes.NewBufferString(strings.Join(out, ""))
}

// TestReorderedBodyHitEqualsRecompute: a body whose edge lines come in
// another order shares its cache key with the original, so the hit it
// is served must equal a fresh server's cold answer for that very body.
func TestReorderedBodyHitEqualsRecompute(t *testing.T) {
	const query = "p=2&rfactor=3"
	srv := mustNew(t, testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, data := post(t, ts, query, dagBody(t, "k-means")); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp.StatusCode, data)
	}
	_, hitBody := post(t, ts, query, reverseEdgeLines(dagBody(t, "k-means")))
	if r := decode(t, hitBody); r.Cache == nil || !r.Cache.Hit {
		t.Fatalf("reordered body missed the cache: %+v", r.Cache)
	}

	fresh := mustNew(t, testConfig())
	defer fresh.Close()
	ts2 := httptest.NewServer(fresh.Handler())
	defer ts2.Close()
	_, coldBody := post(t, ts2, query, reverseEdgeLines(dagBody(t, "k-means")))
	if !bytes.Equal(stripCache(t, hitBody), stripCache(t, coldBody)) {
		t.Fatal("the hit served to a reordered body differs from a recompute of that body")
	}
}

// badRequests are malformed DAGs and parameters with the typed 4xx
// status each must map to. FuzzParseRequest seeds its corpus with their
// queries.
var badRequests = []struct {
	name   string
	query  string
	body   string
	status int
}{
	{"empty-body", "p=2", "", http.StatusBadRequest},
	{"malformed", "p=2", "dag x 1 0\nnode zero 1 1\n", http.StatusBadRequest},
	{"self-loop", "p=2", "dag x 1 1\nnode 0 1 1\nedge 0 0\n", http.StatusBadRequest},
	{"cyclic", "p=2", "dag x 2 2\nnode 0 1 1\nnode 1 1 1\nedge 0 1\nedge 1 0\n", http.StatusBadRequest},
	{"bad-p", "p=zero", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"zero-p", "p=0", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"huge-p", "p=100000&deadline_ms=500", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"bad-model", "p=2&model=psync", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"bad-deadline", "p=2&deadline_ms=-5", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"trailing-p", "p=4x", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"fractional-p", "p=2.7", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"nan-g", "p=2&g=NaN", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"nan-rfactor", "p=2&rfactor=NaN", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"inf-rfactor", "p=2&rfactor=Inf", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"nan-r", "p=2&r=NaN", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"negative-r", "p=2&r=-5", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"inf-l", "p=2&l=Inf", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"trailing-g", "p=2&g=1x", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"nan-deadline", "p=2&deadline_ms=NaN", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"inf-deadline", "p=2&deadline_ms=Inf", "dag x 1 0\nnode 0 1 1\n", http.StatusBadRequest},
	{"oversized", "p=2", "# " + strings.Repeat("x", 1<<17) + "\n", http.StatusRequestEntityTooLarge},
}

// TestBadRequests: malformed DAGs and parameters map to 4xx typed
// responses, never a panic or a 500.
func TestBadRequests(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRequestBytes = 1 << 16
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range badRequests {
		t.Run(tc.name, func(t *testing.T) {
			buf := bytes.NewBufferString(tc.body)
			resp, data := post(t, ts, tc.query, buf)
			if resp.StatusCode != tc.status {
				t.Fatalf("want %d, got %d: %s", tc.status, resp.StatusCode, data)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Fatalf("error payload not JSON: %s", data)
			}
		})
	}

	// An instance that admits no valid schedule at all (cache smaller
	// than a value) is a 422, not a 500.
	resp, data := post(t, ts, "p=2&r=0.5", dagBody(t, "spmv_N6"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unschedulable instance: want 422, got %d: %s", resp.StatusCode, data)
	}
}

// TestHealthAndStats: the liveness and stats endpoints respond, and the
// stats shape includes the counter groups the smoke script greps for.
func TestHealthAndStats(t *testing.T) {
	srv := mustNew(t, testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var st StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	resp.Body.Close()
	if st.Admission.MaxInflight != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNoGoroutineLeaksAcrossShutdown: a full lifecycle — requests
// served, a computation still in flight — then shutdown: Close cancels
// the background run, and no goroutine outlives the server.
func TestNoGoroutineLeaksAcrossShutdown(t *testing.T) {
	base := runtime.NumGoroutine()

	var invocations atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed: only ctx cancellation frees the stub
	cfg := testConfig()
	cfg.Compute = blockingCompute(&invocations, started, release)
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())

	// One request that completes via its deadline while its computation
	// stays in flight.
	resp, data := post(t, ts, "p=2&rfactor=3&deadline_ms=30", dagBody(t, "spmv_N6"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request: %d %s", resp.StatusCode, data)
	}
	<-started
	if st := srv.Stats(); st.Admission.Inflight != 1 {
		t.Fatalf("expected one in-flight computation, got %+v", st.Admission)
	}

	// Drain handlers, then cancel and join the background computation.
	ts.Close()
	srv.Close()
	if st := srv.Stats(); st.Admission.Inflight != 0 {
		t.Fatalf("in-flight computation survived Close: %+v", st.Admission)
	}
	waitForGoroutines(t, base)
}

// TestDifferentKeysDifferentEntries: the cache key separates
// architectures, models and DAG content — no false sharing.
func TestDifferentKeysDifferentEntries(t *testing.T) {
	srv := mustNew(t, testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{
		"p=2&rfactor=3",
		"p=3&rfactor=3",
		"p=2&rfactor=3&model=async",
		"p=2&rfactor=3&g=2",
	}
	for _, q := range queries {
		resp, data := post(t, ts, q, dagBody(t, "spmv_N6"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", q, resp.StatusCode, data)
		}
		if decode(t, data).Cache.Hit {
			t.Fatalf("%s: spurious cache hit across keys", q)
		}
	}
	// A different DAG with the same parameters is its own entry.
	resp, data := post(t, ts, "p=2&rfactor=3", dagBody(t, "spmv_N7"))
	if resp.StatusCode != http.StatusOK || decode(t, data).Cache.Hit {
		t.Fatalf("different DAG hit the cache: %d %s", resp.StatusCode, data)
	}
	if st := srv.Stats(); st.Cache.Runs != int64(len(queries)+1) {
		t.Fatalf("want %d distinct computations, got %+v", len(queries)+1, st.Cache)
	}
}

// TestPartitionMemoHitByteIdentical: a server's second request for a DAG
// that divide-and-conquer must split, at another P, reuses the first
// request's partition, and its body equals a fresh server's cold answer.
func TestPartitionMemoHitByteIdentical(t *testing.T) {
	srv := mustNew(t, testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, query := range []string{"p=2&rfactor=3", "p=3&rfactor=3"} {
		if resp, body := post(t, ts, query, dagBody(t, "kNN_N6_K4")); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", query, resp.StatusCode, body)
		}
	}
	if st := srv.Stats().PartitionMemo; st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("partition memo stats %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	_, memoBody := post(t, ts, "p=3&rfactor=3", dagBody(t, "kNN_N6_K4")) // a cache hit

	fresh := mustNew(t, testConfig())
	defer fresh.Close()
	ts2 := httptest.NewServer(fresh.Handler())
	defer ts2.Close()
	_, freshBody := post(t, ts2, "p=3&rfactor=3", dagBody(t, "kNN_N6_K4"))
	if !bytes.Equal(stripCache(t, memoBody), stripCache(t, freshBody)) {
		t.Fatal("a response built on a memoized partition differs from a fresh server's")
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/persist"
	"mbsp/internal/wire"
)

// persistConfig is testConfig plus a durable cache rooted at dir.
func persistConfig(dir string) Config {
	cfg := testConfig()
	cfg.CachePath = dir
	return cfg
}

// copyDir copies every regular file in src into a fresh temp dir: the
// crash-consistent disk image of a store whose owner is still running
// (journal appends are fsynced, so what copyDir sees is exactly what a
// kill -9 at this instant would leave behind).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWarmRestartByteIdentical: graceful-shutdown lifecycle. A server
// populates its durable cache, drains (snapshot rotation), and a fresh
// server on the same directory serves the request as a warm hit whose
// body is byte-identical to the original cold run.
func TestWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const query = "p=2&rfactor=3&g=1&l=10"

	srv1 := mustNew(t, persistConfig(dir))
	ts1 := httptest.NewServer(srv1.Handler())
	resp1, body1 := post(t, ts1, query, dagBody(t, "spmv_N6"))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp1.StatusCode, body1)
	}
	if st := srv1.Stats().Persistence; !st.Enabled || st.JournalRecords != 1 {
		t.Fatalf("after one store: %+v", st)
	}
	ts1.Close()
	srv1.Close() // snapshot rotation + store close

	srv2 := mustNew(t, persistConfig(dir))
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if st := srv2.Stats().Persistence; st.RecoveredRecords != 1 || st.RejectedRecords != 0 ||
		st.CorruptRecords != 0 || st.SnapshotAgeSeconds < 0 || st.JournalRecords != 0 {
		t.Fatalf("recovery stats after graceful restart: %+v", st)
	}
	resp2, body2 := post(t, ts2, query, dagBody(t, "spmv_N6"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp2.StatusCode, body2)
	}
	if st := srv2.Stats().Persistence; st.JournalRecords != 0 {
		t.Fatalf("a recovered entry or its warm hit was journaled again: %+v", st)
	}
	r2 := decode(t, body2)
	if r2.Cache == nil || !r2.Cache.Hit {
		t.Fatalf("restarted server missed a recovered entry: %+v", r2.Cache)
	}
	if !bytes.Equal(stripCache(t, body2), stripCache(t, body1)) {
		t.Fatal("warm-restart hit differs from the original cold run")
	}
}

// TestCrashRestartByteIdentical is the Go-level kill -9 test. Server A
// is never shut down: its cache directory is copied while it is live —
// journal appends are fsynced before the cold response is written, so
// the copy is exactly the image a kill -9 after the response would
// leave (no snapshot, journal only). Server B boots on the copy and
// must serve the warm byte-identical hit.
func TestCrashRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const query = "p=2&rfactor=3&g=1&l=10"

	srvA := mustNew(t, persistConfig(dir))
	tsA := httptest.NewServer(srvA.Handler())
	respA, bodyA := post(t, tsA, query, dagBody(t, "spmv_N6"))
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", respA.StatusCode, bodyA)
	}

	crashImage := copyDir(t, dir) // "kill -9": no drain, no snapshot
	tsA.Close()
	// srvA is deliberately never Close()d beyond the compute join below;
	// its store is abandoned like a dead process's.
	defer srvA.Close()

	srvB := mustNew(t, persistConfig(crashImage))
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	st := srvB.Stats().Persistence
	if st.RecoveredRecords != 1 || st.SnapshotAgeSeconds != -1 {
		t.Fatalf("crash recovery stats (want 1 journal-only record): %+v", st)
	}
	respB, bodyB := post(t, tsB, query, dagBody(t, "spmv_N6"))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("post-crash run: %d %s", respB.StatusCode, bodyB)
	}
	rB := decode(t, bodyB)
	if rB.Cache == nil || !rB.Cache.Hit {
		t.Fatalf("post-crash server missed the journaled entry: %+v", rB.Cache)
	}
	if !bytes.Equal(stripCache(t, bodyB), stripCache(t, bodyA)) {
		t.Fatal("post-crash warm hit differs from the pre-crash cold run")
	}
}

// TestTornJournalTailRecovers: a crash image whose journal lost its
// tail mid-record (what a kill -9 mid-append leaves). The first entry
// survives byte-identical; the torn one degrades to a counted cold
// recompute that — determinism — reproduces the original bytes.
func TestTornJournalTailRecovers(t *testing.T) {
	dir := t.TempDir()
	const q1 = "p=2&rfactor=3&g=1&l=10"
	const q2 = "p=3&rfactor=3&g=1&l=10"

	srvA := mustNew(t, persistConfig(dir))
	defer srvA.Close()
	tsA := httptest.NewServer(srvA.Handler())
	_, bodyA1 := post(t, tsA, q1, dagBody(t, "spmv_N6"))
	respA2, bodyA2 := post(t, tsA, q2, dagBody(t, "spmv_N6"))
	if respA2.StatusCode != http.StatusOK {
		t.Fatalf("second cold run: %d %s", respA2.StatusCode, bodyA2)
	}
	crashImage := copyDir(t, dir)
	tsA.Close()

	// Tear the journal mid-record: drop the last 7 bytes of the second
	// append, as a crash between write and completion would.
	jPath := filepath.Join(crashImage, "journal")
	info, err := os.Stat(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	srvB := mustNew(t, persistConfig(crashImage))
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	st := srvB.Stats().Persistence
	if st.RecoveredRecords != 1 || st.CorruptRecords != 1 {
		t.Fatalf("torn-tail recovery stats: %+v", st)
	}
	// Entry 1 survived the tear: warm byte-identical hit.
	_, bodyB1 := post(t, tsB, q1, dagBody(t, "spmv_N6"))
	if r := decode(t, bodyB1); r.Cache == nil || !r.Cache.Hit {
		t.Fatalf("pre-tear entry lost: %+v", r.Cache)
	}
	if !bytes.Equal(stripCache(t, bodyB1), stripCache(t, bodyA1)) {
		t.Fatal("recovered entry differs from its original bytes")
	}
	// Entry 2 was torn: cold recompute, reproducing the same bytes.
	respB2, bodyB2 := post(t, tsB, q2, dagBody(t, "spmv_N6"))
	if respB2.StatusCode != http.StatusOK {
		t.Fatalf("recompute of torn entry: %d %s", respB2.StatusCode, bodyB2)
	}
	if r := decode(t, bodyB2); r.Cache == nil || r.Cache.Hit {
		t.Fatalf("torn entry should have been a miss: %+v", r.Cache)
	}
	if !bytes.Equal(stripCache(t, bodyB2), stripCache(t, bodyA2)) {
		t.Fatal("recomputed torn entry differs from the original deterministic run")
	}
}

// TestConfigMismatchRejected: intact records journaled under one
// deterministic configuration must not be served under another — the
// key re-validation drops them as rejected, and the request recomputes.
func TestConfigMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	const query = "p=2&rfactor=3&g=1&l=10"

	srv1 := mustNew(t, persistConfig(dir))
	ts1 := httptest.NewServer(srv1.Handler())
	post(t, ts1, query, dagBody(t, "spmv_N6"))
	ts1.Close()
	srv1.Close()

	cfg := persistConfig(dir)
	cfg.Seed = 2 // different portfolio seed: recovered schedule is stale
	srv2 := mustNew(t, cfg)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st := srv2.Stats().Persistence
	if st.RecoveredRecords != 0 || st.RejectedRecords != 1 {
		t.Fatalf("seed-mismatch recovery stats: %+v", st)
	}
	_, body := post(t, ts2, query, dagBody(t, "spmv_N6"))
	if r := decode(t, body); r.Cache == nil || r.Cache.Hit {
		t.Fatalf("stale entry served under a different seed: %+v", r.Cache)
	}
}

// TestInjectedPersistFaultsServeOn: with every journal write's checksum
// deterministically flipped, the server keeps serving correct responses
// (persistence failure is loss of warmth, never of answers), and the
// next boot counts the corruption and cold-starts cleanly.
func TestInjectedPersistFaultsServeOn(t *testing.T) {
	dir := t.TempDir()
	const query = "p=2&rfactor=3&g=1&l=10"

	cfg := persistConfig(dir)
	cfg.PersistInject = faultinject.New(99, 1.0, 0, faultinject.ChecksumFlip)
	srv1 := mustNew(t, cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	resp1, body1 := post(t, ts1, query, dagBody(t, "spmv_N6"))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("request under injection: %d %s", resp1.StatusCode, body1)
	}
	// Same server: the in-memory entry still hits.
	_, body1b := post(t, ts1, query, dagBody(t, "spmv_N6"))
	if r := decode(t, body1b); r.Cache == nil || !r.Cache.Hit {
		t.Fatalf("in-memory hit lost under persist injection: %+v", r.Cache)
	}
	ts1.Close()
	srv1.Close() // snapshot rotation is injected too: every record flipped

	srv2 := mustNew(t, persistConfig(dir)) // clean reopen, no injection
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st := srv2.Stats().Persistence
	if st.RecoveredRecords != 0 || st.CorruptRecords < 1 {
		t.Fatalf("recovery from fully-flipped store: %+v", st)
	}
	resp2, body2 := post(t, ts2, query, dagBody(t, "spmv_N6"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cold start after corruption: %d %s", resp2.StatusCode, body2)
	}
	if r := decode(t, body2); r.Cache.Hit {
		t.Fatal("corrupt store produced a warm hit")
	}
	if !bytes.Equal(stripCache(t, body2), stripCache(t, body1)) {
		t.Fatal("cold start after corruption diverged from the original run")
	}
}

// TestRetryAfterEWMA: the 429 hint follows the cold-run EWMA, rounded
// up and clamped to [1, 30], with 1 as the no-samples fallback.
func TestRetryAfterEWMA(t *testing.T) {
	srv := mustNew(t, testConfig())
	defer srv.Close()
	if got := srv.retryAfterSecs(); got != 1 {
		t.Fatalf("no samples: want 1, got %d", got)
	}
	srv.observeCold(200 * time.Millisecond)
	if got := srv.retryAfterSecs(); got != 1 {
		t.Fatalf("sub-second EWMA must clamp up to 1, got %d", got)
	}
	srv.observeCold(10 * time.Second) // EWMA = 0.8*0.2 + 0.2*10 = 2.16
	if got := srv.retryAfterSecs(); got != 3 {
		t.Fatalf("blended EWMA: want ceil(2.16)=3, got %d", got)
	}
	for i := 0; i < 50; i++ {
		srv.observeCold(10 * time.Minute)
	}
	if got := srv.retryAfterSecs(); got != 30 {
		t.Fatalf("huge EWMA must clamp to 30, got %d", got)
	}
}

// TestNonFullFidelityRecordsRejected: intact records under the current
// key that are not full-fidelity answers — a degraded candidate, an
// interrupted run, a fallback rung, no certificate, a per-request stamp —
// are rejected at boot by the same predicate that keeps them out of the
// live cache. Journaled after them, the genuine record is restored and
// served as a byte-identical hit.
func TestNonFullFidelityRecordsRejected(t *testing.T) {
	src := t.TempDir()
	const query = "p=2&rfactor=3&g=1&l=10"
	srv1 := mustNew(t, persistConfig(src))
	ts1 := httptest.NewServer(srv1.Handler())
	_, cold := post(t, ts1, query, dagBody(t, "spmv_N6"))
	ts1.Close()
	srv1.Close()

	store, rec, err := persist.Open(src, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if len(rec.Snapshot) != 1 {
		t.Fatalf("want one snapshot record, got %d", len(rec.Snapshot))
	}
	tampered := func(edit func(r *wire.Response)) []byte {
		var e persistedEntry
		if err := json.Unmarshal(rec.Snapshot[0], &e); err != nil {
			t.Fatal(err)
		}
		edit(e.Response)
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	payloads := [][]byte{
		tampered(func(r *wire.Response) { r.Certificate.Degraded = []string{"ilp"} }),
		tampered(func(r *wire.Response) { r.Certificate.Interrupted = true }),
		tampered(func(r *wire.Response) { r.Certificate.Rung = "baseline" }),
		tampered(func(r *wire.Response) { r.Certificate = nil }),
		tampered(func(r *wire.Response) { r.Cache = &wire.CacheInfo{Provenance: "cold"} }),
		rec.Snapshot[0],
	}
	dir := t.TempDir()
	store, _, err = persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(t, persistConfig(dir))
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if st := srv2.Stats().Persistence; st.RecoveredRecords != 1 || st.RejectedRecords != int64(len(payloads)-1) {
		t.Fatalf("recovery stats: %+v", st)
	}
	_, hit := post(t, ts2, query, dagBody(t, "spmv_N6"))
	if r := decode(t, hit); r.Cache == nil || !r.Cache.Hit {
		t.Fatalf("genuine record not served as a hit: %+v", r.Cache)
	}
	if !bytes.Equal(stripCache(t, hit), stripCache(t, cold)) {
		t.Fatal("recovered hit differs from the cold run")
	}
}

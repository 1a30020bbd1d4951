// Crash-only persistence for the schedule cache: journal-on-store,
// snapshot-on-drain, recover-on-boot, over internal/persist's
// checksummed record log. See DESIGN.md ("Crash-only serving").
//
// The server journals what it stores: it appends a cold computation's
// stored response to the journal (fsynced) before Complete stores it
// and wakes the requests waiting on it. Boot-time recovery Adds
// directly and journals nothing.
//
// The soundness argument for serving recovered bytes is two-layered.
// The persist layer guarantees every recovered record is byte-identical
// to one this (or an earlier) server committed, and that the recovered
// set is a prefix of the committed stream. But a record being intact
// does not make it *valid for this server*: the process may have been
// restarted with a different seed or node limit, under which the same
// request must recompute rather than replay. So every recovered entry
// is re-validated against the cache key the *current* configuration
// would assign it — canonical fingerprint × exact digest × (P, r, g, L)
// × cost model × (seed, node limit), rebuilt from the response's own
// fields — plus the full-fidelity requirements (rung "portfolio", no
// degraded candidates, not interrupted) that gate live caching.
// Entries that fail re-validation are dropped and counted, never
// served.
package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mbsp/internal/persist"
	"mbsp/internal/schedcache"
	"mbsp/internal/wire"
)

// persistedEntry is the journal/snapshot record payload: the cache key
// alongside the unstamped response it maps to.
type persistedEntry struct {
	Key      string         `json:"key"`
	Response *wire.Response `json:"response"`
}

// cachePersister owns the store handle and the persistence counters.
type cachePersister struct {
	mu    sync.Mutex // serializes journal appends and rotation
	store *persist.Store
	logf  func(format string, args ...interface{})

	recovered int64 // entries re-validated and restored at boot
	rejected  int64 // intact records that failed re-validation
	corrupt   int64 // invalid records dropped by the recovery scanner
	appendErr int64 // journal appends that failed (entry not durable)
}

// openPersistence recovers the store at path into the cache. Recovery
// only Adds, so nothing it restores is journaled again. Corruption on
// disk degrades to counted cold starts; only real I/O errors fail the
// boot.
func openPersistence(path string, opts persist.Options, cache *schedcache.Cache[*wire.Response],
	validate func(key string, resp *wire.Response) bool,
	logf func(format string, args ...interface{})) (*cachePersister, error) {

	store, rec, err := persist.Open(path, opts)
	if err != nil {
		return nil, fmt.Errorf("server: opening cache store %s: %w", path, err)
	}
	p := &cachePersister{store: store, logf: logf, corrupt: int64(rec.Stats.CorruptRecords)}
	// Snapshot first, then journal: later records win, as they did live.
	for _, payload := range append(rec.Snapshot, rec.Journal...) {
		e, ok := admitRecovered(payload, validate)
		if !ok {
			p.rejected++
			continue
		}
		cache.Add(e.Key, e.Response)
		p.recovered++
	}
	if p.recovered+p.rejected > 0 || rec.Stats.CorruptRecords > 0 {
		logf("server: cache recovery from %s: %d restored, %d rejected, %d corrupt (%d bytes truncated)",
			path, p.recovered, p.rejected, rec.Stats.CorruptRecords, rec.Stats.TruncatedBytes)
	}
	return p, nil
}

// admitRecovered decodes one recovered record payload and reports
// whether validate admits it. An intact checksum over bytes that do not
// decode is a format change, not disk corruption, and is rejected the
// same way as an entry that fails validation.
func admitRecovered(payload []byte, validate func(key string, resp *wire.Response) bool) (persistedEntry, bool) {
	var e persistedEntry
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, false
	}
	return e, validate(e.Key, e.Response)
}

// journalStore appends one entry the server is about to store in the
// cache to the journal. Append failures lose only warm-restart coverage
// for that entry — they are counted and logged, never propagated into
// the request path.
func (p *cachePersister) journalStore(key string, resp *wire.Response) {
	payload, err := json.Marshal(persistedEntry{Key: key, Response: resp})
	if err != nil {
		p.mu.Lock()
		p.appendErr++
		p.mu.Unlock()
		p.logf("server: marshaling cache entry for journal: %v", err)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Append(payload); err != nil {
		p.appendErr++
		p.logf("server: journaling cache entry: %v", err)
	}
}

// drain rotates the cache contents into a snapshot (compacting the
// journal) and closes the store: the graceful-shutdown path. The
// journal already holds every stored entry, so a failed rotation —
// like no rotation at all on SIGKILL — costs nothing but recovery
// time.
func (p *cachePersister) drain(cache *schedcache.Cache[*wire.Response]) {
	dump := cache.Dump()
	payloads := make([][]byte, 0, len(dump))
	for _, kv := range dump {
		payload, err := json.Marshal(persistedEntry{Key: kv.Key, Response: kv.Val})
		if err != nil {
			p.logf("server: marshaling cache entry for snapshot: %v", err)
			continue
		}
		payloads = append(payloads, payload)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Rotate(payloads); err != nil {
		p.logf("server: snapshot rotation failed (journal still authoritative): %v", err)
	}
	if err := p.store.Close(); err != nil {
		p.logf("server: closing cache store: %v", err)
	}
}

// PersistenceStats is the /v1/stats persistence section. Enabled false
// means no -cache-path was configured and every other field is zero.
type PersistenceStats struct {
	Enabled bool `json:"enabled"`
	// SnapshotAgeSeconds is the age of the on-disk snapshot, -1 when no
	// snapshot has been written yet.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// JournalRecords/JournalBytes describe the live journal (records
	// appended since boot or the last rotation; bytes include the file
	// header).
	JournalRecords int64 `json:"journal_records"`
	JournalBytes   int64 `json:"journal_bytes"`
	// RecoveredRecords counts boot-time entries re-validated and
	// restored; RejectedRecords intact records that failed
	// re-validation; CorruptRecords invalid records the recovery
	// scanner dropped; JournalErrors failed appends since boot.
	RecoveredRecords int64 `json:"recovered_records"`
	RejectedRecords  int64 `json:"rejected_records"`
	CorruptRecords   int64 `json:"corrupt_records"`
	JournalErrors    int64 `json:"journal_errors"`
}

func (p *cachePersister) stats() PersistenceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PersistenceStats{
		Enabled:            true,
		SnapshotAgeSeconds: -1,
		JournalRecords:     p.store.JournalRecords(),
		JournalBytes:       p.store.JournalBytes(),
		RecoveredRecords:   p.recovered,
		RejectedRecords:    p.rejected,
		CorruptRecords:     p.corrupt,
		JournalErrors:      p.appendErr,
	}
	if snap := p.store.SnapshotTime(); !snap.IsZero() {
		st.SnapshotAgeSeconds = time.Since(snap).Seconds()
	}
	return st
}

// validateRecovered is the boot-time admission check for recovered
// entries (see the file comment): the live store path's cacheable
// predicate plus the key equation, recomputed from the untrusted record.
func (s *Server) validateRecovered(key string, resp *wire.Response) bool {
	return cacheable(resp) && key == keyString(resp.DAG.Fingerprint, resp.DAG.Digest,
		resp.Arch.P, resp.Arch.R, resp.Arch.G, resp.Arch.L,
		resp.Model, s.cfg.Seed, s.cfg.ILPNodeLimit, s.cfg.MaxModelRows)
}

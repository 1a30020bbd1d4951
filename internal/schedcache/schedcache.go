// Package schedcache is the schedule cache behind the scheduling
// service: a bounded LRU mapping a canonical request key — DAG
// fingerprint × exact digest × architecture (P, g, L, r) × the salient
// portfolio options — to a validated schedule plus its anytime
// certificate, with hit/miss/eviction counters and single-flight
// deduplication so N concurrent identical requests run the portfolio
// once.
//
// One map, one recency list and the single-flight map share one mutex.
// The bound is exact: the cache evicts its globally least-recent entry
// only when it holds Config.Entries values. A hit holds the lock for one
// map lookup and a list move, a small fraction of a sub-millisecond
// request, so the lock is not sharded (see DESIGN.md).
//
// The cache is value-generic: it stores whatever the server builds for a
// key (in practice the marshaled wire response). Correctness of serving
// a stored value for a new request rests on the key construction, argued
// in DESIGN.md: the canonical fingerprint alone is relabeling-invariant,
// so two isomorphic but differently-numbered submissions must NOT share
// an entry (a schedule's ops name node ids); pairing it with the exact
// digest keys on ids too, and the remaining 128-bit collision risk is
// the usual hashing bet.
//
// Single-flight is exposed as a leader/follower primitive rather than a
// blocking GetOrCompute so the server can race a follower's wait against
// its per-request deadline: the flight keeps computing for the cache
// while the impatient request degrades to the anytime fallback. The
// leader decides what is stored: it calls Add (and persists what Add
// stored) before Finish, so a request that arrives after the flight ends
// finds the entry.
package schedcache

import "sync"

// DefaultEntries is the entry bound used when Config.Entries is 0.
const DefaultEntries = 1024

// Config sizes a Cache.
type Config struct {
	// Entries bounds the number of cached entries exactly. 0 selects
	// DefaultEntries; negative disables storage (the cache still
	// deduplicates flights).
	Entries int
}

// Cache is a bounded LRU with single-flight deduplication. The zero
// value is not usable; call New.
type Cache[V any] struct {
	capacity int // 0 when storage is disabled

	mu      sync.Mutex
	entries map[string]*entry[V]
	// head is the sentinel of the intrusive doubly-linked recency list;
	// head.next is the most recent entry, head.prev the least recent.
	head    entry[V]
	flights map[string]*Flight[V]

	hits, misses, evictions, coalesced, runs int64
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// New returns an empty cache sized by cfg.
func New[V any](cfg Config) *Cache[V] {
	capacity := cfg.Entries
	if capacity == 0 {
		capacity = DefaultEntries
	}
	c := &Cache[V]{
		capacity: max(capacity, 0),
		entries:  make(map[string]*entry[V]),
		flights:  make(map[string]*Flight[V]),
	}
	c.head.next = &c.head
	c.head.prev = &c.head
	return c
}

// Get returns the cached value for key and bumps it to most-recent. The
// hit/miss counters record the outcome.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Add stores key→val as the most-recent entry, evicting the least-recent
// entry if the cache already holds its bound. Re-adding an existing key
// overwrites it in place. Add reports whether it stored the value; it
// returns false only when storage is disabled.
func (c *Cache[V]) Add(key string, val V) bool {
	if c.capacity == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = val
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	if len(c.entries) == c.capacity {
		lru := c.head.prev
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions++
	}
	e := &entry[V]{key: key, val: val}
	c.entries[key] = e
	c.pushFront(e)
	return true
}

// KV is one cached entry, as yielded by Dump.
type KV[V any] struct {
	Key string
	Val V
}

// Dump returns the cache contents, least-recently-used first, so
// Add-ing a dump in order into an empty cache reproduces its recency.
// It is a point-in-time copy; the snapshot-on-drain path calls it after
// traffic has stopped.
func (c *Cache[V]) Dump() []KV[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]KV[V], 0, len(c.entries))
	for e := c.head.prev; e != &c.head; e = e.prev {
		out = append(out, KV[V]{Key: e.key, Val: e.val})
	}
	return out
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.next = c.head.next
	e.prev = &c.head
	c.head.next.prev = e
	c.head.next = e
}

// Flight is one in-flight computation for a key. Followers wait on Done;
// after it closes, Value/Err are immutable.
type Flight[V any] struct {
	done  chan struct{}
	value V
	err   error
}

// Done returns a channel closed when the flight's result is available.
func (f *Flight[V]) Done() <-chan struct{} { return f.done }

// Result returns the flight's outcome; it must only be called after Done
// is closed.
func (f *Flight[V]) Result() (V, error) { return f.value, f.err }

// Flight joins the single-flight group for key. The first caller becomes
// the leader (leader == true) and MUST eventually call Finish exactly
// once — typically from a goroutine that runs the computation — or every
// follower blocks forever. Followers (leader == false) share the
// leader's outcome via Done/Result. Flights are not cached: once
// finished, the next Flight call for the key starts a fresh one, so the
// caller should consult Get first and Add the value it wants kept
// before calling Finish.
func (c *Cache[V]) Flight(key string) (f *Flight[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		return f, false
	}
	f = &Flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.runs++
	return f, true
}

// Finish resolves the flight for key with the leader's outcome, waking
// every follower. It never stores the value.
func (c *Cache[V]) Finish(key string, f *Flight[V], val V, err error) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	f.value, f.err = val, err
	close(f.done)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	// Coalesced counts followers that joined an existing flight instead
	// of computing; Runs counts flights led (portfolio executions the
	// cache admitted).
	Coalesced int64 `json:"coalesced"`
	Runs      int64 `json:"runs"`
}

// Stats returns a snapshot of the cache counters, read in one critical
// section.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Coalesced: c.coalesced,
		Runs:      c.runs,
	}
}

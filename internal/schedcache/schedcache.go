// Package schedcache is the schedule cache behind the scheduling
// service: a bounded LRU mapping a canonical request key — DAG
// fingerprint × exact digest × architecture (P, g, L, r) × the salient
// portfolio options — to a validated schedule plus its anytime
// certificate, with hit/miss/eviction counters and single-flight
// deduplication so N concurrent identical requests run the portfolio
// once.
//
// One map, one recency list and the map of running computations share
// one mutex. The bound is exact: the cache evicts its globally
// least-recent entry only when it holds Config.Entries values. A hit
// holds the lock for one map lookup and a list move, a small fraction
// of a sub-millisecond request, so the lock is not sharded (see
// DESIGN.md).
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
// A request makes one call, Lookup: a hit, a join of the key's running
// computation, or the lead of a new one. The leader's one further call,
// Complete, stores the value (when asked to), ends the computation and
// wakes its followers in one critical section, so a request arriving
// after a storing Complete hits. Followers wait on a channel, so the
// server can race the wait against a per-request deadline while the
// computation keeps running for the cache.
package schedcache

import "sync"

// DefaultEntries is the entry bound used when Config.Entries is 0.
const DefaultEntries = 1024

// Config sizes a Cache.
type Config struct {
	// Entries bounds the number of cached entries exactly. 0 selects
	// DefaultEntries; negative disables storage (the cache still
	// deduplicates computations).
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
	pending map[string]*Pending[V]

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
		pending:  make(map[string]*Pending[V]),
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
	return c.get(key)
}

// get is Get under c.mu.
func (c *Cache[V]) get(key string) (val V, ok bool) {
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return val, false
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.add(key, val)
}

// add is Add under c.mu.
func (c *Cache[V]) add(key string, val V) bool {
	if c.capacity == 0 {
		return false
	}
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

// Pending is one running computation for a key. Followers wait on
// Done; after it closes, Result is immutable.
type Pending[V any] struct {
	done  chan struct{}
	value V
	err   error
}

// Done returns a channel closed when the result is available.
func (p *Pending[V]) Done() <-chan struct{} { return p.done }

// Result returns the outcome; it must only be called after Done is
// closed.
func (p *Pending[V]) Result() (V, error) { return p.value, p.err }

// Lookup returns key's cached value (bumped to most-recent) with a nil
// Pending on a hit. On a miss it returns the key's running computation,
// with lead set when the caller started it. A leader MUST call Complete
// exactly once, or every follower blocks forever. It counts as a Get,
// plus one Coalesced (join) or Runs (lead) on a miss.
func (c *Cache[V]) Lookup(key string) (val V, p *Pending[V], lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.get(key); ok {
		return v, nil, false
	}
	if p, ok := c.pending[key]; ok {
		c.coalesced++
		return val, p, false
	}
	p = &Pending[V]{done: make(chan struct{})}
	c.pending[key] = p
	c.runs++
	return val, p, true
}

// Complete stores key→val when store is set (and storage is enabled),
// ends the computation p and wakes its followers with val and err, all
// in one critical section.
func (c *Cache[V]) Complete(key string, p *Pending[V], val V, err error, store bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if store {
		c.add(key, val)
	}
	delete(c.pending, key)
	p.value, p.err = val, err
	close(p.done)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	// Coalesced counts lookups that joined a running computation
	// instead of computing; Runs counts computations led (portfolio
	// executions the cache admitted).
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

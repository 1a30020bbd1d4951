package schedcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetAddHitMiss: basic store/load with counter accounting.
func TestGetAddHitMiss(t *testing.T) {
	c := New[string](Config{Entries: 8})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add("a", "va")
	if v, ok := c.Get("a"); !ok || v != "va" {
		t.Fatalf("want va, got %q ok=%v", v, ok)
	}
	c.Add("a", "va2") // overwrite in place
	if v, _ := c.Get("a"); v != "va2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestLRUEviction: the cache evicts in least-recently-used order, where
// Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	c := New[int](Config{Entries: 3})
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	c.Get("a")    // a is now most recent; b is LRU
	c.Add("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestBoundedAcrossShards: the cache never holds more than its entry
// bound, whatever the key distribution.
func TestBoundedAcrossShards(t *testing.T) {
	const cap = 64
	c := New[int](Config{Entries: cap})
	for i := 0; i < 10*cap; i++ {
		c.Add(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Stats().Entries; n > cap {
		t.Fatalf("cache holds %d entries, bound %d", n, cap)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions under 10x overload")
	}
}

// TestDisabledStorage: Entries < 0 disables storage but keeps the
// single-flight machinery alive.
func TestDisabledStorage(t *testing.T) {
	c := New[int](Config{Entries: -1})
	if c.Add("a", 1) {
		t.Fatal("disabled cache reported storing a value")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
	_, p, lead := c.Lookup("a")
	if !lead {
		t.Fatal("expected leadership on fresh key")
	}
	c.Complete("a", p, 7, nil, true)
	if v, err := p.Result(); v != 7 || err != nil {
		t.Fatalf("flight result %v/%v", v, err)
	}
	if _, _, lead := c.Lookup("a"); !lead || c.Stats().Entries != 0 {
		t.Fatal("disabled cache stored a completed value")
	}
}

// TestCompleteWithoutStore: a computation completed without store
// resolves its followers but leaves the cache alone, so the next Lookup
// leads a fresh computation.
func TestCompleteWithoutStore(t *testing.T) {
	c := New[int](Config{Entries: 8})
	_, p, _ := c.Lookup("k")
	c.Complete("k", p, 5, nil, false)
	if v, err := p.Result(); v != 5 || err != nil {
		t.Fatalf("flight result %v/%v", v, err)
	}
	if _, ok := c.Get("k"); ok || c.Stats().Entries != 0 {
		t.Fatal("Complete without store stored a value")
	}
	if _, p2, lead := c.Lookup("k"); !lead || p2 == p {
		t.Fatal("Lookup after an unstored Complete must lead a fresh computation")
	}
}

// TestLookupOutcomes: Lookup leads on a fresh key, joins the running
// computation for it, and hits once a storing Complete has returned,
// counting exactly as a Get followed by joining or leading would.
func TestLookupOutcomes(t *testing.T) {
	c := New[int](Config{Entries: 8})
	_, p, lead := c.Lookup("k")
	if p == nil || !lead {
		t.Fatalf("fresh key: pending %v lead %v, want to lead", p, lead)
	}
	_, p2, lead2 := c.Lookup("k")
	if p2 != p || lead2 {
		t.Fatal("second lookup must join the running computation")
	}
	select {
	case <-p.Done():
		t.Fatal("computation done before Complete")
	default:
	}
	c.Complete("k", p, 42, nil, true)
	<-p2.Done()
	if v, err := p2.Result(); v != 42 || err != nil {
		t.Fatalf("follower result %v/%v", v, err)
	}
	v, p3, lead3 := c.Lookup("k")
	if p3 != nil || lead3 || v != 42 {
		t.Fatalf("lookup after a storing Complete: value %d pending %v lead %v, want a hit on 42", v, p3, lead3)
	}
	want := Stats{Hits: 1, Misses: 2, Entries: 1, Coalesced: 1, Runs: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestSingleFlightCollapses: N concurrent requests for one key run the
// computation exactly once; every follower observes the leader's value.
func TestSingleFlightCollapses(t *testing.T) {
	c := New[int](Config{Entries: 8})
	const n = 32
	var computed atomic.Int32
	var wg, joined sync.WaitGroup
	joined.Add(n) // the leader finishes only after every request joined
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, p, lead := c.Lookup("k")
			joined.Done()
			if p == nil {
				t.Error("hit before any flight finished")
				return
			}
			if lead {
				joined.Wait()
				computed.Add(1)
				c.Complete("k", p, 42, nil, true)
			}
			<-p.Done()
			v, err := p.Result()
			if err != nil {
				t.Errorf("flight error: %v", err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if got := computed.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("request %d got %d", i, v)
		}
	}
	// The leader stored its value; subsequent requests hit.
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Fatalf("finished flight not cached: %v %v", v, ok)
	}
	st := c.Stats()
	if st.Runs != 1 {
		t.Fatalf("want 1 run, got %d", st.Runs)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("want %d coalesced followers, got %d", n-1, st.Coalesced)
	}
}

// TestFlightErrorNotCached: a failed flight propagates its error to all
// followers and leaves the cache empty, so the next request retries.
func TestFlightErrorNotCached(t *testing.T) {
	c := New[int](Config{Entries: 8})
	boom := errors.New("boom")
	_, p, lead := c.Lookup("k")
	if !lead {
		t.Fatal("expected leadership")
	}
	_, follower, lead2 := c.Lookup("k")
	if lead2 || follower != p {
		t.Fatal("second caller must follow the live flight")
	}
	c.Complete("k", p, 0, boom, false)
	<-follower.Done()
	if _, err := follower.Result(); !errors.Is(err, boom) {
		t.Fatalf("follower error %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed flight must not be cached")
	}
	if _, _, lead := c.Lookup("k"); !lead {
		t.Fatal("key must be retryable after a failed flight")
	}
}

// TestConcurrentStress: hammer all operations from many goroutines; the
// race detector owns the assertions, the bound check closes it out.
func TestConcurrentStress(t *testing.T) {
	c := New[int](Config{Entries: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%100)
				_, p, lead := c.Lookup(key)
				if lead {
					c.Complete(key, p, i, nil, true)
				} else if p != nil {
					<-p.Done()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Stats().Entries; n > 32 {
		t.Fatalf("bound violated: %d entries", n)
	}
}

// TestDumpOrder: Dump yields entries globally least-recent first, so
// Add-ing a dump in order reproduces the recency order.
func TestDumpOrder(t *testing.T) {
	c := New[int](Config{Entries: 8})
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		c.Add(k, i)
	}
	c.Get("a")     // recency now b < c < d < e < a
	c.Add("c", 20) // overwrite bumps too: b < d < e < a < c
	dump := c.Dump()
	var keys []string
	for _, kv := range dump {
		keys = append(keys, kv.Key)
	}
	if fmt.Sprint(keys) != "[b d e a c]" {
		t.Fatalf("dump order %v, want [b d e a c]", keys)
	}
	if dump[4].Val != 20 {
		t.Fatalf("dump carries stale value %d for c", dump[4].Val)
	}
	// Add the dump into a fresh cache of the same size and overflow it
	// twice: the two least-recent entries of the dumped order go first.
	c2 := New[int](Config{Entries: 5})
	for _, kv := range dump {
		c2.Add(kv.Key, kv.Val)
	}
	c2.Add("x", 9)
	c2.Add("y", 10)
	for _, k := range []string{"b", "d"} {
		if _, ok := c2.Get(k); ok {
			t.Fatalf("restored recency lost: %s should have been evicted", k)
		}
	}
	for _, k := range []string{"e", "a", "c", "x", "y"} {
		if _, ok := c2.Get(k); !ok {
			t.Fatalf("%s evicted out of recency order", k)
		}
	}
}

// TestEntriesIsExactBound: the cache holds exactly Entries values once
// it has seen more distinct keys, and every overflowing Add evicts
// exactly one entry.
func TestEntriesIsExactBound(t *testing.T) {
	c := New[int](Config{Entries: 100})
	for i := 0; i < 1000; i++ {
		c.Add(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Stats().Entries; n != 100 {
		t.Fatalf("cache holds %d entries, want exactly 100", n)
	}
	if st := c.Stats(); st.Evictions != 900 || st.Entries != 100 {
		t.Fatalf("want 900 evictions and 100 entries, got %+v", st)
	}
	// The survivors are the 100 most recent keys.
	for i := 900; i < 1000; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("key-%d evicted while older keys survived", i)
		}
	}
}

// TestNoEvictionBelowCapacity: the default cache stores DefaultEntries
// distinct keys without evicting any of them.
func TestNoEvictionBelowCapacity(t *testing.T) {
	c := New[int](Config{})
	for i := 0; i < DefaultEntries; i++ {
		if !c.Add(fmt.Sprintf("key-%d", i), i) {
			t.Fatalf("Add of key-%d reported no store", i)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != DefaultEntries {
		t.Fatalf("want 0 evictions and %d entries, got %+v", DefaultEntries, st)
	}
}

// TestEvictionUnderFlightStress is the eviction-under-flight
// interleaving the basic suite never exercises: a cache far smaller
// than its key space, hammered by concurrent leaders, followers,
// readers and direct stores, with a checker asserting the entry-count
// bound throughout. Every flight must Complete cleanly — including
// flights whose stored entry is evicted immediately after Complete —
// and every follower must observe its leader's outcome.
// The race detector owns the memory-order assertions.
func TestEvictionUnderFlightStress(t *testing.T) {
	const (
		bound   = 8
		keys    = 100
		workers = 12
		iters   = 400
	)
	c := New[int](Config{Entries: bound})
	var stop atomic.Bool
	checkerDone := make(chan struct{})
	go func() {
		defer close(checkerDone)
		for !stop.Load() {
			if n := c.Stats().Entries; n > bound {
				t.Errorf("entry bound exceeded mid-stress: %d > %d", n, bound)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (w*37+i*11)%keys)
				switch i % 4 {
				case 0: // direct store, churning the LRU list
					c.Add(key, w*iters+i)
				case 1:
					c.Get(key)
				default: // lookup: a leader completes, storing (not always)
					_, p, lead := c.Lookup(key)
					if p == nil {
						continue // hit
					}
					if lead {
						// Churn the cache so entries are evicted while
						// the flight is still live.
						for j := 0; j < 4; j++ {
							c.Add(fmt.Sprintf("evict-%d-%d-%d", w, i, j), j)
						}
						c.Complete(key, p, i, nil, i%8 != 2)
					}
					<-p.Done()
					if _, err := p.Result(); err != nil {
						t.Errorf("flight for %s failed: %v", key, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-checkerDone
	if n := c.Stats().Entries; n > bound {
		t.Fatalf("entry bound exceeded after stress: %d > %d", n, bound)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("stress produced no evictions — the interleaving was not exercised")
	}
	if st.Runs == 0 || st.Entries > bound {
		t.Fatalf("implausible stats after stress: %+v", st)
	}
}

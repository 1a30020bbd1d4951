package dnc

import (
	"encoding/binary"
	"sync"

	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/partition"
)

// Memo remembers the partitioning stage of divide-and-conquer runs, so
// that runs on the same DAG under other architectures or cost models
// skip the bipartition ILPs. The partitioner reads the DAG's topology
// and the tree settings only — no weight, P, r, g, L or cost model — so
// one stored partition.Result (Solver counters included) is exactly what
// a recompute would return, and a hit leaves the schedule and Stats
// byte-identical. See DESIGN.md, "One partition per DAG".
//
// A Memo is safe for concurrent use. It holds at most a fixed number of
// node + edge entries, evicting the oldest partition first.
type Memo struct {
	mu      sync.Mutex
	max     int // cap on stored node + edge entries
	size    int
	entries map[memoKey]partition.Result
	order   []memoKey // stored keys, oldest first
	hits    int64
	misses  int64
}

// memoKey is everything partition.Recursive reads: the children lists in
// stored order, the part size and the tree's NodeLimit and NoPerturb.
// Tree worker counts never change a result, and runs with Inject bypass
// the memo.
type memoKey struct {
	adj       string // per node: out-degree, then the children in order (int32 LE)
	maxPart   int
	nodeLimit int
	noPerturb bool
}

// MemoStats is a point-in-time view of a Memo: lookups answered from it,
// lookups that partitioned afresh, and stored partitions.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// NewMemo returns an empty Memo holding at most maxEntries node + edge
// entries; a DAG with more nodes plus edges is never stored.
func NewMemo(maxEntries int) *Memo {
	return &Memo{max: maxEntries, entries: map[memoKey]partition.Result{}}
}

// Solve is the package-level Solve with its partitioning stage served
// from and stored into m. A nil m partitions afresh, as Solve does.
func (m *Memo) Solve(g *graph.DAG, arch mbsp.Arch, maxPartSize int, opts ilpsched.Options) (*mbsp.Schedule, Stats, error) {
	return solve(g, arch, maxPartSize, opts, m)
}

// Stats returns the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}

// partition returns partition.Recursive(g, maxPartSize, &tree), from the
// memo when it holds g's topology under the same settings. A nil memo, a
// run with fault injection, a DAG that needs no split and a done context
// go straight to Recursive (the last fails fast with the context's
// error). A result is stored only when Recursive returned no error and
// the context is still not done afterwards, so no partition a deadline
// may have cut is served again. Every caller of a stored result shares
// its Part slice, which dnc only reads.
func (m *Memo) partition(g *graph.DAG, maxPartSize int, tree mip.Options) (partition.Result, error) {
	if m == nil || tree.Inject != nil || g.N() <= maxPartSize || ctxDone(tree) {
		return partition.Recursive(g, maxPartSize, &tree)
	}
	key := memoKey{adj: adjacency(g), maxPart: maxPartSize, nodeLimit: tree.NodeLimit, noPerturb: tree.NoPerturb}
	m.mu.Lock()
	res, ok := m.entries[key]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if ok {
		return res, nil
	}
	res, err := partition.Recursive(g, maxPartSize, &tree)
	if err == nil && !ctxDone(tree) {
		m.store(key, res)
	}
	return res, err
}

func ctxDone(tree mip.Options) bool {
	return tree.Context != nil && tree.Context.Err() != nil
}

// store adds res under key, evicting the oldest entries until it fits.
// A concurrent miss on the same key may have stored it first; its result
// is the same.
func (m *Memo) store(key memoKey, res partition.Result) {
	cost := len(key.adj) / 4
	if cost > m.max {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.entries[key]; dup {
		return
	}
	for m.size+cost > m.max {
		old := m.order[0]
		m.order[0] = memoKey{}
		m.order = m.order[1:]
		m.size -= len(old.adj) / 4
		delete(m.entries, old)
	}
	m.entries[key] = res
	m.order = append(m.order, key)
	m.size += cost
}

// adjacency encodes g's children lists in stored order, one int32 per
// node (its out-degree) and per edge. partition.Recursive reads no other
// part of g's topology: every split starts from g.SubDAG, which rebuilds
// the parents lists from the children lists, and the bipartition ILP and
// the greedy split read children and degrees only.
func adjacency(g *graph.DAG) string {
	buf := make([]byte, 0, 4*(g.N()+g.M()))
	for v := 0; v < g.N(); v++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.OutDegree(v)))
		for _, w := range g.Children(v) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
	}
	return string(buf)
}

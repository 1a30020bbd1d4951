// Per-cell experiment checkpointing: a crash-only journal of completed
// (instance, method) grid cells so a killed run resumes instead of
// recomputing. Built on internal/persist's checksummed record log — a
// kill -9 mid-append leaves a torn tail that recovery truncates away,
// costing exactly the cells that had not committed.
package experiments

import (
	"encoding/json"
	"fmt"
	"sync"

	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/persist"
	"mbsp/internal/workloads"
)

// checkpointRecord is one completed grid cell. The key embeds the
// instance's structural fingerprint and every Config field that can
// change a cost, so a checkpoint taken under one configuration (or
// dataset revision) is silently inapplicable — not wrongly applied —
// under another.
type checkpointRecord struct {
	Key  string  `json:"key"`
	Cost float64 `json:"cost"`
}

// Checkpoint is a durable set of completed grid cells backed by an
// append journal. A nil *Checkpoint is valid and checkpoints nothing,
// so Run can thread it unconditionally. Safe for concurrent use by
// Run's workers.
type Checkpoint struct {
	mu      sync.Mutex
	journal *persist.Journal
	done    map[string]float64

	restored int64 // cells recovered from the file at Open
	corrupt  int64 // invalid or undecodable records dropped at Open
}

// OpenCheckpoint opens (creating if necessary) the checkpoint journal
// at path, recovering every completed cell it holds. Torn or corrupt
// tails are truncated and counted, never fatal: the cells they held
// simply recompute.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	payloads, stats, err := persist.RecoverFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: recovering checkpoint %s: %w", path, err)
	}
	c := &Checkpoint{done: make(map[string]float64, len(payloads)), corrupt: int64(stats.CorruptRecords)}
	for _, p := range payloads {
		var rec checkpointRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			c.corrupt++ // intact checksum, undecodable payload: format drift
			continue
		}
		c.done[rec.Key] = rec.Cost
		c.restored++
	}
	j, err := persist.OpenJournal(path, persist.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: opening checkpoint %s: %w", path, err)
	}
	c.journal = j
	return c, nil
}

// Lookup returns the recorded cost for a cell key, if the cell already
// completed under an identical configuration.
func (c *Checkpoint) Lookup(key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cost, ok := c.done[key]
	return cost, ok
}

// Record durably commits one completed cell: when Record returns, the
// cell survives a kill -9. Append errors are returned so the caller can
// decide whether to press on without durability.
func (c *Checkpoint) Record(key string, cost float64) error {
	if c == nil {
		return nil
	}
	payload, err := json.Marshal(checkpointRecord{Key: key, Cost: cost})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.journal.Append(payload); err != nil {
		return err
	}
	c.done[key] = cost
	return nil
}

// Restored returns how many cells the Open recovered; Corrupt how many
// invalid records it dropped.
func (c *Checkpoint) Restored() int64 {
	if c == nil {
		return 0
	}
	return c.restored
}

// Corrupt returns how many invalid records Open dropped.
func (c *Checkpoint) Corrupt() int64 {
	if c == nil {
		return 0
	}
	return c.corrupt
}

// Close closes the underlying journal.
func (c *Checkpoint) Close() error {
	if c == nil || c.journal == nil {
		return nil
	}
	return c.journal.Close()
}

// cellKey is the checkpoint identity of one grid cell: instance name +
// structural fingerprint, method, and the cost-relevant Config fields.
// Workers, ILP.MIPWorkers/LUStats (never change results) and ILP.Context
// (like the clock, only cuts a search short) are absent. The other ILP
// fields, in extra, append one suffix only when set, so keys from before
// Config carried ilpsched.Options, and their checkpoints, stay valid.
func cellKey(inst workloads.Instance, m Method, cfg Config) string {
	o := cfg.ILP
	key := fmt.Sprintf("%s#%016x/%s/p%d,r%g,g%g,L%g/%s/ilp%s,ls%d,seed%d",
		inst.Name, fingerprintOf(inst.DAG), m.Name,
		cfg.P, cfg.RFactor, cfg.G, cfg.L, o.Model,
		o.TimeLimit, o.LocalSearchBudget, o.Seed)
	type extra struct {
		ExtraSteps, NodeLimit, MaxModelRows   int
		NoRecompute, NoStepMerging, NoPerturb bool
		Inject                                *faultinject.Injector // keyed by its String: seed, rate, modes
	}
	if x := (extra{o.ExtraSteps, o.NodeLimit, o.MaxModelRows, o.NoRecompute, o.NoStepMerging, o.NoPerturb, o.Inject}); x != (extra{}) {
		key += fmt.Sprintf("/%+v", x)
	}
	return key
}

func fingerprintOf(g *graph.DAG) uint64 {
	if g == nil {
		return 0
	}
	return g.Fingerprint()
}

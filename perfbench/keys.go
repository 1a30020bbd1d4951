package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"mbsp"
	"mbsp/internal/graph"
	"mbsp/internal/mip"
	"mbsp/internal/server"
)

// The serving configuration both serve workloads deploy, as
// scripts/serve_smoke.sh runs mbsp-served: a durable cache, the
// latency-bound model-row cap and a node limit that binds.
const (
	serveNodeLimit = 500
	serveMaxRows   = 3000
)

func serveConfig(cacheDir string, compute server.Compute) server.Config {
	return server.Config{
		CachePath:    cacheDir,
		ILPNodeLimit: serveNodeLimit,
		MaxModelRows: serveMaxRows,
		Compute:      compute,
	}
}

// serveKey is one scheduling request: a tiny-dataset instance on P
// processors with fast memory rfactor·r0 under a cost model.
type serveKey struct {
	Inst    string  `json:"instance"`
	P       int     `json:"p"`
	RFactor float64 `json:"rfactor"`
	Model   string  `json:"model"`
}

func (k serveKey) String() string {
	return fmt.Sprintf("%s/p%d/rf%g/%s", k.Inst, k.P, k.RFactor, k.Model)
}

func (k serveKey) query() string {
	return fmt.Sprintf("p=%d&rfactor=%g&model=%s", k.P, k.RFactor, k.Model)
}

func (k serveKey) costModel() mbsp.CostModel {
	if k.Model == "async" {
		return mbsp.Async
	}
	return mbsp.Sync
}

// arch is the architecture the server derives from the key's query on
// DAG g (r = rfactor·r0, g = 1, L = 10).
func (k serveKey) arch(g *mbsp.DAG) mbsp.Arch {
	return mbsp.Arch{P: k.P, R: k.RFactor * g.MinCache(), G: 1, L: 10}
}

// coldKeySpace is every serve-cold key the sizing pass considers: the
// tiny dataset × P∈{2,3,4} × rfactor∈{2,3} × sync/async.
func coldKeySpace() []serveKey {
	var keys []serveKey
	for _, inst := range mbsp.Tiny() {
		for _, p := range []int{2, 3, 4} {
			for _, rf := range []float64{2, 3} {
				for _, m := range []string{"sync", "async"} {
					keys = append(keys, serveKey{Inst: inst.Name, P: p, RFactor: rf, Model: m})
				}
			}
		}
	}
	return keys
}

// sizedKey is one row of the sizing table (sizing.json, produced by
// `perfbench -size`).
type sizedKey struct {
	serveKey
	// Verdict is "ok" for keys in the serve-cold rotation; anything else
	// names why the key was left out.
	Verdict   string  `json:"verdict"`
	ColdMs    float64 `json:"cold_ms"`
	ModelRows int     `json:"model_rows"`
	Tree      bool    `json:"tree"`
	ILPStatus string  `json:"ilp_status"`
	ILPNodes  int     `json:"ilp_nodes"`
	Winner    string  `json:"winner"`
	Cost      float64 `json:"cost"`
	Baseline  float64 `json:"baseline"`
}

//go:embed sizing.json
var sizingJSON []byte

var sizingTable = sync.OnceValue(func() []sizedKey {
	var rows []sizedKey
	if err := json.Unmarshal(sizingJSON, &rows); err != nil {
		fatalf("sizing.json: %v", err)
	}
	return rows
})

// coldKeys is the serve-cold rotation: every sized key whose verdict is
// "ok", in key-space order.
func coldKeys() []serveKey {
	var keys []serveKey
	for _, row := range sizingTable() {
		if row.Verdict == "ok" {
			keys = append(keys, row.serveKey)
		}
	}
	if len(keys) == 0 {
		fatalf("sizing.json lists no servable key")
	}
	return keys
}

// hitKeys is the serve-hit rotation: the server's default request
// (P=4, rfactor 3, sync) for every tiny instance whose cold run sized ok.
func hitKeys() []serveKey {
	var keys []serveKey
	for _, k := range coldKeys() {
		if k.P == 4 && k.RFactor == 3 && k.Model == "sync" {
			keys = append(keys, k)
		}
	}
	return keys
}

// corpus holds the request bodies (graph.Write text) and their parsed
// DAGs. The server computes r0 from the parsed DAG, so baselines do too.
type corpus struct {
	body map[string][]byte
	dag  map[string]*mbsp.DAG
}

func newCorpus(keys []serveKey) (*corpus, error) {
	c := &corpus{body: map[string][]byte{}, dag: map[string]*mbsp.DAG{}}
	for _, k := range keys {
		if _, ok := c.body[k.Inst]; ok {
			continue
		}
		inst, err := mbsp.InstanceByName(k.Inst)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := graph.Write(&b, inst.DAG); err != nil {
			return nil, err
		}
		g, err := graph.Read(bytes.NewReader(b.Bytes()))
		if err != nil {
			return nil, err
		}
		c.body[k.Inst], c.dag[k.Inst] = b.Bytes(), g
	}
	return c, nil
}

// baseline runs the paper's two-stage baseline for a key.
func (c *corpus) baseline(k serveKey) (*mbsp.Schedule, error) {
	g := c.dag[k.Inst]
	return mbsp.ScheduleBaseline(g, k.arch(g))
}

// candidateSeed mirrors the portfolio's per-candidate seed derivation.
func candidateSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64()&math.MaxInt64)
}

// replayILPCandidate re-runs the portfolio's "ilp" candidate for a key
// under the serving configuration (seed 1, the server's node limit, row
// cap and compute budget, the portfolio's local-search budget, the
// baseline warm start and a sealed incumbent at its cost). The node
// limit binds and worker counts never change results, so the replay
// reproduces the candidate's schedule and counts; it exists to read the
// counts, which the portfolio does not expose.
func replayILPCandidate(c *corpus, k serveKey, warm *mbsp.Schedule) (*mbsp.Schedule, mbsp.ILPStats, error) {
	g := c.dag[k.Inst]
	inc := mip.NewIncumbent()
	inc.Offer(warm.Cost(k.costModel()))
	inc.Seal()
	return mbsp.ScheduleILP(g, k.arch(g), mbsp.ILPOptions{
		Model:             k.costModel(),
		TimeLimit:         60 * time.Second,
		NodeLimit:         serveNodeLimit,
		MaxModelRows:      serveMaxRows,
		MIPWorkers:        1,
		LocalSearchBudget: 2000,
		Seed:              candidateSeed(1, "ilp"),
		WarmStart:         warm,
		Incumbent:         inc,
	})
}

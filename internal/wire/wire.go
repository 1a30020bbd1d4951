// Package wire defines the machine-readable result shape shared by the
// scheduling server (POST /v1/schedule responses) and the mbsp-sched
// CLI's -json mode, so the two surfaces are diffable: the same DAG,
// architecture and options produce the same bytes whether scheduled
// over HTTP or on the command line.
//
// Every field is deterministic for a deterministic run — there are no
// wall-clock timings in the response body (the server reports elapsed
// time in a header instead) — which is what lets the schedule cache
// store a Response and serve it byte-identically on a hit.
package wire

import (
	"fmt"
	"strings"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/portfolio"
)

// DAGInfo identifies the scheduled DAG.
type DAGInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Fingerprint is the canonical structural fingerprint (topology +
	// weights, relabeling-invariant); Digest is the labeling-sensitive
	// exact digest. Together they form the cache identity of the request.
	Fingerprint string `json:"fingerprint"`
	Digest      string `json:"digest"`
}

// ArchInfo mirrors mbsp.Arch.
type ArchInfo struct {
	P int     `json:"p"`
	R float64 `json:"r"`
	G float64 `json:"g"`
	L float64 `json:"l"`
}

// OpsInfo counts schedule operations by kind.
type OpsInfo struct {
	Computes int `json:"computes"`
	Saves    int `json:"saves"`
	Loads    int `json:"loads"`
	Deletes  int `json:"deletes"`
}

// FailureInfo is one candidate's classified failure.
type FailureInfo struct {
	Candidate string `json:"candidate"`
	Kind      string `json:"kind"`
	Error     string `json:"error"`
}

// CertificateInfo mirrors portfolio.Certificate.
type CertificateInfo struct {
	Cost         float64       `json:"cost"`
	Bound        float64       `json:"bound"`
	Gap          float64       `json:"gap"`
	Rung         string        `json:"rung"`
	Completed    []string      `json:"completed,omitempty"`
	Degraded     []string      `json:"degraded,omitempty"`
	Failed       []FailureInfo `json:"failed,omitempty"`
	FallbackUsed bool          `json:"fallback_used,omitempty"`
	Interrupted  bool          `json:"interrupted,omitempty"`
}

// CandidateInfo is one portfolio candidate's deterministic outcome
// (costs and status; no timings).
type CandidateInfo struct {
	Name      string  `json:"name"`
	Cost      float64 `json:"cost,omitempty"`
	SyncCost  float64 `json:"sync_cost,omitempty"`
	AsyncCost float64 `json:"async_cost,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// CacheInfo is the server-side provenance of a response. Absent in CLI
// output and in the stored cache value; the server stamps it per
// request.
type CacheInfo struct {
	// Hit reports that the schedule came from the fingerprint cache.
	Hit bool `json:"hit"`
	// Provenance is one of "cold" (computed by this request), "hit"
	// (served from cache), "coalesced" (shared another request's
	// in-flight computation), or "deadline-degraded" (the per-request
	// deadline fired first; the response is the anytime fallback and was
	// not cached).
	Provenance string `json:"provenance"`
	// Key is the cache key the request mapped to.
	Key string `json:"key"`
}

// Response is the full scheduling result.
type Response struct {
	DAG         DAGInfo          `json:"dag"`
	Arch        ArchInfo         `json:"arch"`
	Model       string           `json:"model"`
	Winner      string           `json:"winner"`
	Cost        float64          `json:"cost"`
	SyncCost    float64          `json:"sync_cost"`
	AsyncCost   float64          `json:"async_cost"`
	Supersteps  int              `json:"supersteps"`
	Ops         OpsInfo          `json:"ops"`
	Certificate *CertificateInfo `json:"certificate,omitempty"`
	Candidates  []CandidateInfo  `json:"candidates,omitempty"`
	// Schedule is the full schedule in the mbsp text format
	// (mbsp.WriteSchedule); byte-identity of two responses' Schedule
	// fields is byte-identity of the schedules.
	Schedule string     `json:"schedule"`
	Cache    *CacheInfo `json:"cache,omitempty"`
}

// ModelName renders a cost model for the wire.
func ModelName(m mbsp.CostModel) string { return m.String() }

// FromSchedule builds a Response for a bare schedule (no portfolio
// context): the CLI's single-method path.
func FromSchedule(g *graph.DAG, arch mbsp.Arch, model mbsp.CostModel, winner string, s *mbsp.Schedule) (*Response, error) {
	resp := &Response{
		DAG: DAGInfo{
			Name:        g.Name(),
			N:           g.N(),
			M:           g.M(),
			Fingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
			Digest:      fmt.Sprintf("%016x", g.ExactDigest()),
		},
		Arch:       ArchInfo{P: arch.P, R: arch.R, G: arch.G, L: arch.L},
		Model:      ModelName(model),
		Winner:     winner,
		Cost:       s.Cost(model),
		SyncCost:   s.SyncCost(),
		AsyncCost:  s.AsyncCost(),
		Supersteps: s.NumSupersteps(),
	}
	resp.Ops.Computes, resp.Ops.Saves, resp.Ops.Loads, resp.Ops.Deletes = s.Ops()
	var b strings.Builder
	if err := mbsp.WriteSchedule(&b, s); err != nil {
		return nil, fmt.Errorf("wire: serializing schedule: %w", err)
	}
	resp.Schedule = b.String()
	return resp, nil
}

// FromResult builds a Response from a portfolio.RunAnytime result,
// including the anytime certificate and the per-candidate ledger.
func FromResult(g *graph.DAG, arch mbsp.Arch, model mbsp.CostModel, res *portfolio.Result) (*Response, error) {
	if res == nil || res.Best == nil {
		return nil, fmt.Errorf("wire: result has no schedule")
	}
	resp, err := FromSchedule(g, arch, model, res.BestName, res.Best)
	if err != nil {
		return nil, err
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		ci := CandidateInfo{Name: c.Name, Degraded: c.Degraded}
		if c.Err != nil {
			ci.Error = c.Err.Error()
		} else {
			ci.Cost, ci.SyncCost, ci.AsyncCost = c.Cost, c.SyncCost, c.AsyncCost
		}
		resp.Candidates = append(resp.Candidates, ci)
	}
	cert := res.Certificate
	resp.Certificate = &CertificateInfo{
		Cost:         cert.BestCost,
		Bound:        cert.BestBound,
		Gap:          cert.Gap,
		Rung:         cert.Rung,
		Completed:    cert.Completed,
		Degraded:     cert.Degraded,
		FallbackUsed: cert.FallbackUsed,
		Interrupted:  cert.Interrupted,
	}
	for _, f := range cert.Failed {
		fi := FailureInfo{Candidate: f.Candidate, Kind: f.Kind.String()}
		if f.Err != nil {
			fi.Error = f.Err.Error()
		}
		resp.Certificate.Failed = append(resp.Certificate.Failed, fi)
	}
	return resp, nil
}

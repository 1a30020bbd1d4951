package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"mbsp/internal/portfolio"
	"mbsp/internal/wire"
)

// FuzzParseRequest drives the architecture query parser with arbitrary
// raw queries over a fixed small DAG body. parseRequest must never panic;
// it fails only with an *httpError carrying 400, and every request it
// accepts has between 1 and maxProcs processors, finite non-negative r,
// g and L, exactly the query's r when that parses above 0, a deadline
// within the compute budget, and a cache key that parsing the same
// request again reproduces. The corpus is seeded with
// the queries of the malformed-request table and a few valid ones.
//
//	go test -run '^$' -fuzz '^FuzzParseRequest$' -fuzztime 10s ./internal/server
func FuzzParseRequest(f *testing.F) {
	const body = "dag chain 3 2\nnode 0 1 1\nnode 1 2 1\nnode 2 1 2\nedge 0 1\nedge 1 2\n"
	for _, tc := range badRequests {
		f.Add(tc.query)
	}
	for _, q := range []string{"", "p=1", "p=3&rfactor=2.5&model=async", "p=2&r=7&g=0&l=0&deadline_ms=1e300", "p=1024"} {
		f.Add(q)
	}
	srv, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	parse := func(raw string) (*request, error) {
		return srv.parseRequest(&http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/schedule", RawQuery: raw},
			Body:   io.NopCloser(strings.NewReader(body)),
		})
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req, err := parse(raw)
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.status != http.StatusBadRequest {
				t.Fatalf("query %q: want a 400 *httpError, got %T: %v", raw, err, err)
			}
			return
		}
		a := req.arch
		if a.P < 1 || a.P > maxProcs {
			t.Fatalf("query %q: accepted P=%d", raw, a.P)
		}
		for _, v := range []float64{a.R, a.G, a.L} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("query %q: accepted %v", raw, a)
			}
		}
		u := url.URL{RawQuery: raw}
		if r, err := strconv.ParseFloat(u.Query().Get("r"), 64); err == nil && r > 0 && a.R != r {
			t.Fatalf("query %q: scheduled at r=%v, not the query's %v", raw, a.R, r)
		}
		if req.deadline < 0 || req.deadline > srv.cfg.ComputeTimeout {
			t.Fatalf("query %q: deadline %v outside [0, %v]", raw, req.deadline, srv.cfg.ComputeTimeout)
		}
		again, err := parse(raw)
		if err != nil {
			t.Fatalf("query %q: accepted once, then rejected: %v", raw, err)
		}
		if again.key != req.key {
			t.Fatalf("query %q: keys differ across parses: %q vs %q", raw, req.key, again.key)
		}
	})
}

// FuzzRecoverEntry drives one persisted cache record payload through the
// boot path's decode and admission check (admitRecovered with the
// server's validateRecovered). The payload is untrusted: the checksum
// only proves the bytes are what some server wrote. It must never
// panic, and every entry it admits is one the live store path would
// have cached (cacheable) under exactly the key this server's
// configuration assigns to the response's own DAG, architecture and
// model. Those two restate the admission check; the independent one is
// the journal round trip: an admitted entry, written back the way the
// store path journals it, is admitted again under the same key, and its
// bytes are a fixed point of decode and re-encode, so a restart never
// changes or drops what the previous boot restored. The corpus is seeded
// with an admissible entry and near misses.
//
//	go test -run '^$' -fuzz '^FuzzRecoverEntry$' -fuzztime 10s ./internal/server
func FuzzRecoverEntry(f *testing.F) {
	srv, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	cfg := srv.cfg
	keyOf := func(r *wire.Response) string {
		return keyString(r.DAG.Fingerprint, r.DAG.Digest, r.Arch.P, r.Arch.R, r.Arch.G, r.Arch.L,
			r.Model, cfg.Seed, cfg.ILPNodeLimit, cfg.MaxModelRows)
	}
	resp := &wire.Response{
		DAG:      wire.DAGInfo{Name: "chain", N: 3, M: 2, Fingerprint: "f00d", Digest: "beef"},
		Arch:     wire.ArchInfo{P: 2, R: 7, G: 1, L: 10},
		Model:    "sync",
		Winner:   "ilp",
		Cost:     12,
		Schedule: "mbsp-schedule 2 7 1 10\nsuperstep\n",
		Certificate: &wire.CertificateInfo{
			Cost: 12, Bound: 10, Gap: 0.2, Rung: portfolio.RungPortfolio,
		},
	}
	entry := func(key string, r *wire.Response) []byte {
		payload, err := json.Marshal(persistedEntry{Key: key, Response: r})
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	good := entry(keyOf(resp), resp)
	if _, ok := admitRecovered(good, srv.validateRecovered); !ok {
		f.Fatal("seed entry is not admissible")
	}
	f.Add(good)
	f.Add(entry("stale-key", resp))
	f.Add(entry(keyOf(resp), nil))
	stamped := *resp
	stamped.Cache = &wire.CacheInfo{Hit: true, Provenance: "hit", Key: keyOf(resp)}
	f.Add(entry(keyOf(resp), &stamped))
	degraded := *resp
	degraded.Certificate = &wire.CertificateInfo{Rung: portfolio.RungPortfolio, Degraded: []string{"ilp"}}
	f.Add(entry(keyOf(resp), &degraded))
	f.Add([]byte(`{"key":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"key":"k","response":{"arch":{"p":1e400}}}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		e, ok := admitRecovered(payload, srv.validateRecovered)
		if !ok {
			return
		}
		if !cacheable(e.Response) {
			t.Fatalf("payload %q: admitted an entry the store path would not cache", payload)
		}
		if want := keyOf(e.Response); e.Key != want {
			t.Fatalf("payload %q: admitted under key %q, want %q", payload, e.Key, want)
		}
		journaled, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("payload %q: admitted entry does not re-encode: %v", payload, err)
		}
		again, ok := admitRecovered(journaled, srv.validateRecovered)
		if !ok || again.Key != e.Key {
			t.Fatalf("payload %q: re-journaled as %q, then admitted=%v under key %q", payload, journaled, ok, again.Key)
		}
		if rejournaled, err := json.Marshal(again); err != nil || !bytes.Equal(rejournaled, journaled) {
			t.Fatalf("payload %q: journal bytes not a fixed point: %q then %q (%v)", payload, journaled, rejournaled, err)
		}
	})
}

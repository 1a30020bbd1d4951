package server

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzParseRequest drives the architecture query parser with arbitrary
// raw queries over a fixed small DAG body. parseRequest must never panic;
// it fails only with an *httpError carrying 400, and every request it
// accepts has between 1 and maxProcs processors, finite non-negative r,
// g and L, a deadline within the compute budget, and a cache key that
// parsing the same request again reproduces. The corpus is seeded with
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

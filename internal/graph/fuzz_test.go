package graph_test

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/workloads"
)

// FuzzRead drives the DAG text parser — the scheduling server's request
// body — with arbitrary bytes. Read must never panic; it fails only with
// a *graph.ParseError, graph.ErrCyclic or a reader error (here only
// bufio.ErrTooLong), and every DAG it accepts must survive Write→Read
// with the same canonical fingerprint and exact digest, the hashes the
// schedule cache keys on. The corpus is seeded with the serialized tiny
// registry instances and every malformed-input class.
//
//	go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/graph
func FuzzRead(f *testing.F) {
	for _, inst := range workloads.Tiny() {
		var buf bytes.Buffer
		if err := graph.Write(&buf, inst.DAG); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, tc := range malformedInputs {
		f.Add([]byte(tc.input))
	}
	f.Add([]byte(cyclicInput))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.Read(bytes.NewReader(data))
		if err != nil {
			var pe *graph.ParseError
			if !errors.As(err, &pe) && !errors.Is(err, graph.ErrCyclic) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := graph.Write(&buf, g); err != nil {
			t.Fatalf("Write: %v", err)
		}
		h, err := graph.Read(&buf)
		if err != nil {
			t.Fatalf("Read(Write(g)): %v\n%s", err, buf.Bytes())
		}
		if h.Fingerprint() != g.Fingerprint() || h.ExactDigest() != g.ExactDigest() {
			t.Fatalf("round trip changed hashes:\n%s", buf.Bytes())
		}
	})
}

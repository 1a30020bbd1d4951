package graph_test

// Round-trip property tests for the DAG wire format. The text format is
// now an untrusted network input path (the scheduling server accepts it
// as a request body), so this file pins two properties:
//
//  1. Read(Write(g)) preserves the canonical fingerprint and the exact
//     digest for every registry workload and for random DAGs — the
//     schedule cache keys on those hashes, so a lossy serialization
//     would silently poison it.
//  2. Malformed input is rejected with a typed error (*graph.ParseError,
//     or graph.ErrCyclic for cycles), never a panic.

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/workloads"
)

func roundTrip(t *testing.T, g *graph.DAG) *graph.DAG {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatalf("%s: Write: %v", g.Name(), err)
	}
	h, err := graph.Read(&buf)
	if err != nil {
		t.Fatalf("%s: Read(Write(g)): %v", g.Name(), err)
	}
	return h
}

// TestRoundTripPreservesFingerprintOnRegistry: every workload in every
// bundled dataset survives Write→Read with identical canonical
// fingerprint, exact digest, and size.
func TestRoundTripPreservesFingerprintOnRegistry(t *testing.T) {
	datasets := map[string][]workloads.Instance{
		"tiny":        workloads.Tiny(),
		"small":       workloads.Small(),
		"paper-tiny":  workloads.PaperTiny(),
		"paper-small": workloads.PaperSmall(),
	}
	for ds, insts := range datasets {
		for _, inst := range insts {
			h := roundTrip(t, inst.DAG)
			if h.N() != inst.DAG.N() || h.M() != inst.DAG.M() {
				t.Errorf("%s/%s: size changed: n=%d m=%d -> n=%d m=%d",
					ds, inst.Name, inst.DAG.N(), inst.DAG.M(), h.N(), h.M())
				continue
			}
			if got, want := h.Fingerprint(), inst.DAG.Fingerprint(); got != want {
				t.Errorf("%s/%s: fingerprint %x != %x", ds, inst.Name, got, want)
			}
			if got, want := h.ExactDigest(), inst.DAG.ExactDigest(); got != want {
				t.Errorf("%s/%s: exact digest %x != %x", ds, inst.Name, got, want)
			}
		}
	}
}

// reverseEdgeLines returns body with its edge lines in reverse order and
// every other line in place.
func reverseEdgeLines(body []byte) []byte {
	lines := strings.SplitAfter(string(body), "\n")
	var edges []int
	for i, l := range lines {
		if strings.HasPrefix(l, "edge ") {
			edges = append(edges, i)
		}
	}
	out := slices.Clone(lines)
	for i, j := range edges {
		out[j] = lines[edges[len(edges)-1-i]]
	}
	return []byte(strings.Join(out, ""))
}

// TestReadSortsAdjacency: a body and its copy with the edge lines
// reversed parse to equal, sorted children and parents lists, and every
// tiny and small workload parses back to the children lists it was
// written from, so sorting changes no body the repository sends.
func TestReadSortsAdjacency(t *testing.T) {
	reordered := 0
	for _, inst := range append(workloads.Tiny(), workloads.Small()...) {
		var buf bytes.Buffer
		if err := graph.Write(&buf, inst.DAG); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		fwd, err := graph.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		rev, err := graph.Read(bytes.NewReader(reverseEdgeLines(body)))
		if err != nil {
			t.Fatalf("%s reversed: %v", inst.Name, err)
		}
		if rev.ExactDigest() != fwd.ExactDigest() {
			t.Fatalf("%s: reversing edge lines changed the exact digest", inst.Name)
		}
		for v := 0; v < fwd.N(); v++ {
			if !slices.Equal(fwd.Children(v), rev.Children(v)) || !slices.Equal(fwd.Parents(v), rev.Parents(v)) {
				t.Fatalf("%s: node %d: reversed body parsed to children %v parents %v, want %v %v",
					inst.Name, v, rev.Children(v), rev.Parents(v), fwd.Children(v), fwd.Parents(v))
			}
			if !slices.IsSorted(fwd.Children(v)) || !slices.IsSorted(fwd.Parents(v)) {
				t.Fatalf("%s: node %d: unsorted adjacency after Read", inst.Name, v)
			}
			if !slices.Equal(fwd.Children(v), inst.DAG.Children(v)) {
				t.Fatalf("%s: node %d: children %v parsed as %v", inst.Name, v, inst.DAG.Children(v), fwd.Children(v))
			}
			if len(fwd.Children(v)) > 1 {
				reordered++
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no node with two children: the reversal reordered nothing")
	}
}

// TestRoundTripPreservesFingerprintRandom: the same property over a
// spread of random layered and Erdős–Rényi-style DAGs, including
// labeled nodes and zero weights.
func TestRoundTripPreservesFingerprintRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := graph.RandomLayered("rl", 3+int(seed%4), 2+int(seed%5), 0.4, 9, 5, seed)
		g.SetLabel(0, "in")
		g.SetMem(0, 0)
		h := roundTrip(t, g)
		if h.Fingerprint() != g.Fingerprint() || h.ExactDigest() != g.ExactDigest() {
			t.Fatalf("layered seed %d: round trip changed hashes", seed)
		}
		r := graph.RandomDAG("rd", 10+int(seed)*3, 0.25, 4, 9, 5, seed)
		h = roundTrip(t, r)
		if h.Fingerprint() != r.Fingerprint() || h.ExactDigest() != r.ExactDigest() {
			t.Fatalf("random seed %d: round trip changed hashes", seed)
		}
	}
}

// malformedInputs covers every malformed-input class Read rejects with a
// *graph.ParseError; FuzzRead seeds its corpus with them.
var malformedInputs = []struct {
	name  string
	input string
}{
	{"empty", ""},
	{"comment-only", "# nothing here\n"},
	{"node-before-header", "node 0 1 1\n"},
	{"edge-before-header", "edge 0 1\n"},
	{"short-header", "dag\n"},
	{"duplicate-header", "dag a 0 0\ndag b 0 0\n"},
	{"bad-counts", "dag x nope nope\n"},
	{"negative-counts", "dag x -1 0\n"},
	{"short-node", "dag x 1 0\nnode 0 1\n"},
	{"bad-node-id", "dag x 1 0\nnode zero 1 1\n"},
	{"out-of-order-node", "dag x 2 0\nnode 1 1 1\nnode 0 1 1\n"},
	{"bad-comp", "dag x 1 0\nnode 0 one 1\n"},
	{"bad-mem", "dag x 1 0\nnode 0 1 one\n"},
	{"negative-weight", "dag x 1 0\nnode 0 -1 1\n"},
	{"nan-weight", "dag x 1 0\nnode 0 NaN 1\n"},
	{"inf-weight", "dag x 1 0\nnode 0 1 +Inf\n"},
	{"short-edge", "dag x 2 1\nnode 0 1 1\nnode 1 1 1\nedge 0\n"},
	{"bad-edge-ids", "dag x 2 1\nnode 0 1 1\nnode 1 1 1\nedge zero 1\n"},
	{"dangling-edge", "dag x 2 1\nnode 0 1 1\nnode 1 1 1\nedge 0 5\n"},
	{"negative-edge", "dag x 2 1\nnode 0 1 1\nnode 1 1 1\nedge -1 1\n"},
	{"self-loop", "dag x 1 1\nnode 0 1 1\nedge 0 0\n"},
	{"unknown-directive", "dag x 0 0\nfrobnicate\n"},
	{"node-count-mismatch", "dag x 3 0\nnode 0 1 1\n"},
	{"edge-count-mismatch", "dag x 2 0\nnode 0 1 1\nnode 1 1 1\nedge 0 1\n"},
	{"duplicate-edge-collapse", "dag x 2 2\nnode 0 1 1\nnode 1 1 1\nedge 0 1\nedge 0 1\n"},
}

// cyclicInput is well formed but cyclic: Read rejects it with ErrCyclic.
const cyclicInput = "dag x 2 2\nnode 0 1 1\nnode 1 1 1\nedge 0 1\nedge 1 0\n"

// TestReadMalformedTypedErrors: every malformed-input class returns a
// typed error and never panics.
func TestReadMalformedTypedErrors(t *testing.T) {
	for _, tc := range malformedInputs {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on %s: %v", tc.name, r)
				}
			}()
			_, err := graph.Read(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("Read accepted malformed input %q", tc.input)
			}
			var pe *graph.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want *graph.ParseError, got %T: %v", err, err)
			}
		})
	}

	// Cycles are structural, not syntactic: they surface as ErrCyclic.
	if _, err := graph.Read(strings.NewReader(cyclicInput)); !errors.Is(err, graph.ErrCyclic) {
		t.Fatalf("want ErrCyclic for cyclic input, got %v", err)
	}
}

package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"mbsp/internal/graph"
)

// goldenDatasetsDigest is the SHA-256 over graph.Write of every instance
// of Tiny, Small, PaperTiny and PaperSmall, in that order. Any change to
// a generator, a seed, a name or the dataset order moves it.
const goldenDatasetsDigest = "8b939e87fd9a1ad2c307dd20be517ca652b1e8bdc1fe67287f1778b5060c145e"

// unknownNameError is ByName's error text for an unknown name: every
// dataset entry's name in dataset order, duplicates included.
const unknownNameError = `workloads: unknown instance "nope" (known: [bicgstab k-means pregel spmv_N6 spmv_N7 spmv_N10 CG_N2_K2 CG_N3_K1 CG_N4_K1 exp_N4_K2 exp_N5_K3 exp_N6_K4 kNN_N4_K3 kNN_N5_K3 kNN_N6_K4 simple_pagerank snni_graphchall. spmv_N25 spmv_N35 CG_N5_K4 CG_N7_K2 exp_N10_K8 exp_N15_K4 kNN_N10_K8 kNN_N15_K4 bicgstab k-means pregel spmv_N12 spmv_N14 spmv_N16 CG_N4_K2 CG_N5_K2 CG_N6_K2 exp_N6_K4 exp_N7_K5 exp_N8_K5 kNN_N6_K5 kNN_N7_K5 kNN_N8_K6 simple_pagerank snni_graphchall. spmv_N60 spmv_N90 CG_N8_K5 CG_N12_K3 exp_N16_K10 exp_N24_K6 kNN_N16_K10 kNN_N24_K6])`

func dagBytes(t *testing.T, g *graph.DAG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatalf("%s: Write: %v", g.Name(), err)
	}
	return buf.Bytes()
}

// TestDatasetsGoldenDigest pins every dataset's bytes, and checks that
// ByName returns, for every name, the bytes of the first dataset entry
// with that name.
func TestDatasetsGoldenDigest(t *testing.T) {
	h := sha256.New()
	first := map[string][]byte{}
	var names []string
	for _, set := range [][]Instance{Tiny(), Small(), PaperTiny(), PaperSmall()} {
		for _, inst := range set {
			b := dagBytes(t, inst.DAG)
			h.Write(b)
			if _, ok := first[inst.Name]; !ok {
				first[inst.Name] = b
				names = append(names, inst.Name)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDatasetsDigest {
		t.Errorf("datasets digest %s, want %s", got, goldenDatasetsDigest)
	}
	if len(names) != 44 {
		t.Errorf("%d distinct names, want 44", len(names))
	}
	for _, name := range names {
		inst, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if inst.Name != name {
			t.Errorf("ByName(%q) returned %q", name, inst.Name)
		}
		if !bytes.Equal(dagBytes(t, inst.DAG), first[name]) {
			t.Errorf("ByName(%q) differs from the first dataset entry of that name", name)
		}
	}
}

// TestByNameReturnsFreshDAG: callers may mutate what ByName returns, so
// each call builds its own DAG.
func TestByNameReturnsFreshDAG(t *testing.T) {
	a, err := ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	want := dagBytes(t, a.DAG)
	b, err := ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	if a.DAG == b.DAG {
		t.Fatal("two ByName calls returned the same *DAG")
	}
	a.DAG.SetMem(0, 99)
	a.DAG.SetName("mutated")
	c, err := ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dagBytes(t, b.DAG), want) || !bytes.Equal(dagBytes(t, c.DAG), want) {
		t.Fatal("mutating one ByName result changed another")
	}
}

func TestByNameUnknownError(t *testing.T) {
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("expected an error for an unknown name")
	}
	if err.Error() != unknownNameError {
		t.Fatalf("error text changed:\n got %s\nwant %s", err.Error(), unknownNameError)
	}
}

// TestNamesAreFirstEntries: Names lists each dataset entry's name once,
// at its first entry, in ByName's search order.
func TestNamesAreFirstEntries(t *testing.T) {
	var want []string
	seen := map[string]bool{}
	for _, set := range [][]Instance{Tiny(), Small(), PaperTiny(), PaperSmall()} {
		for _, inst := range set {
			if !seen[inst.Name] {
				seen[inst.Name] = true
				want = append(want, inst.Name)
			}
		}
	}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v\nwant %v", got, want)
	}
}

package twostage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mbsp/internal/bsp"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/workloads"
)

// goldenConvertDigest is the SHA-256 over every conversion in
// TestConvertGoldenDigest. It was recorded from the map-based converter
// and validator that the node-indexed ones replaced; any change to a
// schedule byte, a cost bit or an error text moves it.
const goldenConvertDigest = "4e336e4355abd2f1c0097945463d4e1da21a9ce2b103569bd7bc95983793caea"

// writeGoldenRecord appends one schedule's text, its sync and async cost
// bits and its validation verdict to h, under a case label.
func writeGoldenRecord(h *bytes.Buffer, label string, s *mbsp.Schedule, err error) {
	fmt.Fprintf(h, "== %s\n", label)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	if verr := s.Validate(); verr != nil {
		fmt.Fprintf(h, "invalid %v\n", verr)
	}
	fmt.Fprintf(h, "sync %x async %x\n", math.Float64bits(s.SyncCost()), math.Float64bits(s.AsyncCost()))
	if werr := mbsp.WriteSchedule(h, s); werr != nil {
		fmt.Fprintf(h, "write %v\n", werr)
	}
}

// extraSaveEvery returns every third non-source node of g, a stand-in
// for the boundary values divide-and-conquer passes as extraSave.
func extraSaveEvery(g *graph.DAG) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if !g.IsSource(v) && v%3 == 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestConvertGoldenDigest pins the converter's output byte for byte:
// tiny and small registry instances × P ∈ {1,2,4} × {BSPg, Cilk, DFS}
// stage 1 × {clairvoyant, LRU} × with and without extraSave, at a tight
// and a loose cache.
func TestConvertGoldenDigest(t *testing.T) {
	stage1 := []struct {
		name string
		run  func(g *graph.DAG, p int) (*bsp.Schedule, error)
	}{
		{"bspg", func(g *graph.DAG, p int) (*bsp.Schedule, error) {
			return bsp.BSPg(g, p, 1)
		}},
		{"cilk", func(g *graph.DAG, p int) (*bsp.Schedule, error) { return bsp.Cilk(g, p, 7) }},
		{"dfs", func(g *graph.DAG, p int) (*bsp.Schedule, error) { return bsp.DFS(g), nil }},
	}
	policies := []memmgr.Policy{memmgr.Clairvoyant{}, memmgr.LRU{}}
	var buf bytes.Buffer
	insts := append(workloads.Tiny(), workloads.Small()...)
	for _, inst := range insts {
		g := inst.DAG
		extra := extraSaveEvery(g)
		for _, p := range []int{1, 2, 4} {
			for _, st := range stage1 {
				b, err := st.run(g, p)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", inst.Name, st.name, p, err)
				}
				for _, rf := range []float64{1, 3} {
					arch := archFor(g, p, rf)
					for _, pol := range policies {
						for _, ex := range [][]int{nil, extra} {
							s, err := Convert(b, arch, pol, ex)
							label := fmt.Sprintf("%s P=%d %s r=%g %s extra=%d", inst.Name, p, st.name, rf, pol.Name(), len(ex))
							writeGoldenRecord(&buf, label, s, err)
						}
					}
				}
			}
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenConvertDigest {
		t.Fatalf("converter golden digest = %s, want %s", got, goldenConvertDigest)
	}
}

// TestConverterReuseMatchesFresh runs one Converter through the golden
// cases, which switch DAG, processor count, cache size, policy and
// extraSave from call to call, plus random processor assignments (the
// local search's input), and checks every record against a fresh
// Convert.
func TestConverterReuseMatchesFresh(t *testing.T) {
	var conv Converter
	check := func(label string, b *bsp.Schedule, arch mbsp.Arch, pol memmgr.Policy, ex []int) {
		t.Helper()
		var want, got bytes.Buffer
		s, err := Convert(b, arch, pol, ex)
		writeGoldenRecord(&want, label, s, err)
		s, err = conv.Convert(b, arch, pol, ex)
		writeGoldenRecord(&got, label, s, err)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: reused converter differs from a fresh one:\n%s\nwant:\n%s", label, got.String(), want.String())
		}
	}
	policies := []memmgr.Policy{memmgr.Clairvoyant{}, memmgr.LRU{}}
	rng := rand.New(rand.NewSource(5))
	for _, inst := range append(workloads.Tiny(), workloads.Small()...) {
		g := inst.DAG
		extra := extraSaveEvery(g)
		for _, p := range []int{4, 1, 2} {
			stage1 := []*bsp.Schedule{bsp.DFS(g)}
			if b, err := bsp.BSPg(g, p, 1); err == nil {
				stage1 = append(stage1, b)
			}
			if b, err := bsp.Cilk(g, p, 7); err == nil {
				stage1 = append(stage1, b)
			}
			for range 3 {
				proc := make([]int, g.N())
				for v := range proc {
					proc[v] = rng.Intn(p)
				}
				b, err := bsp.FromAssignment(g, p, proc)
				if err != nil {
					t.Fatal(err)
				}
				stage1 = append(stage1, b)
			}
			for i, b := range stage1 {
				for _, rf := range []float64{1, 3} {
					for _, pol := range policies {
						for _, ex := range [][]int{nil, extra} {
							check(fmt.Sprintf("%s P=%d stage1 %d r=%g %s extra=%d", inst.Name, p, i, rf, pol.Name(), len(ex)),
								b, archFor(g, p, rf), pol, ex)
						}
					}
				}
			}
		}
	}
}

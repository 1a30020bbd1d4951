package refine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mbsp/internal/mbsp"
	"mbsp/internal/memmgr"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// goldenImproveDigest is the SHA-256 over every search in
// TestImproveGoldenDigest. It was recorded from the map-based converter
// and validator that the node-indexed ones replaced; any change to a
// move's outcome moves it.
const goldenImproveDigest = "85778857965d2ddda1fe8b2a7cd573359bdb38b9d1dccd9994ba0503efdb1e64"

// goldenSearches runs the local search on every golden configuration
// (the tiny set × P ∈ {2,4} × both policies × both cost models × with
// and without extra saves) and hands each result to f.
func goldenSearches(t *testing.T, f func(label string, res Result)) {
	t.Helper()
	for _, inst := range workloads.Tiny() {
		g := inst.DAG
		var extra []int
		for v := 0; v < g.N(); v++ {
			if !g.IsSource(v) && v%4 == 1 {
				extra = append(extra, v)
			}
		}
		for _, p := range []int{2, 4} {
			arch := mbsp.Arch{P: p, R: 2 * g.MinCache(), G: 1, L: 10}
			base, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
			if err != nil {
				t.Fatalf("%s P=%d: %v", inst.Name, p, err)
			}
			for _, pol := range []memmgr.Policy{memmgr.Clairvoyant{}, memmgr.LRU{}} {
				for _, model := range []mbsp.CostModel{mbsp.Sync, mbsp.Async} {
					for i, ex := range [][]int{nil, extra} {
						seed := int64(11*p + i)
						res := Improve(base, Options{Budget: 150, Seed: seed, Model: model, Policy: pol, ExtraSave: ex})
						f(fmt.Sprintf("%s P=%d %s %s extra=%d seed=%d", inst.Name, p, pol.Name(), model, len(ex), seed), res)
					}
				}
			}
		}
	}
}

// TestImproveGoldenDigest pins the local search byte for byte: each move
// re-runs the converter and the cost, and each adopted move the
// validator, so a changed victim, verdict or cost bit anywhere along the
// walk changes the result. Every result must also validate.
func TestImproveGoldenDigest(t *testing.T) {
	var buf bytes.Buffer
	goldenSearches(t, func(label string, res Result) {
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: result invalid: %v", label, err)
		}
		fmt.Fprintf(&buf, "== %s\n", label)
		fmt.Fprintf(&buf, "cost %x evals %d improved %v\n", math.Float64bits(res.Cost), res.Evals, res.Improved)
		if err := mbsp.WriteSchedule(&buf, res.Schedule); err != nil {
			t.Fatal(err)
		}
	})
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenImproveDigest {
		t.Fatalf("local search golden digest = %s, want %s", got, goldenImproveDigest)
	}
}

// goldenScreened is the number of moves the lower bound screens over
// the golden configurations. It is a deterministic count, pinned
// exactly: a weaker bound lowers it, and an unsound one that screens a
// move the search would have adopted also moves the golden digest.
const goldenScreened = 10065

// TestMoveScreenCount pins how many of the golden searches' moves the
// lower bound rejects without converting them.
func TestMoveScreenCount(t *testing.T) {
	screened, evals := 0, 0
	goldenSearches(t, func(label string, res Result) {
		if res.Screened > res.Evals {
			t.Fatalf("%s: %d screened of %d evaluations", label, res.Screened, res.Evals)
		}
		screened += res.Screened
		evals += res.Evals
	})
	t.Logf("%d of %d evaluations screened", screened, evals)
	if screened != goldenScreened {
		t.Fatalf("screened %d moves, want %d", screened, goldenScreened)
	}
}

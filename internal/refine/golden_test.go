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

// TestImproveGoldenDigest pins the local search byte for byte: each move
// re-runs the converter and the cost, and each adopted move the
// validator, so a changed victim, verdict or cost bit anywhere along the
// walk changes the result. Every result must also validate.
func TestImproveGoldenDigest(t *testing.T) {
	var buf bytes.Buffer
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
						if err := res.Schedule.Validate(); err != nil {
							t.Fatalf("%s P=%d %s %s extra=%d: result invalid: %v", inst.Name, p, pol.Name(), model, len(ex), err)
						}
						fmt.Fprintf(&buf, "== %s P=%d %s %s extra=%d seed=%d\n", inst.Name, p, pol.Name(), model, len(ex), seed)
						fmt.Fprintf(&buf, "cost %x evals %d improved %v\n", math.Float64bits(res.Cost), res.Evals, res.Improved)
						if err := mbsp.WriteSchedule(&buf, res.Schedule); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenImproveDigest {
		t.Fatalf("local search golden digest = %s, want %s", got, goldenImproveDigest)
	}
}

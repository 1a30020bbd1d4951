package portfolio

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// goldenCandidatesDigest is the SHA-256 over every record in
// TestDefaultCandidatesGolden. It was recorded from the hand-written
// candidate list that the twostage pipeline table replaced; any change to
// a candidate's name, position, seed or schedule moves it.
const goldenCandidatesDigest = "4d28a864822e57db342d9e9bf70c2e1f23307dd0ef5a6d91ff799e86c01f2f58"

// TestDefaultCandidatesGolden pins the candidate set byte for byte: for
// every tiny instance (k-means and pregel fall below DNCMinNodes, the
// rest above it) at P ∈ {1,4} and a tight and a loose cache, the
// candidate names in order, then each two-stage candidate run on its own
// under Options{ILP: ilpsched.Options{Seed: 1}}: its sync and async cost bits and its schedule
// text.
func TestDefaultCandidatesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, inst := range workloads.Tiny() {
		g := inst.DAG
		for _, p := range []int{1, 4} {
			for _, rf := range []float64{1, 3} {
				arch := mbsp.Arch{P: p, R: rf * g.MinCache(), G: 1, L: 10}
				cands := DefaultCandidates(g, arch)
				names := make([]string, len(cands))
				for i, c := range cands {
					names[i] = c.Name
				}
				fmt.Fprintf(&buf, "== %s P=%d r=%g: %s\n", inst.Name, p, rf, strings.Join(names, " "))
				for _, c := range cands {
					if !strings.Contains(c.Name, "+") {
						continue // the ILP candidates
					}
					s, err := c.Run(context.Background(), g, arch, Options{ILP: ilpsched.Options{Seed: 1}})
					if err != nil {
						t.Fatalf("%s P=%d r=%g %s: %v", inst.Name, p, rf, c.Name, err)
					}
					fmt.Fprintf(&buf, "-- %s sync %x async %x\n", c.Name, math.Float64bits(s.SyncCost()), math.Float64bits(s.AsyncCost()))
					if err := mbsp.WriteSchedule(&buf, s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenCandidatesDigest {
		t.Fatalf("candidate golden digest = %s, want %s", got, goldenCandidatesDigest)
	}
}

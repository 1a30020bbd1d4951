package ilpsched

import (
	"context"
	"math"
	"testing"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
)

// TestNonFiniteModelHonorsContext: a scheduling model priced at L=+Inf
// carries infinite objective coefficients, which turn breakpoint ratios
// of the dual simplex's bound-flipping ratio test into NaN. The solve
// must still stop once its context expires instead of spinning where
// cancellation cannot reach it. The solve runs on its own goroutine so
// that a regression fails the test rather than hanging it.
func TestNonFiniteModelHonorsContext(t *testing.T) {
	g := graph.Chain(3)
	opts := Options{}.withDefaults()
	warm, err := warmStart(g, mbsp.Arch{P: 2, R: 6, G: 1, L: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 2, R: 6, G: 1, L: math.Inf(1)}
	skel, T, err := horizon(warm, arch, opts)
	if err != nil {
		t.Fatal(err)
	}
	im := buildModel(g, arch, opts, T)
	x := im.assignment(skel)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan mip.Result, 1)
	go func() {
		done <- im.m.Solve(mip.Options{Context: ctx, NodeLimit: opts.NodeLimit, WarmStart: x})
	}()
	select {
	case res := <-done:
		t.Logf("status %v after %d nodes, %d simplex iterations", res.Status, res.ILPNodes, res.SimplexIters)
	case <-time.After(5 * time.Second):
		t.Fatal("solve did not return within 3s of its 2s context deadline")
	}
}

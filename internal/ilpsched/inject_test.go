package ilpsched

import (
	"context"
	"testing"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/workloads"
)

// TestSolveReportsTreeCounters checks that Solve's Stats carry every
// counter of its branch-and-bound tree, the injected faults included: a
// node-limited solve under fault injection reports exactly the counters
// of the same tree searched directly through mip.
func TestSolveReportsTreeCounters(t *testing.T) {
	inj := faultinject.New(7, 0.5, 0, faultinject.ColdFallback, faultinject.SingularFactor)
	for _, name := range []string{"k-means"} {
		inst, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
		opts := Options{
			NodeLimit:         10,
			MIPWorkers:        1,
			LocalSearchBudget: 1,
			TimeLimit:         time.Hour,
			Inject:            inj,
		}
		_, st, err := Solve(inst.DAG, arch, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.UsedILP {
			t.Fatalf("%s: tree search skipped (%s)", name, st.ILPStatus)
		}

		// The same tree, searched directly.
		opts = opts.withDefaults()
		warm, err := warmStart(inst.DAG, arch, opts)
		if err != nil {
			t.Fatal(err)
		}
		skel, T, err := horizon(warm, arch, opts)
		if err != nil {
			t.Fatal(err)
		}
		im := buildModel(inst.DAG, arch, opts, T)
		x := im.assignment(skel)
		if im.m.CheckFeasible(x, 1e-6) != nil {
			x = nil
		}
		res := im.m.Solve(mip.Options{
			Context:   context.Background(),
			NodeLimit: opts.NodeLimit,
			WarmStart: x,
			Workers:   opts.MIPWorkers,
			Inject:    inj,
		})
		if res.InjectedFaults == 0 {
			t.Fatalf("%s: no fault fired in a %d-node tree; the test needs a higher rate", name, res.ILPNodes)
		}
		if st.Counters != res.Counters {
			t.Fatalf("%s: Stats counters %+v, tree counters %+v", name, st.Counters, res.Counters)
		}
		t.Logf("%s: %d nodes, %d injected faults", name, st.ILPNodes, st.InjectedFaults)
	}
}

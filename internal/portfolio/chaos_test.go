package portfolio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

// This file is the chaos suite for the anytime contract: every
// fault-injection mode, short deadlines, candidate panics and pre-expired
// contexts must all still yield a validated schedule with a populated
// certificate — and injected faults must not break the byte-identical
// determinism guarantee. scripts/verify.sh runs it under -race.

// chaosCert asserts the certificate invariants every anytime result must
// satisfy: present, internally consistent, and agreeing with the result.
func chaosCert(t *testing.T, res *Result, label string) {
	t.Helper()
	cert := res.Certificate
	if cert == nil {
		t.Fatalf("%s: nil certificate", label)
	}
	if cert.BestCost != res.BestCost {
		t.Fatalf("%s: certificate cost %g != result cost %g", label, cert.BestCost, res.BestCost)
	}
	if cert.BestBound <= 0 || cert.BestBound > cert.BestCost {
		t.Fatalf("%s: bound %g not in (0, %g]", label, cert.BestBound, cert.BestCost)
	}
	if cert.Gap < 0 || cert.Gap > 1 {
		t.Fatalf("%s: gap %g outside [0,1]", label, cert.Gap)
	}
	if cert.FallbackUsed != (cert.Rung != RungPortfolio) {
		t.Fatalf("%s: FallbackUsed=%v inconsistent with rung %q", label, cert.FallbackUsed, cert.Rung)
	}
	for _, name := range cert.Degraded {
		found := false
		for _, c := range cert.Completed {
			if c == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: degraded candidate %s not listed as completed", label, name)
		}
	}
}

// TestChaosEveryModeOnRegistry is the acceptance gate: with a 50ms
// deadline and each injection mode enabled in turn, the anytime portfolio
// on every registry workload returns a valid schedule with a populated
// certificate — never an error.
func TestChaosEveryModeOnRegistry(t *testing.T) {
	for _, mode := range faultinject.AllModes() {
		inj := faultinject.New(42, 0, 0, mode)
		for _, inst := range workloads.Tiny() {
			label := fmt.Sprintf("%s/%s", mode, inst.Name)
			arch := baseArch(inst.DAG)
			opts := testOpts()
			opts.Workers = 4
			opts.ILP.Inject = inj
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			res, err := RunAnytime(ctx, inst.DAG, arch, opts)
			cancel()
			if err != nil {
				t.Fatalf("%s: anytime run errored: %v", label, err)
			}
			if res.Best == nil {
				t.Fatalf("%s: no schedule", label)
			}
			if verr := res.Best.Validate(); verr != nil {
				t.Fatalf("%s: invalid schedule: %v", label, verr)
			}
			if res.Best.Cost(opts.ILP.Model) != res.BestCost {
				t.Fatalf("%s: BestCost %g != schedule cost %g", label, res.BestCost, res.Best.Cost(opts.ILP.Model))
			}
			chaosCert(t, res, label)
		}
	}
}

// TestChaosModeWorkerMatrix crosses every injection mode with serial and
// parallel worker pools on representative instances (including one large
// enough for the DnC candidate), asserting the same anytime invariants.
func TestChaosModeWorkerMatrix(t *testing.T) {
	for _, name := range []string{"spmv_N6", "CG_N2_K2", "k-means"} {
		inst, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		arch := baseArch(inst.DAG)
		for _, mode := range faultinject.AllModes() {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, mode, workers)
				opts := testOpts()
				opts.Workers = workers
				opts.ILP.MIPWorkers = workers
				opts.ILP.Inject = faultinject.New(7, 0.5, 50*time.Microsecond, mode)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				res, err := RunAnytime(ctx, inst.DAG, arch, opts)
				cancel()
				if err != nil {
					t.Fatalf("%s: anytime run errored: %v", label, err)
				}
				if verr := res.Best.Validate(); verr != nil {
					t.Fatalf("%s: invalid schedule: %v", label, verr)
				}
				chaosCert(t, res, label)
			}
		}
	}
}

// chaosSnapshot extends the determinism snapshot with the certificate, so
// byte-identity covers the anytime ledger too.
func chaosSnapshot(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(snapshot(t, res))
	fmt.Fprintf(&buf, "certificate %v\n", res.Certificate)
	return buf.Bytes()
}

// TestChaosDeterministicByteIdentical pins the harness's headline
// property: under node limits (the deterministic budget) a fixed fault
// seed yields byte-identical runs — same schedules, same certificate —
// across repeats and worker-pool widths, with every injection mode live.
// Injected latency may slow a run down but must not change any byte.
//
// The guarantee covers node-bound candidates only: one cut by its wall
// clock returns a timing-dependent best-so-far schedule (Degraded), so
// the fixture keeps every candidate inside its budget and asserts it.
// The holistic models of the two registry instances at P=4 (5949 and
// 31989 rows) need seconds per cold root relaxation, tens under -race,
// so ILP.MaxModelRows keeps their ILP candidates on the warm-start +
// local-search path; the small P=1 DAG's 586-row model is where the
// node-limited tree search runs with faults injected.
func TestChaosDeterministicByteIdentical(t *testing.T) {
	type fixture struct {
		g    *graph.DAG
		arch mbsp.Arch
	}
	var fixtures []fixture
	for _, name := range []string{"spmv_N6", "CG_N2_K2"} {
		inst, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{inst.DAG, baseArch(inst.DAG)})
	}
	tree := graph.RandomLayered("chaos-tree", 4, 4, 0.5, 9, 5, 2)
	fixtures = append(fixtures, fixture{tree, mbsp.Arch{P: 1, R: 3 * tree.MinCache(), G: 1, L: 10}})
	chaosOpts := func(workers int, faultSeed uint64) Options {
		opts := deterministicOpts(workers)
		opts.ILP.MaxModelRows = 3000
		opts.ILP.Inject = faultinject.New(faultSeed, 0.5, 50*time.Microsecond)
		return opts
	}
	for _, fx := range fixtures {
		name := fx.g.Name()
		var want []byte
		for _, workers := range []int{1, 4} {
			for rep := 0; rep < 2; rep++ {
				res, err := RunAnytime(context.Background(), fx.g, fx.arch, chaosOpts(workers, 99))
				if err != nil {
					t.Fatalf("%s (workers=%d rep=%d): %v", name, workers, rep, err)
				}
				for _, c := range res.Candidates {
					if c.Degraded {
						t.Fatalf("%s (workers=%d rep=%d): candidate %s was cut by its clock after %v, not its node limit",
							name, workers, rep, c.Name, c.Elapsed)
					}
				}
				got := chaosSnapshot(t, res)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: chaos run diverged at workers=%d rep=%d\nfirst:\n%s\nthis:\n%s",
						name, workers, rep, want, got)
				}
			}
		}
		// A different fault seed must be allowed to change the outcome but
		// never its validity; run one to make sure seed reaches the harness.
		res, err := RunAnytime(context.Background(), fx.g, fx.arch, chaosOpts(4, 100))
		if err != nil {
			t.Fatalf("%s (seed 100): %v", name, err)
		}
		if verr := res.Best.Validate(); verr != nil {
			t.Fatalf("%s (seed 100): invalid schedule: %v", name, verr)
		}
	}
}

// TestChaosPanicContainment injects a candidate that panics outright: the
// portfolio must contain it, race on, return the surviving candidate's
// schedule, and ledger the panic as a classified *PanicError with the
// offending candidate's name and a captured stack.
func TestChaosPanicContainment(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	arch := baseArch(inst.DAG)
	opts := testOpts()
	opts.Workers = 2
	opts.Candidates = append(DefaultCandidates(inst.DAG, arch), Candidate{
		Name: "bomb",
		Run: func(context.Context, *graph.DAG, mbsp.Arch, Options) (*mbsp.Schedule, error) {
			panic("injected test panic")
		},
	})
	base := runtime.NumGoroutine()
	res, err := RunAnytime(context.Background(), inst.DAG, arch, opts)
	if err != nil {
		t.Fatalf("panic escaped the anytime contract: %v", err)
	}
	if verr := res.Best.Validate(); verr != nil {
		t.Fatalf("invalid schedule: %v", verr)
	}
	chaosCert(t, res, "panic-containment")
	var rec *FailureRecord
	for i := range res.Certificate.Failed {
		if res.Certificate.Failed[i].Candidate == "bomb" {
			rec = &res.Certificate.Failed[i]
		}
	}
	if rec == nil {
		t.Fatal("panicking candidate missing from the failure ledger")
	}
	if rec.Kind != FailPanic {
		t.Fatalf("panic classified as %v", rec.Kind)
	}
	var pe *PanicError
	if !errors.As(rec.Err, &pe) {
		t.Fatalf("ledger error %T is not a *PanicError", rec.Err)
	}
	if pe.Candidate != "bomb" || pe.Value != "injected test panic" || len(pe.Stack) == 0 {
		t.Fatalf("panic error lost detail: %+v", pe)
	}
	waitForGoroutines(t, base)
}

// TestChaosPreExpiredDeadlineDegrades runs with an already-expired
// context: no candidate can start, so the degradation ladder must produce
// the run's memoized baseline — still valid, still certified.
func TestChaosPreExpiredDeadlineDegrades(t *testing.T) {
	inst, err := workloads.ByName("spmv_N7")
	if err != nil {
		t.Fatal(err)
	}
	arch := baseArch(inst.DAG)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := RunAnytime(ctx, inst.DAG, arch, testOpts())
	if err != nil {
		t.Fatalf("pre-expired deadline broke the anytime contract: %v", err)
	}
	if verr := res.Best.Validate(); verr != nil {
		t.Fatalf("fallback schedule invalid: %v", verr)
	}
	chaosCert(t, res, "pre-expired")
	cert := res.Certificate
	if !cert.FallbackUsed || cert.Rung != RungBaseline {
		t.Fatalf("expected baseline fallback, got rung %q (fallback=%v)", cert.Rung, cert.FallbackUsed)
	}
	if res.BestName != "fallback/"+RungBaseline {
		t.Fatalf("unexpected winner %q", res.BestName)
	}
	if len(cert.Completed) != 0 {
		t.Fatalf("candidates completed under a pre-expired context: %v", cert.Completed)
	}
}

// TestAnytimeFallbackIsBaselineBytes pins what the ladder returns under
// a pre-expired context: exactly the bytes of twostage.Baseline(arch),
// reported as rung "baseline" on P=4 and as rung "dfs" on P=1, where the
// baseline is DFS+clairvoyant.
func TestAnytimeFallbackIsBaselineBytes(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    int
		rung string
	}{{4, RungBaseline}, {1, RungDFS}} {
		arch := baseArch(inst.DAG)
		arch.P = tc.p
		want, err := twostage.Baseline(arch).Run(inst.DAG, arch, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		res, err := RunAnytime(ctx, inst.DAG, arch, testOpts())
		cancel()
		if err != nil {
			t.Fatalf("P=%d: %v", tc.p, err)
		}
		if res.Certificate.Rung != tc.rung || res.BestName != "fallback/"+tc.rung {
			t.Fatalf("P=%d: rung %q winner %q, want rung %q", tc.p, res.Certificate.Rung, res.BestName, tc.rung)
		}
		var got, exp bytes.Buffer
		if err := mbsp.WriteSchedule(&got, res.Best); err != nil {
			t.Fatal(err)
		}
		if err := mbsp.WriteSchedule(&exp, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("P=%d: fallback schedule differs from twostage.Baseline:\n%s\nvs\n%s", tc.p, got.Bytes(), exp.Bytes())
		}
	}
}

// TestChaosCancelMidWaveNoLeak cancels an anytime run whose ILP candidate
// is mid-way through a multi-worker wave with every fault mode injecting:
// the run must still return a valid schedule (at worst the fallback),
// and no candidate or wave worker may outlive it.
func TestChaosCancelMidWaveNoLeak(t *testing.T) {
	inst, err := workloads.ByName("k-means")
	if err != nil {
		t.Fatal(err)
	}
	arch := mbsp.Arch{P: 1, R: 3 * inst.DAG.MinCache(), G: 1, L: 10}
	opts := testOpts()
	opts.ILP.TimeLimit = time.Minute
	opts.ILP.NodeLimit = 1 << 30
	opts.ILP.MIPWorkers = 4
	opts.ILP.Inject = faultinject.New(13, 0.5, 100*time.Microsecond)
	opts.Candidates = []Candidate{ILPCandidate()}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(150*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	res, err := RunAnytime(ctx, inst.DAG, arch, opts)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("RunAnytime took %v after cancellation", elapsed)
	}
	if err != nil {
		t.Fatalf("mid-wave cancel broke the anytime contract: %v", err)
	}
	if verr := res.Best.Validate(); verr != nil {
		t.Fatalf("invalid schedule: %v", verr)
	}
	chaosCert(t, res, "cancel-mid-wave")
	waitForGoroutines(t, base)
}

// TestClassify pins the failure taxonomy mapping.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want FailureKind
	}{
		{context.DeadlineExceeded, FailTimeout},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), FailTimeout},
		{context.Canceled, FailCancelled},
		{&PanicError{Candidate: "x", Value: "boom"}, FailPanic},
		{fmt.Errorf("bad: %w: details", errInvalidSchedule), FailInvalid},
		{errors.New("solver exploded"), FailScheduler},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Fatalf("classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

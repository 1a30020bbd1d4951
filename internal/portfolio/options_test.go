package portfolio

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/twostage"
	"mbsp/internal/workloads"
)

type ctxKey struct{}

// TestILPOptionsPassThrough: both ILP-based candidates run under
// opts.ILP as set, field for field, except the three ilpOptions sets per
// candidate: Context, Seed and LUStats. Every field of the fixture is
// set, so a field added to ilpsched.Options must be set here too, and a
// field the portfolio dropped would fail the comparison.
func TestILPOptionsPassThrough(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := twostage.Baseline(baseArch(inst.DAG)).Run(inst.DAG, baseArch(inst.DAG), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		ILP: ilpsched.Options{
			Context:           context.WithValue(context.Background(), ctxKey{}, "caller"),
			Model:             mbsp.Async,
			ExtraSteps:        3,
			NoRecompute:       true,
			NoStepMerging:     true,
			TimeLimit:         time.Minute,
			NodeLimit:         77,
			MaxModelRows:      1234,
			LocalSearchBudget: 55,
			WarmStart:         warm,
			Incumbent:         mip.NewIncumbent(),
			NeedBlue:          []int{1, 2},
			MIPWorkers:        3,
			NoPerturb:         true,
			Seed:              42,
			Inject:            faultinject.New(9, 0.5, 0),
			LUStats:           &lp.FactorStats{},
		},
		LUStats: &lp.FactorStats{},
	}
	fixture := reflect.ValueOf(opts.ILP)
	for i := 0; i < fixture.NumField(); i++ {
		if fixture.Field(i).IsZero() {
			t.Fatalf("fixture leaves ilpsched.Options.%s unset", fixture.Type().Field(i).Name)
		}
	}

	ctx := context.WithValue(context.Background(), ctxKey{}, "candidate")
	for _, name := range []string{"ilp", "dnc-ilp"} {
		got := ilpOptions(ctx, opts, name)
		if got.Context != ctx {
			t.Errorf("%s: Context is not the candidate's", name)
		}
		if want := candidateSeed(opts.ILP.Seed, name); got.Seed != want {
			t.Errorf("%s: Seed %d, want %d", name, got.Seed, want)
		}
		if got.LUStats != opts.LUStats {
			t.Errorf("%s: LUStats is not the portfolio's accumulator", name)
		}
		gv := reflect.ValueOf(got)
		for i := 0; i < fixture.NumField(); i++ {
			switch f := fixture.Type().Field(i).Name; f {
			case "Context", "Seed", "LUStats":
			default:
				if !reflect.DeepEqual(gv.Field(i).Interface(), fixture.Field(i).Interface()) {
					t.Errorf("%s: ilpsched.Options.%s = %v, want %v", name, f, gv.Field(i), fixture.Field(i))
				}
			}
		}
	}
}

// TestRunRejectsPerCandidateILPFields: the ILP fields run sets per
// candidate must be left unset by the caller. A set one is a pre-flight
// error, not ErrNoSchedule: no candidate runs and RunAnytime does not
// fall back to the baseline.
func TestRunRejectsPerCandidateILPFields(t *testing.T) {
	inst, err := workloads.ByName("spmv_N6")
	if err != nil {
		t.Fatal(err)
	}
	g, arch := inst.DAG, baseArch(inst.DAG)
	warm, err := twostage.Baseline(arch).Run(g, arch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		set   func(*ilpsched.Options)
	}{
		{"Context", func(o *ilpsched.Options) { o.Context = context.Background() }},
		{"WarmStart", func(o *ilpsched.Options) { o.WarmStart = warm }},
		{"Incumbent", func(o *ilpsched.Options) { o.Incumbent = mip.NewIncumbent() }},
		{"NeedBlue", func(o *ilpsched.Options) { o.NeedBlue = []int{0} }},
		{"LUStats", func(o *ilpsched.Options) { o.LUStats = &lp.FactorStats{} }},
	} {
		var calls atomic.Int64
		opts := testOpts()
		tc.set(&opts.ILP)
		opts.Candidates = []Candidate{{Name: "counting", Run: func(context.Context, *graph.DAG, mbsp.Arch, Options) (*mbsp.Schedule, error) {
			calls.Add(1)
			return warm, nil
		}}}
		res, err := RunAnytime(context.Background(), g, arch, opts)
		switch {
		case err == nil:
			t.Errorf("%s: RunAnytime accepted a caller-set ILP.%s", tc.field, tc.field)
		case errors.Is(err, ErrNoSchedule):
			t.Errorf("%s: pre-flight error is ErrNoSchedule: %v", tc.field, err)
		}
		if calls.Load() != 0 {
			t.Errorf("%s: a rejected run ran %d candidates", tc.field, calls.Load())
		}
		if res != nil {
			t.Errorf("%s: a rejected run returned a result (winner %q)", tc.field, res.BestName)
		}
	}
}

package portfolio

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mbsp/internal/dnc"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// TestPartitionMemoMatchesFresh: a portfolio run whose dnc candidate is
// served a partition from a memo warmed at another P returns the bytes
// and certificate of a memo-less run, under one and two workers.
func TestPartitionMemoMatchesFresh(t *testing.T) {
	inst, err := workloads.ByName("kNN_N6_K4")
	if err != nil {
		t.Fatal(err)
	}
	g := inst.DAG
	arch := func(p int) mbsp.Arch { return mbsp.Arch{P: p, R: 3 * g.MinCache(), G: 1, L: 10} }
	memo := dnc.NewMemo(1 << 18)
	warm := deterministicOpts(1)
	warm.ILP.MaxModelRows = 3000
	warm.PartitionMemo = memo
	if _, err := RunAnytime(context.Background(), g, arch(2), warm); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		opts := deterministicOpts(workers)
		opts.ILP.MaxModelRows = 3000
		fresh, err := RunAnytime(context.Background(), g, arch(3), opts)
		if err != nil {
			t.Fatal(err)
		}
		hits := memo.Stats().Hits
		opts.PartitionMemo = memo
		served, err := RunAnytime(context.Background(), g, arch(3), opts)
		if err != nil {
			t.Fatal(err)
		}
		if memo.Stats().Hits != hits+1 {
			t.Fatalf("workers=%d: the dnc candidate missed the warmed memo: %+v", workers, memo.Stats())
		}
		if !bytes.Equal(snapshot(t, served), snapshot(t, fresh)) {
			t.Fatalf("workers=%d: memo run differs from a fresh run\nfresh:\n%s\nmemo:\n%s",
				workers, snapshot(t, fresh), snapshot(t, served))
		}
		if !reflect.DeepEqual(served.Certificate, fresh.Certificate) {
			t.Fatalf("workers=%d: certificates differ:\n%+v\n%+v", workers, served.Certificate, fresh.Certificate)
		}
	}
}

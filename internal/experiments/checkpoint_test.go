package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/workloads"
)

// countingMethod wraps a cheap deterministic method with an invocation
// counter, so tests can assert which cells actually recomputed.
func countingMethod(name string, calls *atomic.Int64) Method {
	base := Baseline()
	return Method{Name: name, Run: func(g *graph.DAG, arch mbsp.Arch, cfg Config) (*mbsp.Schedule, error) {
		calls.Add(1)
		return base.Run(g, arch, cfg)
	}}
}

// TestCheckpointResume: a full run journals every cell; a rerun with
// the same checkpoint file recomputes nothing and renders an identical
// table. A config change invalidates every key, so everything reruns.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.ckpt")
	insts := workloads.Tiny()[:3]
	cfg := quickCfg()
	cfg.Workers = 2

	var calls atomic.Int64
	m := countingMethod("base", &calls)

	cp1, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = cp1
	t1, err := Run("chk", insts, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(insts)) {
		t.Fatalf("first run computed %d cells, want %d", got, len(insts))
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Restored() != int64(len(insts)) || cp2.Corrupt() != 0 {
		t.Fatalf("restored=%d corrupt=%d, want %d/0", cp2.Restored(), cp2.Corrupt(), len(insts))
	}
	cfg.Checkpoint = cp2
	t2, err := Run("chk", insts, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(insts)) {
		t.Fatalf("resumed run recomputed cells: %d total calls", got)
	}
	if !reflect.DeepEqual(t1.Rows, t2.Rows) {
		t.Fatalf("resumed table differs:\n%+v\nvs\n%+v", t1.Rows, t2.Rows)
	}

	// Different seed or node limit → different cell keys → every cell
	// recomputes.
	for i, change := range []func(*Config){
		func(c *Config) { c.ILP.Seed++ },
		func(c *Config) { c.ILP.NodeLimit = 40 },
	} {
		change(&cfg)
		if _, err := Run("chk", insts, cfg, m); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != int64(i+2)*int64(len(insts)) {
			t.Fatalf("config change %d should invalidate the checkpoint: %d total calls", i, got)
		}
	}
}

// TestCellKeyGolden pins the cell keys a Config could produce before it
// carried ilpsched.Options, so checkpoints written then still resume.
func TestCellKeyGolden(t *testing.T) {
	inst := workloads.Tiny()[0]
	async := Base()
	async.ILP.Model = mbsp.Async
	for _, tc := range []struct {
		m    Method
		cfg  Config
		want string
	}{
		{Baseline(), Base(), "bicgstab#fe600d307279be3a/base/p4,r3,g1,L10/sync/ilp2s,ls2000,seed1"},
		{ILPMethod(), quickCfg(), "bicgstab#fe600d307279be3a/ilp/p4,r3,g1,L10/sync/ilp200ms,ls300,seed1"},
		{ILPMethod(), async, "bicgstab#fe600d307279be3a/ilp/p4,r3,g1,L10/async/ilp2s,ls2000,seed1"},
	} {
		if got := cellKey(inst, tc.m, tc.cfg); got != tc.want {
			t.Errorf("cellKey = %q, want %q", got, tc.want)
		}
	}
}

// TestCheckpointTornTailResumes: kill -9 mid-append leaves a torn tail;
// reopening drops exactly the torn cell (counted) and the rerun
// recomputes only what was lost, still matching the clean table.
func TestCheckpointTornTailResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.ckpt")
	insts := workloads.Tiny()[:3]
	cfg := quickCfg()

	var calls atomic.Int64
	m := countingMethod("base", &calls)

	cp1, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = cp1
	clean, err := Run("chk", insts, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	cp1.Close()

	// Tear the last record mid-payload, as a crash during the final
	// append would.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Restored() != int64(len(insts)-1) || cp2.Corrupt() != 1 {
		t.Fatalf("after tear: restored=%d corrupt=%d, want %d/1",
			cp2.Restored(), cp2.Corrupt(), len(insts)-1)
	}
	calls.Store(0)
	cfg.Checkpoint = cp2
	resumed, err := Run("chk", insts, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("want exactly the torn cell recomputed, got %d calls", got)
	}
	if !reflect.DeepEqual(clean.Rows, resumed.Rows) {
		t.Fatalf("post-crash table differs:\n%+v\nvs\n%+v", clean.Rows, resumed.Rows)
	}
}

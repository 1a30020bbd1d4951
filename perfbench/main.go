// Command perfbench is the repository's end-to-end benchmark. It drives
// the scheduler from outside through exported functions only, in three
// workloads:
//
//	serve-hit   an in-process mbsp-served (server.New on a loopback
//	            listener, durable cache) booted from a populated cache;
//	            two closed-loop clients POST seeded draws, all hits.
//	serve-cold  a fresh server with an empty durable cache per pass; one
//	            closed-loop client sends every sized key once (all
//	            misses, each a portfolio run plus a journal write).
//	solve-ilp   serial mbsp.ScheduleILP solves (one MIP worker, binding
//	            node limits, minimal local search, no binding wall clock)
//	            over a fixed rotation in seeded order.
//
// Usage:
//
//	perfbench -workload serve-hit|serve-cold|solve-ilp -seed N -seconds S -trace 0|1 [-dir DIR]
//	perfbench -size [-dir DIR]          # sizing pass over the serve-cold key space
//	perfbench -populate DIR [-dir DIR]  # serve-hit's cache-populating child process
//
// Every run checks the program's outputs (the correctness gates) and
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. With -trace 0 the metrics
// are the end-to-end ones; with -trace 1 the run measures an untraced and
// a traced segment of the same operations, checks that tracing changed no
// result, and reports the per-layer metrics instead. Progress and the
// per-layer table go to standard error. The process exits 1 when a
// correctness gate fails and 2 on a usage or set-up error.
//
// README.md in this directory explains the metrics, the layer map and
// how the workloads were sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's parameters and accumulates its report.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // private scratch directory, removed on exit

	attempted, failed int
	metrics           map[string]metric
	violations        []string
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// violate records a correctness-gate failure; the run then reports
// correct=false and exits 1.
func (r *run) violate(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if len(r.violations) < 20 {
		logf("GATE FAILED: %s", msg)
	}
	r.violations = append(r.violations, msg)
}

// subdir returns a fresh directory under the run's scratch directory.
func (r *run) subdir(name string) string {
	d, err := os.MkdirTemp(r.dir, name+"-")
	if err != nil {
		fatalf("creating scratch directory: %v", err)
	}
	return d
}

func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// scratchRoot is the run's scratch directory, removed on every exit path.
var scratchRoot string

// fatalf aborts a run that could not be set up: no result line, exit 2.
func fatalf(format string, args ...interface{}) {
	logf(format, args...)
	if scratchRoot != "" {
		os.RemoveAll(scratchRoot)
	}
	os.Exit(2)
}

// setupReps is how often a run repeats its workload's set-up; setup_s is
// the median.
const setupReps = 10

var workloads = map[string]func(r *run){
	"serve-hit":  serveHit,
	"serve-cold": serveCold,
	"solve-ilp":  solveILP,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-hit, serve-cold or solve-ilp")
		seed     = flag.Int64("seed", 1, "workload seed: drives the rotation order and draws")
		seconds  = flag.Float64("seconds", 10, "measured time per segment")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced segment instead of the end-to-end metrics")
		size     = flag.Bool("size", false, "run the serve-cold sizing pass and print its table as JSON")
		populate = flag.String("populate", "", "populate serve-hit's durable cache in this directory and exit (serve-hit runs this as a child process)")
		dir      = flag.String("dir", ".bench_build/runs", "parent of the run's scratch directory")
	)
	flag.Parse()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatalf("creating %s: %v", *dir, err)
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fatalf("creating scratch directory: %v", err)
	}
	scratchRoot = scratch
	defer os.RemoveAll(scratch)

	if *size {
		if err := sizeColdKeys(scratch, os.Stdout); err != nil {
			fatalf("sizing: %v", err)
		}
		return
	}
	if *populate != "" {
		if err := populateHitCache(*populate); err != nil {
			fatalf("populating the serve-hit cache: %v", err)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("usage: -workload serve-hit|serve-cold|solve-ilp -seed N -seconds S -trace 0|1 (got workload %q)", *workload)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		dir:      scratch,
		metrics:  map[string]metric{},
	}
	fn(r)
	if r.attempted == 0 {
		r.violate("no operation attempted")
	}
	if r.failed > 0 {
		r.violate("%d of %d operations failed", r.failed, r.attempted)
	}
	out, err := json.Marshal(report{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
	if len(r.violations) > 0 {
		os.RemoveAll(scratch)
		os.Exit(1)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Command mbsp-smoke is the end-to-end smoke client for mbsp-served,
// driven by scripts/serve_smoke.sh and scripts/crash_smoke.sh as part
// of scripts/verify.sh. The default phase exercises the serving
// contract against a live server:
//
//  1. /healthz answers;
//  2. a cold POST /v1/schedule returns a full-fidelity (rung
//     "portfolio") response;
//  3. an identical second POST is a cache hit with a byte-identical
//     schedule and certificate, well inside its request deadline;
//  4. /v1/stats reflects the hit, and the persistence counter section
//     is present (with -persist: enabled and journaling);
//  5. a DAG that divide-and-conquer must bipartition, sent at a second
//     P, is served its partition from the server's partition memo
//     (one more memo hit in /v1/stats);
//  6. SIGTERM while a request is in flight drains gracefully: the
//     request still completes with 200 and the process exits cleanly
//     (the exit code is asserted by the driving script).
//
// The crash phases split the contract across a kill -9
// (scripts/crash_smoke.sh):
//
//	-phase populate  POST two distinct requests, assert both journaled,
//	                 and save their cache-stamp-stripped bodies under
//	                 -state for the verify phase;
//	-phase verify    against a server restarted on the (torn) crash
//	                 image: assert recovery counters (one entry
//	                 recovered, the torn one counted corrupt, nothing
//	                 journaled), a warm byte-identical hit for the
//	                 survivor, and a cold byte-identical recompute for
//	                 the lost entry, which is the one record journaled.
//
// Exits nonzero with a diagnostic on the first violated assertion.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"syscall"
	"time"

	"mbsp"
	"mbsp/internal/wire"
)

// queryA/queryB are the two cache keys the crash phases populate and
// verify; queryA's entry is the journal's first record (survives the
// torn tail), queryB's is the last (lost to it).
const (
	queryA = "p=2&rfactor=3"
	queryB = "p=3&rfactor=3"
)

// memoInstance has more nodes than the dnc candidate's part size (45),
// so its partitioning stage solves bipartition ILPs.
const memoInstance = "kNN_N6_K4"

func main() {
	var (
		base     = flag.String("base", "", "server base URL (http://host:port)")
		pid      = flag.Int("pid", 0, "server process id; when set, the drain leg SIGTERMs it mid-request")
		instance = flag.String("instance", "spmv_N6", "registry instance to schedule")
		persist  = flag.Bool("persist", false, "assert the server is journaling to a durable cache")
		phase    = flag.String("phase", "", "crash-smoke phase: populate or verify (default: the full serving smoke)")
		state    = flag.String("state", "", "directory for cross-phase state (saved response bodies)")
	)
	flag.Parse()
	if *base == "" {
		fatal(fmt.Errorf("-base is required"))
	}

	inst, err := mbsp.InstanceByName(*instance)
	if err != nil {
		fatal(err)
	}
	var dag bytes.Buffer
	if err := mbsp.WriteDAG(&dag, inst.DAG); err != nil {
		fatal(err)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	waitHealthy(client, *base)
	fmt.Println("smoke: healthz ok")

	switch *phase {
	case "populate":
		runPopulate(client, *base, *state, dag.Bytes())
	case "verify":
		runVerify(client, *base, *state, dag.Bytes())
	case "":
		runServeSmoke(client, *base, *pid, *persist, dag.Bytes())
	default:
		fatal(fmt.Errorf("unknown -phase %q (want populate, verify, or empty)", *phase))
	}
	fmt.Println("smoke: OK")
}

// statsJSON is the /v1/stats subset the smoke asserts on.
type statsJSON struct {
	Cache struct {
		Hits int64 `json:"hits"`
		Runs int64 `json:"runs"`
	} `json:"cache"`
	Persistence struct {
		Enabled          bool  `json:"enabled"`
		JournalRecords   int64 `json:"journal_records"`
		RecoveredRecords int64 `json:"recovered_records"`
		RejectedRecords  int64 `json:"rejected_records"`
		CorruptRecords   int64 `json:"corrupt_records"`
	} `json:"persistence"`
	PartitionMemo struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"partition_memo"`
}

// assertPersistenceShape asserts the persistence counter section is
// present in the raw stats payload with every documented key — the
// counters a fleet's monitoring would scrape.
func assertPersistenceShape(client *http.Client, base string) {
	var raw map[string]json.RawMessage
	getJSON(client, base+"/v1/stats", &raw)
	section, ok := raw["persistence"]
	if !ok {
		fatal(fmt.Errorf("/v1/stats has no persistence section"))
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(section, &fields); err != nil {
		fatal(fmt.Errorf("persistence section not an object: %w", err))
	}
	for _, key := range []string{"enabled", "snapshot_age_seconds", "journal_records",
		"journal_bytes", "recovered_records", "rejected_records", "corrupt_records",
		"journal_errors"} {
		if _, ok := fields[key]; !ok {
			fatal(fmt.Errorf("/v1/stats persistence section missing %q", key))
		}
	}
	fmt.Println("smoke: persistence counters present")
}

// runServeSmoke is the classic serving contract (doc comment items 2-6).
func runServeSmoke(client *http.Client, base string, pid int, persist bool, dag []byte) {
	cold := postSchedule(client, base, queryA, dag)
	if cold.Cache == nil || cold.Cache.Provenance != "cold" {
		fatal(fmt.Errorf("first request not cold: %+v", cold.Cache))
	}
	if cold.Certificate == nil || cold.Certificate.Rung != "portfolio" {
		fatal(fmt.Errorf("cold run not full-fidelity: %+v", cold.Certificate))
	}
	fmt.Printf("smoke: cold run ok (winner %s, cost %g)\n", cold.Winner, cold.Cost)

	// Cache hit: byte-identical and fast.
	const deadlineMS = 2000
	start := time.Now()
	hit := postSchedule(client, base, fmt.Sprintf("%s&deadline_ms=%d", queryA, deadlineMS), dag)
	elapsed := time.Since(start)
	if hit.Cache == nil || !hit.Cache.Hit || hit.Cache.Provenance != "hit" {
		fatal(fmt.Errorf("second request not a cache hit: %+v", hit.Cache))
	}
	if hit.Schedule != cold.Schedule {
		fatal(fmt.Errorf("cache hit schedule differs from cold run"))
	}
	if !reflect.DeepEqual(hit.Certificate, cold.Certificate) {
		fatal(fmt.Errorf("cache hit certificate differs from cold run"))
	}
	if elapsed >= deadlineMS*time.Millisecond {
		fatal(fmt.Errorf("cache hit took %v, deadline %dms", elapsed, deadlineMS))
	}
	fmt.Printf("smoke: cache hit ok (identical bytes, %v)\n", elapsed)

	// Stats reflect the traffic; the persistence section is always
	// present (enabled and journaling when the server has -cache-path).
	var stats statsJSON
	getJSON(client, base+"/v1/stats", &stats)
	if stats.Cache.Hits < 1 || stats.Cache.Runs != 1 {
		fatal(fmt.Errorf("stats disagree with traffic: %+v", stats.Cache))
	}
	assertPersistenceShape(client, base)
	if persist {
		if !stats.Persistence.Enabled || stats.Persistence.JournalRecords != 1 {
			fatal(fmt.Errorf("durable cache not journaling: %+v", stats.Persistence))
		}
		fmt.Println("smoke: durable cache journaling ok")
	}
	fmt.Println("smoke: stats ok")

	runPartitionMemo(client, base)

	// Graceful drain: a request for a fresh key races a SIGTERM. The
	// HTTP server must finish serving it before exiting.
	if pid > 0 {
		type outcome struct {
			resp *wire.Response
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			r, err := tryPostSchedule(client, base, queryB, dag)
			done <- outcome{r, err}
		}()
		time.Sleep(100 * time.Millisecond)
		if err := syscall.Kill(pid, syscall.SIGTERM); err != nil {
			fatal(fmt.Errorf("signaling server: %w", err))
		}
		o := <-done
		if o.err != nil {
			fatal(fmt.Errorf("in-flight request not drained: %w", o.err))
		}
		if o.resp.Schedule == "" {
			fatal(fmt.Errorf("drained request returned no schedule"))
		}
		fmt.Println("smoke: graceful drain ok")
	}
}

// runPartitionMemo posts memoInstance at two processor counts and
// asserts that the second request's dnc candidate reused the first
// one's partition.
func runPartitionMemo(client *http.Client, base string) {
	inst, err := mbsp.InstanceByName(memoInstance)
	if err != nil {
		fatal(err)
	}
	if inst.DAG.N() <= 45 {
		fatal(fmt.Errorf("%s has %d nodes; the memo leg needs a DAG dnc splits", memoInstance, inst.DAG.N()))
	}
	var dag bytes.Buffer
	if err := mbsp.WriteDAG(&dag, inst.DAG); err != nil {
		fatal(err)
	}
	var before, after statsJSON
	postSchedule(client, base, "p=2&rfactor=3", dag.Bytes())
	getJSON(client, base+"/v1/stats", &before)
	postSchedule(client, base, "p=3&rfactor=3", dag.Bytes())
	getJSON(client, base+"/v1/stats", &after)
	if after.PartitionMemo.Hits != before.PartitionMemo.Hits+1 || after.PartitionMemo.Entries < 1 {
		fatal(fmt.Errorf("partition memo: %+v before the second P, %+v after; want one more hit",
			before.PartitionMemo, after.PartitionMemo))
	}
	fmt.Printf("smoke: partition memo hit ok (%s, %d nodes)\n", memoInstance, inst.DAG.N())
}

// stripBody re-marshals a response without its per-request cache stamp:
// the byte-comparison form shared by populate and verify.
func stripBody(r *wire.Response) []byte {
	clone := *r
	clone.Cache = nil
	out, err := json.Marshal(&clone)
	if err != nil {
		fatal(err)
	}
	return out
}

// runPopulate stores two full-fidelity entries in the durable cache and
// saves their stripped bodies for the post-crash verify phase. The
// driving script kill -9s the server right after this phase returns,
// then tears the journal's tail as a crash mid-append would.
func runPopulate(client *http.Client, base, state string, dag []byte) {
	if state == "" {
		fatal(fmt.Errorf("-phase populate requires -state"))
	}
	for i, q := range []string{queryA, queryB} {
		r := postSchedule(client, base, q, dag)
		if r.Cache == nil || r.Cache.Provenance != "cold" {
			fatal(fmt.Errorf("populate %s: not cold: %+v", q, r.Cache))
		}
		if r.Certificate == nil || r.Certificate.Rung != "portfolio" {
			fatal(fmt.Errorf("populate %s: not full-fidelity: %+v", q, r.Certificate))
		}
		name := filepath.Join(state, fmt.Sprintf("body-%d.json", i))
		if err := os.WriteFile(name, stripBody(r), 0o644); err != nil {
			fatal(err)
		}
	}
	var stats statsJSON
	getJSON(client, base+"/v1/stats", &stats)
	if !stats.Persistence.Enabled || stats.Persistence.JournalRecords != 2 {
		fatal(fmt.Errorf("populate: both entries must be journaled before the kill: %+v", stats.Persistence))
	}
	fmt.Println("smoke: populate ok (2 entries journaled)")
}

// runVerify asserts the post-crash recovery contract: the journal's
// intact prefix (entry A) is recovered and served warm byte-identical;
// the torn tail (entry B) is counted corrupt and recomputed cold to the
// same bytes — corruption degrades to a cold start, never a wrong or
// missing answer.
func runVerify(client *http.Client, base, state string, dag []byte) {
	if state == "" {
		fatal(fmt.Errorf("-phase verify requires -state"))
	}
	assertPersistenceShape(client, base)
	var stats statsJSON
	getJSON(client, base+"/v1/stats", &stats)
	p := stats.Persistence
	if !p.Enabled || p.RecoveredRecords != 1 || p.CorruptRecords < 1 || p.RejectedRecords != 0 ||
		p.JournalRecords != 0 {
		fatal(fmt.Errorf("recovery counters after torn-tail restart (recovery journals nothing): %+v", p))
	}
	fmt.Printf("smoke: recovery counters ok (1 recovered, %d corrupt)\n", p.CorruptRecords)

	wantA, err := os.ReadFile(filepath.Join(state, "body-0.json"))
	if err != nil {
		fatal(err)
	}
	wantB, err := os.ReadFile(filepath.Join(state, "body-1.json"))
	if err != nil {
		fatal(err)
	}

	a := postSchedule(client, base, queryA, dag)
	if a.Cache == nil || !a.Cache.Hit {
		fatal(fmt.Errorf("recovered entry not served warm: %+v", a.Cache))
	}
	if !bytes.Equal(stripBody(a), wantA) {
		fatal(fmt.Errorf("warm-restart hit differs from the pre-crash response"))
	}
	fmt.Println("smoke: warm byte-identical hit ok")

	b := postSchedule(client, base, queryB, dag)
	if b.Cache == nil || b.Cache.Hit {
		fatal(fmt.Errorf("torn entry must recompute cold: %+v", b.Cache))
	}
	if !bytes.Equal(stripBody(b), wantB) {
		fatal(fmt.Errorf("recomputed torn entry differs from the original deterministic run"))
	}
	fmt.Println("smoke: torn entry recomputed byte-identical ok")

	getJSON(client, base+"/v1/stats", &stats)
	if stats.Persistence.JournalRecords != 1 {
		fatal(fmt.Errorf("want only the recomputed entry journaled after the restart: %+v", stats.Persistence))
	}
	fmt.Println("smoke: journal holds the recompute alone ok")
}

func waitHealthy(client *http.Client, base string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("server never became healthy: %v", err))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func tryPostSchedule(client *http.Client, base, query string, dag []byte) (*wire.Response, error) {
	resp, err := client.Post(base+"/v1/schedule?"+query, "text/plain", bytes.NewReader(dag))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d: %s", query, resp.StatusCode, data)
	}
	var r wire.Response
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("POST %s: bad JSON: %w", query, err)
	}
	if ms := resp.Header.Get("X-Mbsp-Elapsed-Ms"); ms != "" {
		if _, err := strconv.ParseFloat(ms, 64); err != nil {
			return nil, fmt.Errorf("bad X-Mbsp-Elapsed-Ms %q", ms)
		}
	}
	return &r, nil
}

func postSchedule(client *http.Client, base, query string, dag []byte) *wire.Response {
	r, err := tryPostSchedule(client, base, query, dag)
	if err != nil {
		fatal(err)
	}
	return r
}

func getJSON(client *http.Client, url string, v interface{}) {
	resp, err := client.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: %d", url, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fatal(fmt.Errorf("GET %s: bad JSON: %w", url, err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbsp-smoke: FAIL:", err)
	os.Exit(1)
}

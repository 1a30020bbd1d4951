#!/usr/bin/env sh
# Tier-1 verification plus the perf-trajectory smoke.
#
# Usage: scripts/verify.sh [outdir]
#
#   1. go build ./...
#   1b. gofmt -l .  (fails when any file is not gofmt-formatted);
#   2. go vet ./... , then go vet in the separate perfbench module (the
#      benchmark builds the library's option structs by field name, so a
#      field removal that breaks it must fail here, not at bench time);
#   2b. staticcheck ./...  (skipped with a warning when the binary is
#       not installed — the container image does not ship it);
#   2c. the arm64 leg: cross-build mbsp-served with GOARCH=arm64 into
#       outdir/mbsp-served-arm64 and disassemble every mbsp/internal
#       package with go tool objdump; it fails on any fused multiply-add
#       (FMADDD, FMSUBD, FNMADDD, FNMSUBD), which would make the served
#       cost, the stage-1 choices and the solver's pivots depend on the
#       CPU (amd64 emits none at the default GOAMD64=v1, so only a
#       cross-build shows them);
#   3. go test -race ./...  (includes the solver cross-check tests: the
#      sparse/warm-started simplex against the dense cold-start
#      reference, the GOMAXPROCS/worker-count determinism suite, and the
#      parallel branch-and-bound determinism matrix)
#   3b. the parser fuzz leg: FuzzRead (internal/graph) for 10s over the
#       DAG text format the server accepts as a request body — no panic,
#       typed errors only, and every accepted DAG round-trips through
#       graph.Write with equal fingerprint and exact digest; then
#       FuzzParseRequest (internal/server) for 10s over the request's
#       architecture query — 400-only typed errors, and every accepted
#       query yields 1 ≤ P ≤ 1024, finite non-negative r/g/L and a stable
#       key; then FuzzRecoverFile (internal/persist) for 10s over a
#       journal whose tail is appended to, overwritten or cut — no
#       error, the file repaired to exactly the recovered records, a
#       second recovery finding nothing to repair, and the undamaged
#       committed records recovered as a prefix; then FuzzRecoverEntry
#       (internal/server) for 10s over one recovered cache record
#       payload through boot's decode and admission check — no panic,
#       and every admitted entry cacheable under exactly the key this
#       server's configuration assigns it;
#   4. the chaos leg: the anytime portfolio on the tiny dataset under a
#      50ms deadline with the seeded fault-injection harness live,
#      under -race, one leg per injection mode plus all modes at once,
#      for two distinct fault seeds (different seeds inject different
#      fault sequences; one seed only proves one trajectory) — exits
#      nonzero on any non-anytime error, missing certificate, invalid
#      schedule, or run returning more than 2s after its deadline (the
#      graceful-degradation gate); then one more leg on the paper-tiny
#      dataset (one fault seed, without -race), whose larger DAGs put
#      the divide-and-conquer partitioning stage under the deadline;
#   4a. the mbsp-sched deadline leg: build mbsp-sched once and run
#      `-method ilp -deadline 50ms -timeout 60s` on spmv_N6 at P=2 under
#      `timeout 20`, so a single-method run that ignores -deadline
#      (and searches for its full 60s) fails the gate; then
#      `-portfolio -deadline 50ms -json` on the same instance under
#      `timeout 20`, which must exit 0 and print JSON with a certificate;
#      then the examples leg: build each program under examples/
#      (pebbling, quickstart, spmv, twostage_gap; about 0.1–10 s each)
#      and run it under `timeout 60`, so an example that stops building,
#      fails or hangs fails the gate; then the daggen leg: `daggen -list`
#      must print 44 distinct names (every name the registry resolves)
#      and `daggen -instance` must resolve each of them;
#   4b. the serving smoke (scripts/serve_smoke.sh): start mbsp-served on
#      an ephemeral port with a durable cache, POST a registry DAG twice
#      and assert the second response is a cache hit with a
#      byte-identical schedule inside its deadline, check /healthz and
#      /v1/stats (including the persistence counters), then SIGTERM the
#      server mid-request and assert it drains and exits cleanly;
#   4c. the crash smoke (scripts/crash_smoke.sh): populate the durable
#      cache, kill -9 the server and tear the journal's tail mid-record,
#      restart on the same directory, and assert the recovery counters
#      (nothing journaled at boot) plus a warm byte-identical cache hit
#      for the surviving entry and a cold byte-identical recompute for
#      the torn one, which is then the journal's only record;
#   5. a short benchmark smoke: BenchmarkPortfolio, the LU kernel
#      micro-benchmarks (BenchmarkFtran/Btran/Btran2 in internal/lp),
#      the local-search benchmark (BenchmarkRefineImprove in
#      internal/refine) and the bipartition ILP benchmark
#      (BenchmarkAcyclicBipartition, with its simplex-iteration and
#      branch-and-bound node counts), one iteration each, so they keep
#      building and running; then the portfolio experiment on the tiny
#      dataset, emitting BENCH_portfolio.json (per-scheduler cost and
#      timing per instance) so the portfolio's performance trajectory is
#      comparable across PRs;
#   6. the solver bench smoke (scripts/bench.sh): micro-benchmarks plus
#      the solver experiment emitting BENCH_solver.json — the
#      parallel-solver gate. It exits nonzero on warm/cold solver
#      divergence, if the warm-started path stops beating the cold path,
#      if Workers=4 output diverges from Workers=1 in any way (partition,
#      node accounting, iteration counts), if parallel node throughput
#      regresses against the committed BENCH_solver.json (wall-clock
#      speedup gates scale to GOMAXPROCS; the determinism gate is
#      unconditional), or if the degenerate-model leg — the P=1 k-means
#      stall fixture — loses its EXPAND perturbation wiring or regresses
#      its deterministic iteration / cold-fallback counts against the
#      committed baseline, or if the sparse-LU leg — a >3000-row
#      scheduling ILP the dense core refused — stops entering tree
#      search or regresses its fill-in / refactorization counts.
set -eu

cd "$(dirname "$0")/.."
outdir="${1:-.}"
mkdir -p "${outdir}"

echo "== go build ./..."
go build ./...

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "${unformatted}" ]; then
    echo "gofmt: these files need formatting:"
    echo "${unformatted}"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet ./... (perfbench module)"
(cd perfbench && go vet ./...)

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping"
fi

echo "== arm64 leg: no fused multiply-add in mbsp/internal"
GOARCH=arm64 go build -o "${outdir}/mbsp-served-arm64" ./cmd/mbsp-served
asm="$(go tool objdump -s '^mbsp/internal/' "${outdir}/mbsp-served-arm64")"
if [ -z "${asm}" ]; then
    echo "arm64 leg: objdump found no mbsp/internal symbols" >&2
    exit 1
fi
fused="$(printf '%s\n' "${asm}" | grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' || true)"
if [ -n "${fused}" ]; then
    echo "arm64 leg: fused multiply-adds; wrap each product in float64(...):" >&2
    echo "${fused}" >&2
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== fuzz leg: FuzzRead for 10s"
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/graph

echo "== fuzz leg: FuzzParseRequest for 10s"
go test -run '^$' -fuzz '^FuzzParseRequest$' -fuzztime 10s ./internal/server

echo "== fuzz leg: FuzzRecoverFile for 10s"
go test -run '^$' -fuzz '^FuzzRecoverFile$' -fuzztime 10s ./internal/persist

echo "== fuzz leg: FuzzRecoverEntry for 10s"
go test -run '^$' -fuzz '^FuzzRecoverEntry$' -fuzztime 10s ./internal/server

echo "== chaos leg: anytime portfolio under fault injection (-race)"
for fault_seed in 42 1337; do
    echo "== chaos leg: fault seed ${fault_seed}"
    go run -race ./cmd/mbsp-bench -experiment chaos -dataset tiny \
        -deadline 50ms -fault-seed "${fault_seed}"
done
echo "== chaos leg: paper-tiny, fault seed 42"
go run ./cmd/mbsp-bench -experiment chaos -dataset paper-tiny \
    -deadline 50ms -fault-seed 42

echo "== mbsp-sched deadline leg: -method ilp under a 50ms deadline"
sched_dir="$(mktemp -d)"
trap 'rm -rf "${sched_dir}"' EXIT
go build -o "${sched_dir}/mbsp-sched" ./cmd/mbsp-sched
timeout 20 "${sched_dir}/mbsp-sched" -instance spmv_N6 -p 2 -method ilp \
    -deadline 50ms -timeout 60s

echo "== mbsp-sched portfolio leg: -portfolio -json under a 50ms deadline"
timeout 20 "${sched_dir}/mbsp-sched" -instance spmv_N6 -p 2 -portfolio \
    -deadline 50ms -json > "${sched_dir}/portfolio.json"
if ! grep -q '"certificate": {' "${sched_dir}/portfolio.json"; then
    echo "mbsp-sched portfolio leg: no certificate in the JSON output" >&2
    cat "${sched_dir}/portfolio.json" >&2
    exit 1
fi

for example in pebbling quickstart spmv twostage_gap; do
    echo "== examples leg: ${example}"
    go build -o "${sched_dir}/${example}" "./examples/${example}"
    timeout 60 "${sched_dir}/${example}" > /dev/null
done

echo "== daggen leg: every listed instance resolves by name"
go build -o "${sched_dir}/daggen" ./cmd/daggen
"${sched_dir}/daggen" -list | awk '{print $1}' > "${sched_dir}/names.txt"
distinct="$(sort -u "${sched_dir}/names.txt" | wc -l)"
listed="$(wc -l < "${sched_dir}/names.txt")"
if [ "${distinct}" -ne 44 ] || [ "${listed}" -ne 44 ]; then
    echo "daggen leg: -list printed ${listed} names, ${distinct} distinct; want 44" >&2
    exit 1
fi
while read -r name; do
    "${sched_dir}/daggen" -instance "${name}" > /dev/null
done < "${sched_dir}/names.txt"

echo "== serving smoke: mbsp-served cache hit + graceful drain"
sh scripts/serve_smoke.sh

echo "== crash smoke: durable cache survives kill -9 + torn journal"
sh scripts/crash_smoke.sh

echo "== bench smoke: BenchmarkPortfolio (1 iteration)"
go test -run '^$' -bench '^BenchmarkPortfolio$' -benchtime 1x .

echo "== bench smoke: LU kernels (1 iteration)"
go test -run '^$' -bench '^Benchmark(Ftran|Btran|Btran2)$' -benchtime 1x ./internal/lp

echo "== bench smoke: BenchmarkRefineImprove (1 iteration)"
go test -run '^$' -bench '^BenchmarkRefineImprove$' -benchtime 1x ./internal/refine

echo "== bench smoke: BenchmarkAcyclicBipartition (1 iteration)"
go test -run '^$' -bench '^BenchmarkAcyclicBipartition$' -benchtime 1x .

echo "== portfolio experiment -> ${outdir}/BENCH_portfolio.json"
go run ./cmd/mbsp-bench -experiment portfolio -dataset tiny \
    -timeout 200ms -budget 300 -json "${outdir}/BENCH_portfolio.json"

echo "== solver bench -> ${outdir}/BENCH_solver.json"
sh scripts/bench.sh "${outdir}"

echo "verify: OK"

#!/usr/bin/env sh
# Tier-1 verification plus the perf-trajectory smoke.
#
# Usage: scripts/verify.sh [outdir]
#
#   1. go build ./...
#   2. go vet ./...
#   2b. staticcheck ./...  (skipped with a warning when the binary is
#       not installed — the container image does not ship it);
#   3. go test -race ./...  (includes the solver cross-check tests: the
#      sparse/warm-started simplex against the dense cold-start
#      reference, the GOMAXPROCS/worker-count determinism suite, and the
#      parallel branch-and-bound determinism matrix)
#   4. the chaos leg: the anytime portfolio on the tiny dataset under a
#      50ms deadline with the seeded fault-injection harness live,
#      under -race, one leg per injection mode plus all modes at once,
#      for two distinct fault seeds (different seeds inject different
#      fault sequences; one seed only proves one trajectory) — exits
#      nonzero on any non-anytime error, missing certificate or invalid
#      schedule (the graceful-degradation gate);
#   4b. the serving smoke (scripts/serve_smoke.sh): start mbsp-served on
#      an ephemeral port with a durable cache, POST a registry DAG twice
#      and assert the second response is a cache hit with a
#      byte-identical schedule inside its deadline, check /healthz and
#      /v1/stats (including the persistence counters), then SIGTERM the
#      server mid-request and assert it drains and exits cleanly;
#   4c. the crash smoke (scripts/crash_smoke.sh): populate the durable
#      cache, kill -9 the server and tear the journal's tail mid-record,
#      restart on the same directory, and assert the recovery counters
#      plus a warm byte-identical cache hit for the surviving entry and
#      a cold byte-identical recompute for the torn one;
#   5. a short benchmark smoke: BenchmarkPortfolio and the LU kernel
#      micro-benchmarks (BenchmarkFtran/Btran/Btran2 in internal/lp, one
#      iteration each, so they keep building and running), then the
#      portfolio experiment on the tiny dataset, emitting
#      BENCH_portfolio.json (per-scheduler cost and timing per instance)
#      so the portfolio's performance trajectory is comparable across
#      PRs;
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

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping"
fi

echo "== go test -race ./..."
go test -race ./...

echo "== chaos leg: anytime portfolio under fault injection (-race)"
for fault_seed in 42 1337; do
    echo "== chaos leg: fault seed ${fault_seed}"
    go run -race ./cmd/mbsp-bench -experiment chaos -dataset tiny \
        -deadline 50ms -fault-seed "${fault_seed}"
done

echo "== serving smoke: mbsp-served cache hit + graceful drain"
sh scripts/serve_smoke.sh

echo "== crash smoke: durable cache survives kill -9 + torn journal"
sh scripts/crash_smoke.sh

echo "== bench smoke: BenchmarkPortfolio (1 iteration)"
go test -run '^$' -bench '^BenchmarkPortfolio$' -benchtime 1x .

echo "== bench smoke: LU kernels (1 iteration)"
go test -run '^$' -bench '^Benchmark(Ftran|Btran|Btran2)$' -benchtime 1x ./internal/lp

echo "== portfolio experiment -> ${outdir}/BENCH_portfolio.json"
go run ./cmd/mbsp-bench -experiment portfolio -dataset tiny \
    -timeout 200ms -budget 300 -json "${outdir}/BENCH_portfolio.json"

echo "== solver bench -> ${outdir}/BENCH_solver.json"
sh scripts/bench.sh "${outdir}"

echo "verify: OK"

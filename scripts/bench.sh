#!/usr/bin/env sh
# Solver-core benchmark: emits BENCH_solver.json so the warm-start
# speedup (total simplex iterations across the branch-and-bound trees the
# registry workloads search, warm vs cold) and the parallel tree-search
# speedup (node throughput of the same trees, serial vs a 4-worker pool)
# are tracked across PRs.
#
# Usage: scripts/bench.sh [outdir]
#
#   1. BenchmarkLPSolve / BenchmarkMIPNode micro-benchmarks (one
#      iteration: sparse-vs-dense-reference and warm-vs-cold iteration
#      counts);
#   2. the solver experiment on the tiny registry dataset, which fails on
#      warm/cold divergence, a warm-start regression, any Workers=4 vs
#      Workers=1 divergence (the deterministic-node-accounting gate), a
#      parallel node-throughput regression or any rise in the serial warm
#      trees' refactorizations (warm_refactors; only the Workers=1 trees
#      count, since live-factor reuse in a worker pool depends on which
#      worker solves which node) against the previous BENCH_solver.json,
#      and writes the new BENCH_solver.json. The
#      experiment also runs the degenerate-model leg — the P=1 k-means
#      scheduling ILP that used to stall the warm dual re-solves — with
#      hard gates on the anti-degeneracy wiring (perturbation reaching
#      the tree search, cheap shift-removal clean-up) and a
#      baseline-relative gate on its deterministic iteration and
#      cold-fallback counts, which fails on any increase (skipped when
#      the baseline predates the leg),
#      and the sparse-LU leg — a >3000-row scheduling ILP (spmv P=4)
#      that the old dense-inverse core refused to factor — with hard
#      gates on the unlock itself (the model must enter tree search),
#      on factorization quality (fill-in bounded relative to the basis,
#      at least one refactorization, warm factor reuse firing) and
#      baseline-relative gates on its iteration count, fill-in,
#      refactorization count, eta terms (the eta-file entries its
#      FTRAN/BTRAN eta passes visit), triangular terms (the stages and
#      factor entries their L and U passes visit), PRICE terms (the
#      matrix entries PRICE visits) and scanned columns (the columns
#      pricing, the Devex update and the dual's entering scan visit),
#      also failing on any increase (and
#      also skipped for pre-LU baselines; each terms gate for baselines
#      without its field).
set -eu

cd "$(dirname "$0")/.."
outdir="${1:-.}"

echo "== micro-benchmarks: BenchmarkLPSolve, BenchmarkMIPNode (1 iteration)"
go test -run '^$' -bench 'BenchmarkLPSolve|BenchmarkMIPNode' -benchtime 1x .

# Snapshot the previous results before the run overwrites them: the
# regression gate compares dimensionless speedups against this baseline.
baseline=""
if [ -f "${outdir}/BENCH_solver.json" ]; then
    baseline="${outdir}/BENCH_solver.json.baseline"
    cp "${outdir}/BENCH_solver.json" "${baseline}"
    # Snapshot removal must survive a gate failure aborting the script.
    trap 'rm -f "${baseline}"' EXIT
fi

echo "== solver experiment -> ${outdir}/BENCH_solver.json"
go run ./cmd/mbsp-bench -experiment solver -dataset tiny -timeout 10s \
    -json "${outdir}/BENCH_solver.json" ${baseline:+-baseline "${baseline}"}

echo "bench: OK"

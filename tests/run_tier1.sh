#!/usr/bin/env bash
# Tier-1 verify sequence (ROADMAP.md) plus a short benchmark sanity run.
#
# Usage:
#   tests/run_tier1.sh            configure + build + ctest + bench smoke
#   tests/run_tier1.sh --ctest    bench smoke only (invoked from ctest,
#                                 cwd = build dir; skips the recursive build)
#
# Portability: works on runners without `nproc` (falls back to getconf,
# then 2) and tolerates builds configured with -DS3_BUILD_BENCH=OFF
# (the bench smoke is skipped with a notice instead of failing).
# ctest failures propagate through `set -e` — the script's exit code is
# the gate CI consumes.
#
# Benchmark regression tracking (non-blocking in CI): after a full run,
# compare the fresh bench output against the committed baseline with
#   tools/check_bench_regression.py --fresh build/BENCH_micro.json
# (baseline: bench/baselines/BENCH_micro.json, tolerance 25%). Refresh
# the baseline after an intentional change with
#   tools/check_bench_regression.py --fresh build/BENCH_micro.json \
#     --update-baselines
set -euo pipefail

# Parallelism: nproc is not guaranteed on minimal CI images.
n_jobs() {
  nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2
}

if [[ "${1:-}" == "--ctest" ]]; then
  build_dir="$(pwd)"
  if [[ ! -x "${build_dir}/bench_micro" ]]; then
    # The tier1_smoke ctest entry is only registered when
    # S3_BUILD_BENCH=ON, so a missing binary here is a real failure
    # (broken build, wrong cwd) — failing keeps the gate honest. The
    # full-run path below is the one that tolerates bench-less builds.
    echo "tier1_smoke: bench_micro not found in ${build_dir}" >&2
    exit 1
  fi
  "${build_dir}/bench_micro" --benchmark_min_time=0.01 \
    --benchmark_filter='BM_(MatrixPropagate|PorterStem)' \
    --benchmark_out="${build_dir}/BENCH_smoke.json" \
    --benchmark_out_format=json
  exit 0
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j"$(n_jobs)"
ctest --test-dir "${build_dir}" --output-on-failure -j"$(n_jobs)" \
  -E tier1_smoke

if [[ -x "${build_dir}/bench_micro" ]]; then
  "${build_dir}/bench_micro" --benchmark_min_time=0.01 \
    --benchmark_out="${build_dir}/BENCH_smoke.json" \
    --benchmark_out_format=json
else
  echo "bench_micro not built (S3_BUILD_BENCH=OFF?); skipping bench smoke"
fi
echo "tier-1 verify + bench smoke OK"

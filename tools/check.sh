#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
#   tools/check.sh              # build + ctest in ./build, then build the
#                               # perfbench package (.bench_build/perfbench,
#                               # which compiles against CgroupCacheStats
#                               # and MemCgroup field names) and run
#                               # perfbench_test
#   tools/check.sh --sanitize   # additionally build + ctest under ASan+UBSan
#   tools/check.sh --chaos      # ASan build, chaos-labelled tests (incl.
#                               # the reclaim stall/death/overshoot suite)
#                               # + the bench_chaos fault-storm soak
#   tools/check.sh --tsan       # ThreadSanitizer build, MT stress tests
#                               # (concurrency_test — incl. the IR hook
#                               # dispatch storms on both backends — +
#                               # ebr_test + reclaim_test's allocator threads
#                               # racing background reclaim and policy
#                               # churn), the model fingerprints against
#                               # the same golden file, + a bench_mt_scaling
#                               # run (written to build/BENCH_mt_scaling.json)
#                               # + an ir_lfu-on-every-lane scaling check
#   tools/check.sh --bench-smoke  # three quick runs each of
#                               # bench_lockless_reads, bench_readahead_order
#                               # and bench_mt_scaling, which must agree on
#                               # every virtual (non-"wall") JSON field
#                               # (tools/check_bench_determinism.py); then
#                               # quick bench_table4_noop_overhead,
#                               # bench_local_storage, bench_lockless_reads,
#                               # bench_reclaim, bench_readahead_order,
#                               # bench_writeback and the IR dispatch
#                               # interp-vs-JIT microbench
#                               # runs compared against
#                               # bench/baselines/*.json; fails if any
#                               # ns/op point worsens by more than 15%
#   tools/check.sh --analyze    # static analysis: tools/lint_kfunc_charge.py
#                               # (always), a quick IR backend differential
#                               # run (200 randomized programs through
#                               # interpreter and JIT), then clang-tidy over
#                               # src/ using the exported
#                               # compile_commands.json if a clang-tidy
#                               # binary is on PATH (skipped with a note
#                               # otherwise — the CI container ships GCC
#                               # only)
#
# The tier-1 build treats compiler warnings as errors.
#
# Exits non-zero on the first failing step, so it is safe for CI and for
# pre-commit use.

set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
sanitize=0
chaos=0
tsan=0
bench_smoke=0
analyze=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) sanitize=1 ;;
    --chaos) chaos=1 ;;
    --tsan) tsan=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --analyze) analyze=1 ;;
    *) echo "usage: tools/check.sh [--sanitize] [--chaos] [--tsan] [--bench-smoke] [--analyze]" >&2; exit 2 ;;
  esac
done

run_suite() {
  local dir=$1
  shift
  cmake -B "$dir" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" -j "$jobs" --output-on-failure
}

if [[ "$chaos" == 1 ]]; then
  # Chaos harness under AddressSanitizer: fault storms must be memory-clean
  # (no invalid folio pointer is ever dereferenced, §4.4).
  echo "== chaos: ASan build + chaos-labelled tests (build-asan/) =="
  cmake -B build-asan -DCACHE_EXT_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$jobs"
  ctest --test-dir build-asan -L chaos -j "$jobs" --output-on-failure
  echo "== chaos: bench_chaos fault-storm soak =="
  ./build-asan/bench/bench_chaos
  echo "== check.sh --chaos: all green =="
  exit 0
fi

if [[ "$tsan" == 1 ]]; then
  # The concurrent page cache / sharded bpf maps under ThreadSanitizer: the
  # real-thread stress tests (tests/concurrency_test.cc) must be race-free.
  # Everything else in the suite is single-threaded, so only the MT tests
  # run here; halt_on_error makes any report fail the gate. The model
  # fingerprints run too: the instrumented build must reproduce every line
  # of tests/golden/model_fingerprints.txt.
  echo "== tsan: ThreadSanitizer build + MT stress tests (build-tsan/) =="
  cmake -B build-tsan -DCACHE_EXT_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs" --target concurrency_test ebr_test reclaim_test model_fingerprint_test bench_mt_scaling
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/concurrency_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/ebr_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/reclaim_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/model_fingerprint_test
  echo "== tsan: MT scaling run (regular build) =="
  cmake -B build >/dev/null
  cmake --build build -j "$jobs" --target bench_mt_scaling
  ./build/bench/bench_mt_scaling --out build/BENCH_mt_scaling.json
  echo "== tsan: MT scaling with ir_lfu attached (JIT dispatch must not serialize lanes) =="
  ./build/bench/bench_mt_scaling --quick --policy ir_lfu --check \
      --out build/BENCH_mt_scaling_ir_lfu.json
  echo "== check.sh --tsan: all green =="
  exit 0
fi

if [[ "$bench_smoke" == 1 ]]; then
  # Perf smoke: the hot-path benches against their checked-in baselines.
  # BENCH_table4.json was generated with --no-local-storage (the hash-map
  # hot path), so this both catches regressions (>15% over baseline fails)
  # and shows the folio-local-storage win. Regenerate baselines with:
  #   ./build/bench/bench_table4_noop_overhead --no-local-storage \
  #       --out bench/baselines/BENCH_table4.json
  #   ./build/bench/bench_local_storage --out bench/baselines/BENCH_local_storage.json
  #   ./build/bench/bench_lockless_reads --quick \
  #       --out bench/baselines/BENCH_lockless_reads.json
  #   ./build/bench/bench_reclaim --out bench/baselines/BENCH_reclaim.json
  #   ./build/bench/bench_readahead_order --quick \
  #       --out bench/baselines/BENCH_readahead_order.json
  #   ./build/bench/bench_writeback --out bench/baselines/BENCH_writeback.json
  #   ./build/bench/bench_table4_noop_overhead --ir-bench \
  #       --out bench/baselines/BENCH_ir_jit.json
  # BENCH_mt_scaling.json is a reference curve no gate reads (--tsan writes
  # its run to build/); regenerate it with:
  #   ./build/bench/bench_mt_scaling --out bench/baselines/BENCH_mt_scaling.json
  echo "== bench-smoke: build benches (build/) =="
  cmake -B build >/dev/null
  cmake --build build -j "$jobs" --target bench_table4_noop_overhead bench_local_storage bench_lockless_reads bench_reclaim bench_readahead_order bench_writeback bench_mt_scaling
  echo "== bench-smoke: virtual numbers repeat across runs =="
  mkdir -p build/bench-determinism
  for bench in bench_lockless_reads bench_readahead_order bench_mt_scaling; do
    for run in 1 2 3; do
      ./build/bench/"$bench" --quick \
          --out "build/bench-determinism/$bench.$run.json" >/dev/null
    done
    python3 tools/check_bench_determinism.py \
        build/bench-determinism/"$bench".{1,2,3}.json
  done
  echo "== bench-smoke: bench_table4_noop_overhead vs baseline =="
  ./build/bench/bench_table4_noop_overhead --quick \
      --baseline bench/baselines/BENCH_table4.json --threshold 0.15
  echo "== bench-smoke: bench_local_storage vs baseline =="
  ./build/bench/bench_local_storage --quick \
      --baseline bench/baselines/BENCH_local_storage.json --threshold 0.15
  echo "== bench-smoke: bench_lockless_reads vs baseline =="
  ./build/bench/bench_lockless_reads --quick \
      --baseline bench/baselines/BENCH_lockless_reads.json --threshold 0.15
  echo "== bench-smoke: bench_reclaim vs baseline (+ p99 acceptance check) =="
  ./build/bench/bench_reclaim --quick --check \
      --baseline bench/baselines/BENCH_reclaim.json --threshold 0.15
  echo "== bench-smoke: bench_readahead_order vs baseline (+ acceptance check) =="
  ./build/bench/bench_readahead_order --quick --check \
      --baseline bench/baselines/BENCH_readahead_order.json --threshold 0.15
  echo "== bench-smoke: bench_writeback vs baseline (+ ablation acceptance check) =="
  ./build/bench/bench_writeback --quick --check \
      --baseline bench/baselines/BENCH_writeback.json --threshold 0.15
  echo "== bench-smoke: IR dispatch interp-vs-JIT vs baseline (+ >=3x / >=4x checks) =="
  ./build/bench/bench_table4_noop_overhead --ir-bench --quick --check \
      --baseline bench/baselines/BENCH_ir_jit.json --threshold 0.15
  echo "== check.sh --bench-smoke: all green =="
  exit 0
fi

if [[ "$analyze" == 1 ]]; then
  # Static analysis gate. The python lint needs no toolchain and always
  # runs; clang-tidy is best-effort because the CI container is GCC-only —
  # a developer box with LLVM gets the full bugprone-*/performance-* sweep
  # (checks and exclusions live in .clang-tidy).
  echo "== analyze: kfunc charge + fault-point registry lint =="
  python3 tools/lint_kfunc_charge.py
  echo "== analyze: IR backend differential test (quick: 200 randomized programs) =="
  cmake -B build >/dev/null
  cmake --build build -j "$jobs" --target ir_diff_test
  CACHE_EXT_IR_DIFF_N=200 ./build/tests/ir_diff_test
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== analyze: clang-tidy over src/ (compile_commands from build/) =="
    cmake -B build >/dev/null
    mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
    clang-tidy -p build --quiet "${tidy_sources[@]}"
  else
    echo "== analyze: clang-tidy not on PATH, skipping (lint still gates) =="
  fi
  echo "== check.sh --analyze: all green =="
  exit 0
fi

echo "== tier-1: build (warnings are errors) + ctest (build/) =="
run_suite build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

echo "== perfbench: build + perfbench_test (.bench_build/perfbench/) =="
cmake -S perfbench -B .bench_build/perfbench >/dev/null
cmake --build .bench_build/perfbench -j "$jobs"
./.bench_build/perfbench/perfbench_test

if [[ "$sanitize" == 1 ]]; then
  echo "== sanitizers: ASan + UBSan (build-asan/) =="
  run_suite build-asan -DCACHE_EXT_SANITIZE=address,undefined
fi

echo "== check.sh: all green =="

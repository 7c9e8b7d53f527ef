#!/usr/bin/env bash
# Tier-1 gate, in stage order:
#   1. full build + the whole ctest suite (unit tests, CLI pipeline tests
#      and every bench harness's smoke run, whose exit code carries that
#      harness's identity and quality gates);
#   2. perfbench harness build (compile only);
#   3. link audit of the public library surface (scripts/api_audit.sh);
#   4. batch-lattice, parallel-MC and MLE-search suites under
#      CCAP_SIMD=scalar, and under CCAP_SIMD=avx2 when AVX-512 is the
#      widest path;
#   5. opt-in ASan / UBSan stages;
#   6. the concurrency suites under TSan.
# Timing is not gated here: perfbench owns calibrated timing.
#
#   ./scripts/tier1.sh            # stages 1-4 and 6
#   CCAP_SKIP_TSAN=1 ./scripts/tier1.sh   # everything but the TSan stage
#   CCAP_RUN_ASAN=1 ./scripts/tier1.sh    # additionally run the info/util/
#                                         # core/estimate tests under
#                                         # -fsanitize=address (opt-in: ~3x
#                                         # slower, catches the arena
#                                         # over/under-reads the SoA lattice
#                                         # layouts, the banded alignment's
#                                         # per-column block offsets and the
#                                         # stream loop's inline channel
#                                         # step are prone to)
#   CCAP_RUN_UBSAN=1 ./scripts/tier1.sh   # additionally run the util/core/
#                                         # info/sched/estimate tests under
#                                         # -fsanitize=undefined (opt-in:
#                                         # cheap; catches the overflow/shift
#                                         # bugs the backoff and
#                                         # fault-schedule arithmetic could
#                                         # hide, shift-by-64 in the
#                                         # alignment kernel, and
#                                         # out-of-range double -> integer
#                                         # casts such as the geometric
#                                         # draw's truncation)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: standard build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# Benchmark compile check: configure and build the perfbench harness
# against the current library API without running it, so an API change
# that breaks the benchmark fails here rather than in the benchmark run.
echo "== tier1: perfbench harness build (compile only) =="
cmake -S perfbench -B build/perfbench >/dev/null
cmake --build build/perfbench -j"$(nproc)"

# Link audit: every ccap:: library function, out-of-line or inline in a
# header (weak special members aside), is linked by a program (tools/ccap,
# bench/, examples/, perfbench) or named with its reason in
# scripts/api_allowlist.txt; a stale allow-list entry fails too.
echo "== tier1: link audit of the public library surface =="
./scripts/api_audit.sh

# SIMD cross-check: rerun the batch-lattice lane-identity suite and the
# parallel Monte-Carlo scheduler suite with the kernel dispatch pinned to
# the scalar reference path. The default ctest pass above runs on the
# widest available ISA; this stage proves the same binary still matches
# the scalar LatticeEngine bit for bit when the vector kernels are
# disabled — i.e. any bit-identity green above came from correct vector
# code, not from both paths sharing a bug — and that the point schedulers
# keep their thread/batch/tile identities on the scalar kernels too.
# The MLE's Newton fit scores its stencil points on batch-engine lanes,
# so its bits rest on the same per-ISA identity: rerun its scalar Newton
# reference, the local-maximum, coverage, boundary and high-noise checks
# and the recovery grid too.
simd_suites() {
    echo "== tier1: batch-lattice + parallel-MC + MLE suites under CCAP_SIMD=$1 =="
    (cd build && CCAP_SIMD="$1" ./tests/ccap_info_tests \
        --gtest_filter='BatchLattice*:SimdDispatch*:*ParallelMc*' --gtest_brief=1)
    (cd build && CCAP_SIMD="$1" ./tests/ccap_estimate_tests \
        --gtest_filter='ParamEstimator.Mle*:*EstimatorRecovery*' --gtest_brief=1)
}
# The kernel path a CCAP_SIMD value resolves to on this host (the variable
# only clamps down, so an unavailable request reads as a narrower path).
resolved_simd() {
    env CCAP_SIMD="$1" build/tools/ccap mi --blocks 2 --block 8 --verbose |
        sed -n 's/^# simd: \([a-z0-9]*\).*/\1/p'
}
simd_suites scalar
# On a host whose widest path is AVX-512 the default pass never reaches the
# AVX2 table from the MC and MLE suites: rerun them there too.
if [[ "$(resolved_simd avx512)" == "avx512" && "$(resolved_simd avx2)" == "avx2" ]]; then
    simd_suites avx2
fi

if [[ "${CCAP_RUN_ASAN:-0}" == "1" ]]; then
    echo "== tier1: info/util/core/estimate tests under -fsanitize=address (opt-in) =="
    cmake -B build-asan -S . \
        -DCCAP_SANITIZE=address \
        -DCCAP_BUILD_BENCH=OFF \
        -DCCAP_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-asan -j"$(nproc)" --target ccap_util_tests ccap_info_tests \
        ccap_core_tests ccap_estimate_tests
    (cd build-asan && ctest --output-on-failure -R 'ccap_util|ccap_info|Lattice|BatchLattice|SimdDispatch|ParallelMc|Drift')
    (cd build-asan && ./tests/ccap_core_tests --gtest_brief=1 &&
        ./tests/ccap_estimate_tests --gtest_brief=1)
fi

if [[ "${CCAP_RUN_UBSAN:-0}" == "1" ]]; then
    echo "== tier1: util/core/info/sched/estimate tests under -fsanitize=undefined (opt-in) =="
    cmake -B build-ubsan -S . \
        -DCCAP_SANITIZE=undefined \
        -DCCAP_BUILD_BENCH=OFF \
        -DCCAP_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-ubsan -j"$(nproc)" --target ccap_util_tests ccap_core_tests \
        ccap_info_tests ccap_sched_tests ccap_estimate_tests
    # Run the binaries directly: every test they hold runs under UBSan
    # (a ctest -R filter would only match a subset of the discovered names).
    (cd build-ubsan && ./tests/ccap_util_tests && ./tests/ccap_core_tests &&
        ./tests/ccap_info_tests && ./tests/ccap_sched_tests && ./tests/ccap_estimate_tests)
fi

if [[ "${CCAP_SKIP_TSAN:-0}" == "1" ]]; then
    echo "== tier1: TSan stage skipped (CCAP_SKIP_TSAN=1) =="
    exit 0
fi

echo "== tier1: thread-pool + parallel-MC tests under -fsanitize=thread =="
cmake -B build-tsan -S . \
    -DCCAP_SANITIZE=thread \
    -DCCAP_BUILD_BENCH=OFF \
    -DCCAP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j"$(nproc)" --target ccap_util_tests ccap_info_tests ccap_core_tests ccap_sched_tests ccap_estimate_tests
(cd build-tsan && ctest --output-on-failure -R 'ThreadPool|ParallelFor|ParallelReduce|ParallelMc|FaultInjectionParallel|ContentionParallel|ShardCache|TrackerParallel')
echo "== tier1: OK =="

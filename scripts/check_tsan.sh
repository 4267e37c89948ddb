#!/usr/bin/env bash
# Builds the test suite with ThreadSanitizer and runs the parallelism-
# sensitive tests (thread pool, GEMM from concurrent callers, every RCKT
# suite including the stacked training blocks at 1/2/8 threads, trainer/CV and
# the golden trainer runs that drive eval::Evaluate's pool loop, the fused
# attention core's batch split, the forward-stream runs whose
# attention streams fork on the pool, kt_loadgen's RunConnections
# against a loopback stub server, and the serve shard queue: concurrent
# submitters, completion callbacks, cold flushes and the weight-swap
# barrier) under an oversubscribed pool. Any data race in the kt::parallel
# layer or the code it drives fails the script.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

# O1 keeps TSan's shadow instrumentation honest (no vanishing stack frames)
# while the suite still finishes quickly; -march=native matches the normal
# build's FP codegen so golden/determinism tests see identical numbers.
cmake -B "${BUILD_DIR}" -S . \
  -DKT_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g -march=native" >/dev/null
cmake --build "${BUILD_DIR}" --target kt_tests -j "$(nproc)"

# Oversubscribe the pool so worker threads really interleave even on small
# machines; TSan sees every cross-thread access regardless of timing.
export KT_NUM_THREADS="${KT_NUM_THREADS:-8}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

"${BUILD_DIR}/tests/kt_tests" \
  --gtest_filter='Parallel*:GemmKernelEquivalence.ConcurrentCallersMatchSerial:*Rckt*:*StackedFanOut*:TrainerTest*:TrainerGolden*:ComposedParityTest.AttentionBatchSplit*:ComposedParityTest.*ForwardMatchesComposed:*GradientGolden:*ForwardStreamSuite*:RunConnectionsTest*:ShardSetTest*:SwapWeightsTest*' \
  --gtest_brief=1

echo "TSan check passed (KT_NUM_THREADS=${KT_NUM_THREADS})"

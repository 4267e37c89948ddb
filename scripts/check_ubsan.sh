#!/usr/bin/env bash
# Builds the test suite with UndefinedBehaviorSanitizer and runs the numeric
# kernel suites — above all the GEMM kernel equivalence sweeps, whose tiled
# micro kernels do the pointer arithmetic (panel packing, edge tiles, empty
# dims) most likely to hide UB, the broadcast and reduction suites and their
# bitwise sweeps (strided loop nests over size-0, size-1 and mismatched-rank
# shapes), plus the autograd grad-check suites that drive the fused backward
# kernels, and the JSON writer and request-parser cases for non-finite
# floats and fractional ids (double-to-int conversions). Any UBSan report
# fails the script.
#
# Usage: scripts/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ubsan}"

# O1 so the sweep finishes quickly while keeping checks meaningful; portable
# codegen to match the default build (see KT_NATIVE in CMakeLists.txt).
cmake -B "${BUILD_DIR}" -S . \
  -DKT_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g" >/dev/null
cmake --build "${BUILD_DIR}" --target kt_tests -j "$(nproc)"

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

"${BUILD_DIR}/tests/kt_tests" \
  --gtest_filter='GemmKernelEquivalence*:BroadcastTest*:*BroadcastShapeSweep*:ReduceTest*:OpsTest*:KernelBitwiseSweep*:GradCheck*:FusedOps*:*GradientGolden:ComposedParityTest.*ForwardMatchesComposed:ServeJsonTest.WriterEmitsNullForNonFinite:ServeProtocolTest.RefusesFractionalIds' \
  --gtest_brief=1

echo "UBSan check passed"

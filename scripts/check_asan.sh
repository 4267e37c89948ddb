#!/usr/bin/env bash
# Builds the test suite with AddressSanitizer + UndefinedBehaviorSanitizer
# and runs two groups of suites. The serialization and checkpoint suites
# parse attacker-shaped bytes (corrupt/truncated checkpoint files) and so
# must be free of out-of-bounds reads, overflow, and leaks on every error
# path. The autograd, fused-op, loss, layer and RCKT suites drive
# Variable::Backward(), which frees interior gradients and hands gradient
# buffers between nodes mid-pass; a use-after-free or leak there shows up
# here. The banded GEMM test rides along: it addresses packed panels at
# per-block offsets; so do the store-form (Gemm and GemmTransB) and in-place
# TransA GEMM tests, whose tiles read A and B at strided offsets with no
# packed copy, k-blocked, with masked loads and stores on the edge panels.
# The trainer suites run the shared epoch driver, which hands the shuffle
# stream, the best-epoch snapshot and the progress counters to the
# checkpoint code across the epoch and validation callbacks. The
# forward-stream suite writes each attention stream's rows into one
# Uninitialized [k, S, d] output, so a row left unwritten shows as poison.
# The engine parity and recourse suites drive RCKT's streaming generator,
# which copies forward-stream rows into stacked head inputs at computed
# offsets and clones streams for each recourse candidate.
# The JSON suite feeds the one JSON parser (core/json.cc) malformed and
# truncated text; it reads untrusted bytes off the serving wire, and so do
# the request-parser and transport cases that refuse fractional ids.
# Sanitizer builds fill Tensor::Uninitialized storage with a NaN pattern,
# so a kernel that leaves an output element unwritten fails the bitwise
# suites here. Any ASan/UBSan report fails the script.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

# O1 keeps stack frames honest for ASan reports. No -march=native: the
# default build is portable codegen (see KT_NATIVE in CMakeLists.txt), so
# determinism-sensitive tests (kill/resume bit-identity) see the same FP
# instruction selection here as in the normal build.
cmake -B "${BUILD_DIR}" -S . \
  -DKT_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g" >/dev/null
cmake --build "${BUILD_DIR}" --target kt_tests -j "$(nproc)"

FILTER='Serialize*:CkptFormat*:TrainingState*:CkptResume*'
FILTER+=':VariableTest*:GradCheck*:FusedOps*:ComposedParity*:LossTest*'
FILTER+=':AttentionTest*:TransformerBlockTest*:LstmTest*:GruTest*'
FILTER+=':RcktModelTest*'
FILTER+=':*StackedFanOut*:DropoutTest*:GemmKernelEquivalence.Banded*'
FILTER+=':GemmKernelEquivalence.StoreForm*:GemmKernelEquivalence.TransAInPlace*'
FILTER+=':GemmKernelEquivalence.TransBStoreForm*'
FILTER+=':TensorTest.Uninitialized*:OpsTest.SelectOrZero*'
FILTER+=':TrainerTest*:TrainerGolden*:CrossValidationTest*'
FILTER+=':*ForwardStreamSuite*:ServeJsonTest*'
FILTER+=':ServeProtocolTest.RefusesFractionalIds'
FILTER+=':ServeTransportTest.FractionalQuestionGetsAnErrorReply'
FILTER+=':*EngineParitySuite*:EngineRecourseTest*'

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

"${BUILD_DIR}/tests/kt_tests" \
  --gtest_filter="${FILTER}" \
  --gtest_brief=1

echo "ASan/UBSan check passed"

// Single-precision general matrix multiply kernels.
//
// Two fp32 kernel families share the dispatcher:
//
//   * reference: plain loop kernels (i-k-j saxpy for the normal/TransA
//     forms, row-dot for TransB). These define the per-element update
//     order and are kept as the serial ground truth.
//   * tiled: cache-blocked, register-tiled kernels. B is packed once into
//     column panels as wide as the micro kernel's vectors (the TransA form
//     reads A and B in place instead); C is computed in 8-row register
//     tiles, with masked vector tiles on the edges. Every C element is
//     produced by one ascending-k accumulator chain, which is exactly the
//     reference order, so the two families are bit-identical (the TransA
//     form splits k into cache-sized blocks, but C carries each chain
//     across them). The micro kernel is ISA-dispatched at runtime:
//     portable 4-wide vectors, AVX2 or AVX-512, all without FMA.
//
// Every entry point runs on its caller's thread and never forks: splitting
// one op's GEMM by rows cost more in pool wake-ups than it saved (DESIGN.md
// §7). Callers that want threads split whole ops over independent batch
// rows instead (core/parallel.h). So each C element's chain, and with it
// every result bit, is the same for every KT_NUM_THREADS value. The entry
// points are safe to call from several threads at once: the B pack buffer
// is thread-local.
#ifndef KT_TENSOR_GEMM_H_
#define KT_TENSOR_GEMM_H_

#include <cstdint>

namespace kt {

// Kernel selection. kAuto picks per shape: tiled for shapes large enough
// to amortize the pack, reference otherwise.
//
// Override contract (SetGemmKernel): the override is a process-wide hook
// for the kernel-equivalence tests. Both families preserve the
// bit-identity contract for every shape and thread count, so an override
// changes speed, never results. Every dispatch logs its resolved backend
// through kt::obs ("gemm.backend.<name>.calls" / ".bytes") when
// observability is on.
enum class GemmKernel {
  kAuto,
  kReference,
  kTiled,
};

// Process-wide kernel override (default kAuto).
void SetGemmKernel(GemmKernel kernel);
GemmKernel GetGemmKernel();

// Name of a kernel value ("auto", "reference" or "tiled"), for test
// diagnostics.
const char* GemmKernelName(GemmKernel kernel);

// ---------------------------------------------------------------------------
// GEMM entry points
// ---------------------------------------------------------------------------

// C = A * B where A is [m, k], B is [k, n], C is [m, n], all row-major.
// C is overwritten and never read, so it may be uninitialized: the tiled
// family starts each chain at +0 and stores it, which equals zeroing C
// and accumulating; the reference family does exactly that.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);

// C += A * B (accumulating form, used by autograd backward passes).
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n);

// C += A^T * B where A is [k, m] stored row-major (so A^T is [m, k]).
void GemmTransAAccumulate(const float* a, const float* b, float* c, int64_t m,
                          int64_t k, int64_t n);

// C += A * B^T where B is [n, k] stored row-major (so B^T is [k, n]).
// Each element adds its dot chain, accumulated from +0, to C once.
void GemmTransBAccumulate(const float* a, const float* b, float* c, int64_t m,
                          int64_t k, int64_t n);

// C = A * B^T, the store form: C is overwritten and never read, so it may
// be uninitialized. A dot chain from +0 is never -0, so storing it equals
// zero-filling C and calling GemmTransBAccumulate.
void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

// Banded products, for operands that are zero outside a known band (the
// attention core's masked score matrices). C is cut into blocks of
// kGemmBandRows rows; block r (rows [8r, 8r + 8)) visits only the half-open
// range band[2r], band[2r + 1]:
//   kNN     C += A * B   over k in the range (A [m, k], B [k, n]);
//   kTransA C += A^T * B over k in the range (A [k, m], B [k, n]);
//   kTransB C += A * B^T on the columns of C in the range (B [n, k]); other
//           columns are not touched. Column ranges start on a multiple of
//           kGemmBandRows and end on one or at n (whole packed panels).
// Each visited element is the same ascending accumulator chain as in the
// full form. So for kNN and kTransA the result equals the full product
// whenever A is ±0 outside the band, B is finite and no element of C is -0
// before the call: a chain from a non-(-0) value is unchanged by ±0 terms.
// Does nothing if k <= 0. Honours SetGemmKernel.
enum class GemmForm { kNN, kTransA, kTransB };
inline constexpr int64_t kGemmBandRows = 8;
void GemmBandedAccumulate(GemmForm form, const float* a, const float* b,
                          float* c, int64_t m, int64_t k, int64_t n,
                          const int64_t* band);

}  // namespace kt

#endif  // KT_TENSOR_GEMM_H_

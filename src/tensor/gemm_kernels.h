// Internal interface between the GEMM dispatcher (gemm.cc) and
// ISA-specific micro-kernel translation units. Not part of the public API
// (use tensor/gemm.h).
#ifndef KT_TENSOR_GEMM_KERNELS_H_
#define KT_TENSOR_GEMM_KERNELS_H_

#include <cstdint>

namespace kt {
namespace internal {

// Packed-B panel width in floats. Every micro-kernel TU consumes the same
// panel layout (PackB* in gemm.cc): panel j0 holds columns [j0, j0+w) as w
// contiguous floats per k step, w = min(kGemmPanelWidth, n - j0).
inline constexpr int kGemmPanelWidth = 8;

// How a micro tile starts and finishes each C element's chain. All three
// run the products in ascending k order.
enum class TileChain {
  kAccumulate,  // acc = C, acc += a*b ..., C = acc    (C += A*B)
  kStore,       // acc = +0, acc += a*b ..., C = acc   (C = A*B)
  kDot,         // acc = +0, acc += a*b ..., C += acc  (the TransB dot)
};

#ifdef KT_HAVE_AVX2_KERNEL
// Tiled sweep over m rows of C (gemm_avx2.cc, compiled -mavx2 -mno-fma),
// with 8-row ymm register tiles. Bit-identical to the portable tiled and
// reference kernels; call only if cpu::Get().avx2. Operand layouts:
//   trans_a = false: A is [m, k] with row stride lda; B is packed panels
//                    (ldb unused);
//   trans_a = true:  A is [k, m] and B is [k, n], both read in place with
//                    row strides lda and ldb (no packing).
void TiledRowsAvx2(const float* a, int64_t lda, const float* b, int64_t ldb,
                   float* c, int64_t ldc, int64_t m, int64_t k, int64_t n,
                   TileChain chain, bool trans_a);
#endif

}  // namespace internal
}  // namespace kt

#endif  // KT_TENSOR_GEMM_KERNELS_H_

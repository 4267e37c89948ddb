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

#ifdef KT_HAVE_AVX2_KERNEL
// Tiled sweep over m rows of C against pre-packed B panels, using 8-row
// ymm register tiles (gemm_avx2.cc, compiled -mavx2 -mno-fma). Bit-identical
// to the portable tiled and reference kernels; call only if
// cpu::Get().avx2. `load_c` selects the accumulate chain
// (true) vs the dot chain with one final add (false).
void TiledRowsAvx2(const float* a, int64_t lda, const float* bp, float* c,
                   int64_t ldc, int64_t m, int64_t k, int64_t n, bool load_c);
#endif

}  // namespace internal
}  // namespace kt

#endif  // KT_TENSOR_GEMM_KERNELS_H_

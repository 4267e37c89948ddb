// AVX-512 build of the tiled GEMM micro kernel, selected at runtime by
// gemm.cc when the CPU has AVX-512F.
//
// Compiled with -mavx512f -mno-fma -ffp-contract=off (see CMakeLists.txt),
// for the reason gemm_avx2.cc gives: no instruction may fuse a multiply
// with an add. The tile body is the shared one in gemm_kernels.h: 8 x 16
// tiles of zmm accumulators over 16-wide panels, with k-mask column loads
// and stores on the edge panel.
#include <immintrin.h>

#include "tensor/gemm_kernels.h"

namespace kt {
namespace internal {
namespace {

struct Avx512 {
  static constexpr int kWidth = 16;
  static constexpr int kRows = 8;
  using V = __m512;
  using Mask = __mmask16;
  static V Zero() { return _mm512_setzero_ps(); }
  static V Broadcast(float s) { return _mm512_set1_ps(s); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static Mask ColumnMask(int64_t nr) {
    return static_cast<Mask>((1u << nr) - 1u);
  }
  static V LoadMasked(const float* p, Mask mask) {
    return _mm512_maskz_loadu_ps(mask, p);
  }
  static void StoreMasked(float* p, Mask mask, V v) {
    _mm512_mask_storeu_ps(p, mask, v);
  }
};

}  // namespace

const MicroKernel kAvx512Kernel = {Avx512::kWidth, &TiledRowsFor<Avx512>};

}  // namespace internal
}  // namespace kt

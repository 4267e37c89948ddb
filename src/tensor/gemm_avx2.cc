// AVX2 build of the tiled GEMM micro kernel, selected at runtime by
// gemm.cc when the CPU supports it (the default build stays portable
// x86-64, so wide vectors must come from dispatch, not from build flags).
//
// This TU is compiled with -mavx2 -mno-fma -ffp-contract=off (see
// CMakeLists.txt). FMA stays off deliberately: a contracted a*b+c rounds
// once where the reference kernels round twice, which would break the
// bit-identity contract between kernel families. The tile body is the
// shared one in gemm_kernels.h: 8 x 8 tiles of ymm accumulators over
// 8-wide panels, with vmaskmovps column masks on the edge panel.
#include <immintrin.h>

#include "tensor/gemm_kernels.h"

namespace kt {
namespace internal {
namespace {

struct Avx2 {
  static constexpr int kWidth = 8;
  static constexpr int kRows = 8;
  using V = __m256;
  using Mask = __m256i;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Broadcast(float s) { return _mm256_set1_ps(s); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static Mask ColumnMask(int64_t nr) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nr)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V LoadMasked(const float* p, Mask mask) {
    return _mm256_maskload_ps(p, mask);
  }
  static void StoreMasked(float* p, Mask mask, V v) {
    _mm256_maskstore_ps(p, mask, v);
  }
};

}  // namespace

const MicroKernel kAvx2Kernel = {Avx2::kWidth, &TiledRowsFor<Avx2>};

}  // namespace internal
}  // namespace kt

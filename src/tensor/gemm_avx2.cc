// AVX2 build of the tiled GEMM micro kernel, selected at runtime by
// gemm.cc when the CPU supports it (the default build stays portable
// x86-64, so wide vectors must come from dispatch, not from build flags).
//
// This TU is compiled with -mavx2 -mno-fma -ffp-contract=off (see
// CMakeLists.txt). FMA stays off deliberately: a contracted a*b+c rounds
// once where the reference kernels round twice, which would break the
// bit-identity contract between kernel families. Vector mul/add are
// element-wise IEEE single precision, and each C element is still one
// ascending-k accumulator chain, so results match the reference and the
// portable tiled kernels bit for bit — wider registers change scheduling,
// never values.
//
// The panel layout is shared with gemm.cc (kNR = 8 floats per k step), so
// packing is ISA-independent; only the row-tile height differs (8 ymm
// accumulator rows here vs 4x2 xmm there). The TransA form packs nothing:
// it reads A and B where they lie.
#include "tensor/gemm_kernels.h"

#include <algorithm>
#include <cstring>

namespace kt {
namespace internal {
namespace {

constexpr int kMR = 8;  // register rows (one ymm accumulator each)
constexpr int kNR = kGemmPanelWidth;

typedef float V8 __attribute__((vector_size(32)));

inline V8 Load8(const float* p) {
  V8 v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned-safe, compiles to vmovups
  return v;
}
inline void Store8(float* p, V8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

// Full kMR x kNR tile. Same chain shapes as the portable kernels (see
// TileChain). kTransA reads A [k, m] and B [k, n] in place: step p
// broadcasts A[p, i] and loads B[p, 0..8) at row stride ldb. Otherwise A is
// [m, k] and B a packed panel (ldb = kNR).
template <TileChain kChain, bool kTransA>
inline void MicroTile(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t k) {
  V8 acc[kMR];
  for (int i = 0; i < kMR; ++i)
    acc[i] = kChain == TileChain::kAccumulate ? Load8(c + i * ldc) : V8{};
  for (int64_t p = 0; p < k; ++p) {
    const V8 bv = Load8(b + p * ldb);
    for (int i = 0; i < kMR; ++i) {
      const float s = kTransA ? a[p * lda + i] : a[i * lda + p];
      const V8 av = {s, s, s, s, s, s, s, s};
      acc[i] += av * bv;
    }
  }
  for (int i = 0; i < kMR; ++i) {
    if (kChain == TileChain::kDot) {
      Store8(c + i * ldc, Load8(c + i * ldc) + acc[i]);
    } else {
      Store8(c + i * ldc, acc[i]);
    }
  }
}

// Edge tile with runtime extents (mr <= kMR, nr <= kNR); `ldb` is the row
// stride of B (the panel width for a packed panel). Scalar: edges are a
// vanishing fraction of the work, and the scalar expressions are the chain
// contract itself.
template <TileChain kChain, bool kTransA>
inline void MicroTileEdge(const float* a, int64_t lda, const float* b,
                          int64_t ldb, float* c, int64_t ldc, int64_t k,
                          int64_t mr, int64_t nr) {
  float acc[kMR][kNR];
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j)
      acc[i][j] = kChain == TileChain::kAccumulate ? c[i * ldc + j] : 0.0f;
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    for (int64_t i = 0; i < mr; ++i) {
      const float a_val = kTransA ? a[p * lda + i] : a[i * lda + p];
      for (int64_t j = 0; j < nr; ++j) acc[i][j] += a_val * b_row[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) {
      if (kChain == TileChain::kDot) {
        c[i * ldc + j] += acc[i][j];
      } else {
        c[i * ldc + j] = acc[i][j];
      }
    }
  }
}

template <TileChain kChain, bool kTransA>
void TiledRows(const float* a, int64_t lda, const float* b, int64_t ldb,
               float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
  for (int64_t i0 = 0; i0 < m; i0 += kMR) {
    const int64_t mr = std::min<int64_t>(kMR, m - i0);
    const float* a_tile = kTransA ? a + i0 : a + i0 * lda;
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t nr = std::min<int64_t>(kNR, n - j0);
      // In place: columns j0.. of B. Packed: panel j0, nr floats per step.
      const float* b_tile = kTransA ? b + j0 : b + j0 * k;
      float* c_tile = c + i0 * ldc + j0;
      if (mr == kMR && nr == kNR) {
        MicroTile<kChain, kTransA>(a_tile, lda, b_tile, kTransA ? ldb : kNR,
                                   c_tile, ldc, k);
      } else {
        MicroTileEdge<kChain, kTransA>(a_tile, lda, b_tile,
                                       kTransA ? ldb : nr, c_tile, ldc, k, mr,
                                       nr);
      }
    }
  }
}

}  // namespace

void TiledRowsAvx2(const float* a, int64_t lda, const float* b, int64_t ldb,
                   float* c, int64_t ldc, int64_t m, int64_t k, int64_t n,
                   TileChain chain, bool trans_a) {
  switch (chain) {
    case TileChain::kAccumulate:
      if (trans_a) {
        TiledRows<TileChain::kAccumulate, true>(a, lda, b, ldb, c, ldc, m, k,
                                                n);
      } else {
        TiledRows<TileChain::kAccumulate, false>(a, lda, b, ldb, c, ldc, m, k,
                                                 n);
      }
      break;
    case TileChain::kStore:
      TiledRows<TileChain::kStore, false>(a, lda, b, ldb, c, ldc, m, k, n);
      break;
    case TileChain::kDot:
      TiledRows<TileChain::kDot, false>(a, lda, b, ldb, c, ldc, m, k, n);
      break;
  }
}

}  // namespace internal
}  // namespace kt

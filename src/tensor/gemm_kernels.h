// Internal interface between the GEMM dispatcher (gemm.cc) and the
// micro-kernel translation units. Not part of the public API (use
// tensor/gemm.h).
//
// One templated tile body serves every micro kernel. Each TU that includes
// this header supplies an ISA traits type in its own anonymous namespace
// (portable 8-float vectors in gemm.cc, AVX2 in gemm_avx2.cc, AVX-512 in
// gemm_avx512.cc), so every instantiation is local to a TU built with that
// ISA's flags. The body calls nothing but the traits: an inline helper
// shared across TUs built with different -m flags could be emitted once
// with the widest ISA and reach a CPU without it.
#ifndef KT_TENSOR_GEMM_KERNELS_H_
#define KT_TENSOR_GEMM_KERNELS_H_

#include <cstdint>

namespace kt {
namespace internal {

// How a micro tile starts and finishes each C element's chain. All three
// run the products in ascending k order.
enum class TileChain {
  kAccumulate,  // acc = C, acc += a*b ..., C = acc    (C += A*B)
  kStore,       // acc = +0, acc += a*b ..., C = acc   (C = A*B)
  kDot,         // acc = +0, acc += a*b ..., C += acc  (the TransB dot)
};

// Tiled sweep over m rows of C. Operand layouts:
//   trans_a = false: A is [m, k] with row stride lda; B is packed panels of
//                    the kernel's width (ldb unused): panel j0 holds columns
//                    [j0, j0 + w) as w contiguous floats per k step,
//                    w = min(width, n - j0);
//   trans_a = true:  A is [k, m] and B is [k, n], both read in place with
//                    row strides lda and ldb (no packing); only kAccumulate.
using TiledRowsFn = void (*)(const float* a, int64_t lda, const float* b,
                             int64_t ldb, float* c, int64_t ldc, int64_t m,
                             int64_t k, int64_t n, TileChain chain,
                             bool trans_a);

// A micro kernel: its packed-panel width (= its vector width in floats) and
// its sweep. Every kernel is bit-identical to the reference loops.
struct MicroKernel {
  int width;
  TiledRowsFn rows;
};

// The TransA form splits k into blocks of this many steps so that a block
// of A and B stays in cache while every tile of C consumes it. Each C
// element's chain continues across the blocks (C holds it in between), so
// the split changes no bit.
inline constexpr int64_t kTransABlockK = 256;

#ifdef KT_HAVE_AVX2_KERNEL
// gemm_avx2.cc, built -mavx2 -mno-fma; run only if cpu::Get().avx2.
extern const MicroKernel kAvx2Kernel;
#endif
#ifdef KT_HAVE_AVX512_KERNEL
// gemm_avx512.cc, built -mavx512f -mno-fma; run only if cpu::Get().avx512f.
extern const MicroKernel kAvx512Kernel;
#endif

// ---------------------------------------------------------------------------
// The shared tile body. An ISA traits type provides:
//   kWidth                     floats per V (= the panel width);
//   kRows                      rows per register tile, one accumulator
//                              vector per row;
//   V, Mask                    the vector and column-mask types;
//   Zero(), Broadcast(s)       +0 in every lane; s in every lane;
//   Load(p), Store(p, v)       kWidth unaligned floats;
//   ColumnMask(nr)             the first nr < kWidth lanes;
//   LoadMasked(p, mask)        the masked lanes of p, +0 elsewhere; never
//                              touches memory outside the masked lanes;
//   StoreMasked(p, mask, v)    writes only the masked lanes.
// Lane arithmetic is element-wise IEEE single precision with no
// contraction (every kernel TU is built -ffp-contract=off, the ISA ones
// also -mno-fma), so each C element is the reference's scalar chain:
// acc + (a * b) per step, k ascending, then C + acc for kDot.
// ---------------------------------------------------------------------------

// A kRows x kWidth tile of C; kMasked limits the columns to `mask` (the
// edge panel of a row of C). Operands as in TiledRowsFn: kTransA steps p
// broadcast A[p, i] and load B[p, j0..) at row stride ldb; otherwise A is
// [m, k] against a packed panel (ldb = its width).
template <class Isa, TileChain kChain, bool kTransA, bool kMasked, int kRows>
inline void MicroTile(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t k,
                      typename Isa::Mask mask) {
  using V = typename Isa::V;
  auto load = [mask](const float* p) -> V {
    if constexpr (kMasked) {
      return Isa::LoadMasked(p, mask);
    } else {
      return Isa::Load(p);
    }
  };
  V acc[kRows];
  for (int i = 0; i < kRows; ++i)
    acc[i] = kChain == TileChain::kAccumulate ? load(c + i * ldc) : Isa::Zero();
  for (int64_t p = 0; p < k; ++p) {
    const V bv = load(b + p * ldb);
    for (int i = 0; i < kRows; ++i) {
      const float s = kTransA ? a[p * lda + i] : a[i * lda + p];
      acc[i] += Isa::Broadcast(s) * bv;
    }
  }
  for (int i = 0; i < kRows; ++i) {
    const V out =
        kChain == TileChain::kDot ? load(c + i * ldc) + acc[i] : acc[i];
    if constexpr (kMasked) {
      Isa::StoreMasked(c + i * ldc, mask, out);
    } else {
      Isa::Store(c + i * ldc, out);
    }
  }
}

// The tile for the last mr < kRows rows: a compile-time search down to the
// row count, so every edge tile still keeps its accumulators in registers.
template <class Isa, TileChain kChain, bool kTransA, bool kMasked,
          int kRows = Isa::kRows>
inline void MicroTileRows(int64_t mr, const float* a, int64_t lda,
                          const float* b, int64_t ldb, float* c, int64_t ldc,
                          int64_t k, typename Isa::Mask mask) {
  if constexpr (kRows > 1) {
    if (mr < kRows) {
      MicroTileRows<Isa, kChain, kTransA, kMasked, kRows - 1>(
          mr, a, lda, b, ldb, c, ldc, k, mask);
      return;
    }
  }
  MicroTile<Isa, kChain, kTransA, kMasked, kRows>(a, lda, b, ldb, c, ldc, k,
                                                   mask);
}

template <class Isa, TileChain kChain, bool kTransA>
void TiledRowsT(const float* a, int64_t lda, const float* b, int64_t ldb,
                float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
  constexpr int64_t kW = Isa::kWidth;
  constexpr int64_t kR = Isa::kRows;
  const int64_t block = kTransA ? kTransABlockK : k;
  for (int64_t p0 = 0; p0 < k; p0 += block) {
    const int64_t kb = k - p0 < block ? k - p0 : block;
    for (int64_t i0 = 0; i0 < m; i0 += kR) {
      const int64_t mr = m - i0 < kR ? m - i0 : kR;
      const float* a_tile = kTransA ? a + p0 * lda + i0 : a + i0 * lda;
      for (int64_t j0 = 0; j0 < n; j0 += kW) {
        const int64_t nr = n - j0 < kW ? n - j0 : kW;
        // In place: rows p0.. and columns j0.. of B. Packed: panel j0, nr
        // floats per step.
        const float* b_tile = kTransA ? b + p0 * ldb + j0 : b + j0 * k;
        const int64_t b_stride = kTransA ? ldb : nr;
        float* c_tile = c + i0 * ldc + j0;
        if (nr == kW) {
          MicroTileRows<Isa, kChain, kTransA, false>(
              mr, a_tile, lda, b_tile, b_stride, c_tile, ldc, kb,
              typename Isa::Mask{});
        } else {
          MicroTileRows<Isa, kChain, kTransA, true>(
              mr, a_tile, lda, b_tile, b_stride, c_tile, ldc, kb,
              Isa::ColumnMask(nr));
        }
      }
    }
  }
}

// The TiledRowsFn of one ISA.
template <class Isa>
void TiledRowsFor(const float* a, int64_t lda, const float* b, int64_t ldb,
                  float* c, int64_t ldc, int64_t m, int64_t k, int64_t n,
                  TileChain chain, bool trans_a) {
  switch (chain) {
    case TileChain::kAccumulate:
      if (trans_a) {
        TiledRowsT<Isa, TileChain::kAccumulate, true>(a, lda, b, ldb, c, ldc,
                                                      m, k, n);
      } else {
        TiledRowsT<Isa, TileChain::kAccumulate, false>(a, lda, b, ldb, c,
                                                       ldc, m, k, n);
      }
      break;
    case TileChain::kStore:
      TiledRowsT<Isa, TileChain::kStore, false>(a, lda, b, ldb, c, ldc, m, k,
                                                n);
      break;
    case TileChain::kDot:
      TiledRowsT<Isa, TileChain::kDot, false>(a, lda, b, ldb, c, ldc, m, k,
                                              n);
      break;
  }
}

}  // namespace internal
}  // namespace kt

#endif  // KT_TENSOR_GEMM_KERNELS_H_

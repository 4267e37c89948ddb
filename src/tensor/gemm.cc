#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "core/check.h"
#include "core/cpu.h"
#include "core/parallel.h"
#include "obs/obs.h"
#include "tensor/gemm_kernels.h"

namespace kt {
namespace {

// Kernel-layer telemetry (kt::obs): call and FLOP counts, total and per
// dispatch flavor. The run log's "gemm_flops" field and the --obs exit
// summary read these. Call sites guard on one relaxed atomic load, so the
// disabled hot path costs nothing measurable; when enabled this adds four
// sharded counter increments — never a floating-point operation, so results
// stay bit-identical. Flavor handles are resolved once per call site
// (function-local statics) to keep the registry mutex off the hot path.
inline void CountGemmDispatch(obs::Counter* flavor_calls,
                              obs::Counter* flavor_flops, int64_t mul_adds) {
  static obs::Counter* const calls = obs::Counter::Get("gemm.calls");
  static obs::Counter* const flops = obs::Counter::Get("gemm.flops");
  calls->Add(1);
  flops->Add(mul_adds);
  flavor_calls->Add(1);
  flavor_flops->Add(mul_adds);
}

#define KT_COUNT_GEMM_FLOPS(flavor, flops)                                  \
  if (obs::Enabled()) {                                                     \
    static obs::Counter* const kt_gemm_calls =                              \
        obs::Counter::Get("gemm." flavor ".calls");                         \
    static obs::Counter* const kt_gemm_flops =                              \
        obs::Counter::Get("gemm." flavor ".flops");                         \
    CountGemmDispatch(kt_gemm_calls, kt_gemm_flops, (flops));               \
  }
#define KT_COUNT_GEMM(flavor, m, k, n) \
  KT_COUNT_GEMM_FLOPS(flavor, 2 * (m) * (k) * (n))

// Per-backend telemetry for the --gemm-kernel override contract (gemm.h):
// every dispatch logs which backend actually ran, so operators can confirm
// an override took effect from the obs summary.
inline void CountBackendDispatch(GemmKernel resolved, int64_t m, int64_t k,
                                 int64_t n) {
  if (!obs::Enabled()) return;
  static obs::Counter* const ref_calls =
      obs::Counter::Get("gemm.backend.reference.calls");
  static obs::Counter* const ref_bytes =
      obs::Counter::Get("gemm.backend.reference.bytes");
  static obs::Counter* const tiled_calls =
      obs::Counter::Get("gemm.backend.tiled.calls");
  static obs::Counter* const tiled_bytes =
      obs::Counter::Get("gemm.backend.tiled.bytes");
  const int64_t bytes = (m * k + k * n + m * n) * 4;
  switch (resolved) {
    case GemmKernel::kReference:
      ref_calls->Add(1);
      ref_bytes->Add(bytes);
      break;
    case GemmKernel::kTiled:
      tiled_calls->Add(1);
      tiled_bytes->Add(bytes);
      break;
    case GemmKernel::kAuto:
      break;  // never a resolved value
  }
}

std::atomic<GemmKernel> g_gemm_kernel{GemmKernel::kAuto};

// ---------------------------------------------------------------------------
// Reference kernels. These define the floating-point contract: each C
// element is one ascending-k accumulator chain. The tiled kernels below
// replay exactly the same per-element chains, just grouped into register
// tiles, so the two families are bit-identical.
// ---------------------------------------------------------------------------

// C (+)= A * B with the i-k-j ordering; A has row stride lda. The innermost
// j loop is a contiguous saxpy over the output row, which the compiler
// auto-vectorizes.
inline void GemmIkj(const float* a, int64_t lda, const float* b, float* c,
                    int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * lda;
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

// C += A^T * B, rows [lo, hi) of C; A is [k, m] row-major. Per element the
// update order is p ascending, matching the p-outer serial form.
inline void GemmTransARows(const float* a, const float* b, float* c,
                           int64_t lo, int64_t hi, int64_t m, int64_t k,
                           int64_t n) {
  for (int64_t i = lo; i < hi; ++i) {
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a[p * m + i];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

// C += A * B^T, rows [lo, hi); B is [n, k] row-major and C has row stride
// ldc. The inner p loop is a dot product accumulated from zero, then added
// to C once — the TransB chain shape the tiled kernel must reproduce.
inline void GemmTransBRows(const float* a, const float* b, float* c,
                           int64_t ldc, int64_t lo, int64_t hi, int64_t k,
                           int64_t n) {
  for (int64_t i = lo; i < hi; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Tiled kernels. B is packed once into kNR-wide column panels (contiguous
// per k step) on the calling thread, except by the TransA form, which
// reads A and B in place; C is produced in kMR x kNR register
// tiles. Each accumulator runs the full k range ascending, so the chain per
// C element is identical to the reference kernels. kMR*kNR accumulators fit
// the 16 xmm registers of baseline x86-64; with wider vectors (KT_NATIVE)
// the same source compiles to ymm/zmm tiles.
// ---------------------------------------------------------------------------

constexpr int kMR = 4;  // register rows per micro tile (portable kernel)
constexpr int kNR = internal::kGemmPanelWidth;  // packed panel width (floats)

using internal::TileChain;

inline std::vector<float>& PackBufB() {
  static thread_local std::vector<float> buf;
  return buf;
}

// Packs B [k, n] row-major into column panels: panel j0 holds columns
// [j0, j0+w) as w contiguous floats per k step.
void PackB(const float* b, int64_t k, int64_t n, float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t w = std::min<int64_t>(kNR, n - j0);
    float* panel = bp + j0 * k;
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(panel + p * w, b + p * n + j0,
                  sizeof(float) * static_cast<size_t>(w));
    }
  }
}

// Packs B^T into the same panel layout, where B is [n, k] row-major (the
// TransB operand): panel element (p, jj) = B[j0 + jj, p].
void PackBTransposed(const float* b, int64_t k, int64_t n, float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t w = std::min<int64_t>(kNR, n - j0);
    float* panel = bp + j0 * k;
    for (int64_t jj = 0; jj < w; ++jj) {
      const float* b_row = b + (j0 + jj) * k;
      for (int64_t p = 0; p < k; ++p) panel[p * w + jj] = b_row[p];
    }
  }
}

// 4-wide vector lane (GCC/Clang vector extension). Lane arithmetic is
// element-wise IEEE single precision — identical to the scalar ops — so
// using vectors changes scheduling, never results. Spelling the lanes out
// (instead of a scalar j loop) matters: GCC's loop vectorizer otherwise
// targets the k loop and emits a shuffle-heavy transposed form ~3x slower
// than the reference kernels.
typedef float V4 __attribute__((vector_size(16)));

inline V4 Load4(const float* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned-safe, compiles to movups
  return v;
}
inline void Store4(float* p, V4 v) { __builtin_memcpy(p, &v, sizeof(v)); }

// Full kMR x kNR register tile; kChain selects the chain shape (see
// internal::TileChain). Operands: A [m, k] with row stride lda against a
// packed panel (ldb = kNR), or, with kTransA, A [k, m] and B [k, n] read in
// place with row strides lda and ldb — step p broadcasts A[p, i] and loads
// B[p, j0..j0+8), so nothing is packed.
template <TileChain kChain, bool kTransA>
inline void MicroTile(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t k) {
  static_assert(kNR == 8, "micro tile hand-unrolls two 4-wide lanes");
  constexpr bool kLoadC = kChain == TileChain::kAccumulate;
  V4 acc[kMR][2];
  for (int i = 0; i < kMR; ++i) {
    acc[i][0] = kLoadC ? Load4(c + i * ldc) : V4{};
    acc[i][1] = kLoadC ? Load4(c + i * ldc + 4) : V4{};
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    const V4 b0 = Load4(b_row);
    const V4 b1 = Load4(b_row + 4);
    for (int i = 0; i < kMR; ++i) {
      const float s = kTransA ? a[p * lda + i] : a[i * lda + p];
      const V4 av = {s, s, s, s};
      acc[i][0] += av * b0;
      acc[i][1] += av * b1;
    }
  }
  for (int i = 0; i < kMR; ++i) {
    if (kChain == TileChain::kDot) {
      Store4(c + i * ldc, Load4(c + i * ldc) + acc[i][0]);
      Store4(c + i * ldc + 4, Load4(c + i * ldc + 4) + acc[i][1]);
    } else {
      Store4(c + i * ldc, acc[i][0]);
      Store4(c + i * ldc + 4, acc[i][1]);
    }
  }
}

// Edge tile with runtime extents (mr <= kMR, nr <= kNR); `ldb` is the row
// stride of B (the panel width, == nr, for a packed edge panel).
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

// Tiled sweep over m rows of C. `a` addresses the first of the m rows: row
// i0 of A [m, k] (row stride lda), or column i0 of A [k, m] with kTransA.
// `b` is packed panels (ldb unused), or B [k, n] itself with kTransA.
template <TileChain kChain, bool kTransA>
void TiledRowsPortable(const float* a, int64_t lda, const float* b,
                       int64_t ldb, float* c, int64_t ldc, int64_t m,
                       int64_t k, int64_t n) {
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

// Runtime ISA dispatch. The default build is portable x86-64, so AVX2 is
// reached via a separately-compiled TU (gemm_avx2.cc) guarded by the
// cached core/cpu.h probe, not via build flags. Both implementations
// read the same operand layouts and replay the same per-element chains,
// so which one runs is unobservable in the results.
template <TileChain kChain, bool kTransA = false>
inline void TiledRows(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t m,
                      int64_t k, int64_t n) {
  static_assert(!kTransA || kChain == TileChain::kAccumulate,
                "the TransA form only accumulates");
#ifdef KT_HAVE_AVX2_KERNEL
  if (cpu::Get().avx2) {
    internal::TiledRowsAvx2(a, lda, b, ldb, c, ldc, m, k, n, kChain, kTransA);
    return;
  }
#endif
  TiledRowsPortable<kChain, kTransA>(a, lda, b, ldb, c, ldc, m, k, n);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// Parallelization policy. All kernels split work by output row, so each
// thread writes a disjoint slab of C and each C element sees exactly the
// same sequence of floating-point updates (p ascending) as the serial
// code — results are bit-identical for every thread count. Small products
// stay serial: the pool dispatch (~µs) would dominate them.
constexpr int64_t kParallelFlopThreshold = 1 << 18;  // m*k*n multiply-adds
// Rows per chunk are sized for ~32k multiply-adds each, from the problem
// shape alone (never the thread count), so chunk boundaries are stable.
constexpr int64_t kChunkFlops = 1 << 15;

inline bool UseParallel(int64_t m, int64_t k, int64_t n) {
  return m >= 2 && m * k * n >= kParallelFlopThreshold && GetNumThreads() > 1;
}

inline int64_t RowGrain(int64_t k, int64_t n) {
  const int64_t flops_per_row = k * n;
  const int64_t rows = flops_per_row > 0 ? kChunkFlops / flops_per_row : 1;
  return rows > 0 ? rows : 1;
}

// Tiled kernels win once the k*n pack is amortized over enough rows and the
// tile has real width; tiny or skinny products keep the reference loops.
inline bool TiledHeuristic(int64_t m, int64_t k, int64_t n) {
  return m >= kMR && n >= kNR && k >= 4 && m * k * n >= 4096;
}

// Resolves the kernel family that will actually run this product: the
// explicit override, else the built-in heuristic. Never returns kAuto.
GemmKernel ResolveKernel(int64_t m, int64_t k, int64_t n) {
  const GemmKernel override_kernel =
      g_gemm_kernel.load(std::memory_order_relaxed);
  if (override_kernel != GemmKernel::kAuto) return override_kernel;
  return TiledHeuristic(m, k, n) ? GemmKernel::kTiled : GemmKernel::kReference;
}

// The tiled C (=|+=) A * B: B packed once into panels on the calling
// thread, then row-blocked over the pool above the size threshold.
template <TileChain kChain>
void GemmTiledNN(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  KT_COUNT_GEMM("nn", m, k, n);
  CountBackendDispatch(GemmKernel::kTiled, m, k, n);
  std::vector<float>& bp = PackBufB();
  bp.resize(static_cast<size_t>(k * n));
  PackB(b, k, n, bp.data());
  const float* bpp = bp.data();
  if (UseParallel(m, k, n)) {
    ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
      TiledRows<kChain>(a + lo * k, k, bpp, 0, c + lo * n, n, hi - lo, k, n);
    });
    return;
  }
  TiledRows<kChain>(a, k, bpp, 0, c, n, m, k, n);
}

}  // namespace

void SetGemmKernel(GemmKernel kernel) {
  g_gemm_kernel.store(kernel, std::memory_order_relaxed);
}

GemmKernel GetGemmKernel() {
  return g_gemm_kernel.load(std::memory_order_relaxed);
}

bool GemmKernelByName(const std::string& name, GemmKernel* out) {
  for (const GemmKernel kernel :
       {GemmKernel::kAuto, GemmKernel::kReference, GemmKernel::kTiled}) {
    if (name == GemmKernelName(kernel)) {
      *out = kernel;
      return true;
    }
  }
  return false;
}

const char* GemmKernelName(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kAuto:
      return "auto";
    case GemmKernel::kReference:
      return "reference";
    case GemmKernel::kTiled:
      return "tiled";
  }
  return "auto";
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  // Guard the memset: c may legitimately be null when the output is empty
  // (e.g. a zero-size buffer's data()), and memset(nullptr, 0, 0) is UB.
  if (m <= 0 || n <= 0) return;
  if (k > 0 && ResolveKernel(m, k, n) == GemmKernel::kTiled) {
    // Store form: each tile starts its accumulators at +0 and stores them,
    // the chain +0 + a1*b1 + ... that zeroing C and accumulating runs.
    GemmTiledNN<TileChain::kStore>(a, b, c, m, k, n);
    return;
  }
  // The reference family defines the contract: C = 0, then accumulate.
  std::memset(c, 0, sizeof(float) * static_cast<size_t>(m * n));
  GemmAccumulate(a, b, c, m, k, n);
}

void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (ResolveKernel(m, k, n) == GemmKernel::kTiled) {
    GemmTiledNN<TileChain::kAccumulate>(a, b, c, m, k, n);
    return;
  }
  KT_COUNT_GEMM("nn", m, k, n);
  CountBackendDispatch(GemmKernel::kReference, m, k, n);
  if (UseParallel(m, k, n)) {
    ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
      GemmIkj(a + lo * k, k, b, c + lo * n, hi - lo, k, n);
    });
    return;
  }
  GemmIkj(a, k, b, c, m, k, n);
}

void GemmTransAAccumulate(const float* a, const float* b, float* c, int64_t m,
                          int64_t k, int64_t n) {
  // A is [k, m] row-major; we want C += A^T B: C[i, j] += A[p, i] * B[p, j].
  if (m <= 0 || n <= 0 || k <= 0) return;
  KT_COUNT_GEMM("ta", m, k, n);
  const GemmKernel resolved = ResolveKernel(m, k, n);
  CountBackendDispatch(resolved, m, k, n);
  if (resolved != GemmKernel::kReference) {
    // Both operands are read in place (rows p of A and B at each step), so
    // nothing is packed; the chain per C element (p ascending) is unchanged
    // from the reference forms. Rows lo.. of C are columns lo.. of A.
    if (UseParallel(m, k, n)) {
      ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
        TiledRows<TileChain::kAccumulate, true>(a + lo, m, b, n, c + lo * n,
                                                n, hi - lo, k, n);
      });
      return;
    }
    TiledRows<TileChain::kAccumulate, true>(a, m, b, n, c, n, m, k, n);
    return;
  }
  if (UseParallel(m, k, n)) {
    // Row-partitioned form: per output row i, accumulate over p ascending —
    // the same per-element update order as the serial loop below, so the
    // result is bit-identical (A is read with stride m, a cache cost we only
    // pay above the size threshold where the parallel win dominates).
    ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
      GemmTransARows(a, b, c, lo, hi, m, k, n);
    });
    return;
  }
  // Serial: loop over p (rows of A and B) so both inner reads stay
  // contiguous.
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float a_val = a_row[i];
      float* c_row = c + i * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

void GemmTransBAccumulate(const float* a, const float* b, float* c, int64_t m,
                          int64_t k, int64_t n) {
  // B is [n, k] row-major; C[i, j] += sum_p A[i, p] * B[j, p].
  if (m <= 0 || n <= 0) return;
  KT_COUNT_GEMM("tb", m, k, n);
  if (k <= 0) {
    // The reference dot form still executes `c += 0.0f` per element; keep
    // that (it normalizes -0.0f) so all paths agree bit-for-bit.
    for (int64_t i = 0; i < m * n; ++i) c[i] += 0.0f;
    return;
  }
  const GemmKernel resolved = ResolveKernel(m, k, n);
  CountBackendDispatch(resolved, m, k, n);
  if (resolved != GemmKernel::kReference) {
    std::vector<float>& bp = PackBufB();
    bp.resize(static_cast<size_t>(k * n));
    PackBTransposed(b, k, n, bp.data());
    const float* bpp = bp.data();
    if (UseParallel(m, k, n)) {
      ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
        TiledRows<TileChain::kDot>(a + lo * k, k, bpp, 0, c + lo * n, n,
                                   hi - lo, k, n);
      });
      return;
    }
    TiledRows<TileChain::kDot>(a, k, bpp, 0, c, n, m, k, n);
    return;
  }
  if (UseParallel(m, k, n)) {
    ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
      GemmTransBRows(a, b, c, n, lo, hi, k, n);
    });
    return;
  }
  GemmTransBRows(a, b, c, n, 0, m, k, n);
}

void GemmBandedAccumulate(GemmForm form, const float* a, const float* b,
                          float* c, int64_t m, int64_t k, int64_t n,
                          const int64_t* band) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const int64_t blocks = (m + kGemmBandRows - 1) / kGemmBandRows;
  if (obs::Enabled()) {
    int64_t mul_adds = 0;
    for (int64_t r = 0; r < blocks; ++r) {
      const int64_t rows = std::min(kGemmBandRows, m - r * kGemmBandRows);
      mul_adds += 2 * rows * (band[2 * r + 1] - band[2 * r]) *
                  (form == GemmForm::kTransB ? k : n);
    }
    KT_COUNT_GEMM_FLOPS("banded", mul_adds);
  }
  const GemmKernel resolved = ResolveKernel(m, k, n);
  CountBackendDispatch(resolved, m, k, n);
  if (resolved == GemmKernel::kReference) {
    for (int64_t r = 0; r < blocks; ++r) {
      const int64_t i0 = r * kGemmBandRows;
      const int64_t i1 = std::min(m, i0 + kGemmBandRows);
      const int64_t lo = band[2 * r], hi = band[2 * r + 1];
      if (lo >= hi) continue;
      switch (form) {
        case GemmForm::kNN:
          GemmIkj(a + i0 * k + lo, k, b + lo * n, c + i0 * n, i1 - i0, hi - lo,
                  n);
          break;
        case GemmForm::kTransA:
          GemmTransARows(a + lo * m, b + lo * n, c, i0, i1, m, hi - lo, n);
          break;
        case GemmForm::kTransB:
          GemmTransBRows(a, b + lo * k, c + lo, n, i0, i1, k, hi - lo);
          break;
      }
    }
    return;
  }
  // Tiled. kTransA reads A and B in place: block r runs rows [lo, hi) of
  // both. The other forms pack B once for the whole product, then sweep
  // each row block over its band.
  if (form == GemmForm::kTransA) {
    for (int64_t r = 0; r < blocks; ++r) {
      const int64_t i0 = r * kGemmBandRows;
      const int64_t lo = band[2 * r], hi = band[2 * r + 1];
      if (lo >= hi) continue;
      TiledRows<TileChain::kAccumulate, true>(
          a + lo * m + i0, m, b + lo * n, n, c + i0 * n, n,
          std::min(kGemmBandRows, m - i0), hi - lo, n);
    }
    return;
  }
  std::vector<float>& bp = PackBufB();
  bp.resize(static_cast<size_t>(k * n));
  if (form == GemmForm::kTransB) {
    PackBTransposed(b, k, n, bp.data());
  } else {
    PackB(b, k, n, bp.data());
  }
  const float* bpp = bp.data();
  for (int64_t r = 0; r < blocks; ++r) {
    const int64_t i0 = r * kGemmBandRows;
    const int64_t rows = std::min(kGemmBandRows, m - i0);
    const int64_t lo = band[2 * r], hi = band[2 * r + 1];
    if (lo >= hi) continue;
    if (form == GemmForm::kTransB) {
      // Whole panels: panel j0 starts at bpp + j0 * k.
      KT_DCHECK(lo % kNR == 0 && (hi % kNR == 0 || hi == n));
      TiledRows<TileChain::kDot>(a + i0 * k, k, bpp + lo * k, 0,
                                 c + i0 * n + lo, n, rows, k, hi - lo);
      continue;
    }
    // The k range [lo, hi) of each w-wide panel starts at row lo of it.
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t w = std::min<int64_t>(kNR, n - j0);
      TiledRows<TileChain::kAccumulate>(a + i0 * k + lo, k,
                                        bpp + j0 * k + lo * w, 0,
                                        c + i0 * n + j0, n, rows, hi - lo, w);
    }
  }
}

}  // namespace kt

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
// per k step) on the calling thread; C is produced in kMR x kNR register
// tiles. Each accumulator runs the full k range ascending, so the chain per
// C element is identical to the reference kernels. kMR*kNR accumulators fit
// the 16 xmm registers of baseline x86-64; with wider vectors (KT_NATIVE)
// the same source compiles to ymm/zmm tiles.
// ---------------------------------------------------------------------------

constexpr int kMR = 4;  // register rows per micro tile (portable kernel)
constexpr int kNR = internal::kGemmPanelWidth;  // packed panel width (floats)

inline std::vector<float>& PackBufA() {
  static thread_local std::vector<float> buf;
  return buf;
}
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

// Packs A^T [m, k] row-major from A [k, m] row-major (the TransA operand).
// Blocks of kPackRows output rows are filled p-outer, so each step reads
// kPackRows adjacent floats of one A row instead of one float per A row:
// the weight-gradient GEMMs have k = all batch rows against m = 32..64, and
// the column walk touched a fresh cache line per element.
void PackATransposed(const float* a, int64_t k, int64_t m, float* ap) {
  constexpr int64_t kPackRows = 8;
  for (int64_t i0 = 0; i0 < m; i0 += kPackRows) {
    const int64_t rows = std::min<int64_t>(kPackRows, m - i0);
    float* dst = ap + i0 * k;
    const float* src = a + i0;
    if (rows == kPackRows) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t ii = 0; ii < kPackRows; ++ii)
          dst[ii * k + p] = src[p * m + ii];
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t ii = 0; ii < rows; ++ii) dst[ii * k + p] = src[p * m + ii];
      }
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

// Full kMR x kNR register tile over a packed panel. kLoadC selects the
// chain shape: true  -> accumulators start from C ("(c+p0)+p1..."), the
// accumulate-form contract; false -> accumulators start from zero with one
// final `c += acc` ("c + ((0+p0)+p1...)"), the TransB dot contract.
template <bool kLoadC>
inline void MicroTile(const float* a, int64_t lda, const float* bp, float* c,
                      int64_t ldc, int64_t k) {
  static_assert(kNR == 8, "micro tile hand-unrolls two 4-wide lanes");
  V4 acc[kMR][2];
  for (int i = 0; i < kMR; ++i) {
    acc[i][0] = kLoadC ? Load4(c + i * ldc) : V4{};
    acc[i][1] = kLoadC ? Load4(c + i * ldc + 4) : V4{};
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = bp + p * kNR;
    const V4 b0 = Load4(b_row);
    const V4 b1 = Load4(b_row + 4);
    for (int i = 0; i < kMR; ++i) {
      const float s = a[i * lda + p];
      const V4 av = {s, s, s, s};
      acc[i][0] += av * b0;
      acc[i][1] += av * b1;
    }
  }
  for (int i = 0; i < kMR; ++i) {
    if (kLoadC) {
      Store4(c + i * ldc, acc[i][0]);
      Store4(c + i * ldc + 4, acc[i][1]);
    } else {
      Store4(c + i * ldc, Load4(c + i * ldc) + acc[i][0]);
      Store4(c + i * ldc + 4, Load4(c + i * ldc + 4) + acc[i][1]);
    }
  }
}

// Edge tile with runtime extents (mr <= kMR, nr <= kNR); `bw` is the packed
// panel width (== nr for a narrow edge panel, kNR otherwise).
template <bool kLoadC>
inline void MicroTileEdge(const float* a, int64_t lda, const float* bp,
                          int64_t bw, float* c, int64_t ldc, int64_t k,
                          int64_t mr, int64_t nr) {
  float acc[kMR][kNR];
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) acc[i][j] = kLoadC ? c[i * ldc + j] : 0.0f;
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = bp + p * bw;
    for (int64_t i = 0; i < mr; ++i) {
      const float a_val = a[i * lda + p];
      for (int64_t j = 0; j < nr; ++j) acc[i][j] += a_val * b_row[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) {
      if (kLoadC) {
        c[i * ldc + j] = acc[i][j];
      } else {
        c[i * ldc + j] += acc[i][j];
      }
    }
  }
}

// Tiled sweep over m rows of C against pre-packed B panels. `a` addresses
// the first of the m rows ([m, k]-ish with row stride lda).
template <bool kLoadC>
void TiledRowsPortable(const float* a, int64_t lda, const float* bp, float* c,
                       int64_t ldc, int64_t m, int64_t k, int64_t n) {
  for (int64_t i0 = 0; i0 < m; i0 += kMR) {
    const int64_t mr = std::min<int64_t>(kMR, m - i0);
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t nr = std::min<int64_t>(kNR, n - j0);
      const float* panel = bp + j0 * k;
      float* c_tile = c + i0 * ldc + j0;
      const float* a_tile = a + i0 * lda;
      if (mr == kMR && nr == kNR) {
        MicroTile<kLoadC>(a_tile, lda, panel, c_tile, ldc, k);
      } else {
        MicroTileEdge<kLoadC>(a_tile, lda, panel, nr, c_tile, ldc, k, mr, nr);
      }
    }
  }
}

// Runtime ISA dispatch. The default build is portable x86-64, so AVX2 is
// reached via a separately-compiled TU (gemm_avx2.cc) guarded by the
// cached core/cpu.h probe, not via build flags. Both implementations
// consume the same packed panels and replay the same per-element chains,
// so which one runs is unobservable in the results.
template <bool kLoadC>
inline void TiledRows(const float* a, int64_t lda, const float* bp, float* c,
                      int64_t ldc, int64_t m, int64_t k, int64_t n) {
#ifdef KT_HAVE_AVX2_KERNEL
  if (cpu::Get().avx2) {
    internal::TiledRowsAvx2(a, lda, bp, c, ldc, m, k, n, kLoadC);
    return;
  }
#endif
  TiledRowsPortable<kLoadC>(a, lda, bp, c, ldc, m, k, n);
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
  std::memset(c, 0, sizeof(float) * static_cast<size_t>(m * n));
  GemmAccumulate(a, b, c, m, k, n);
}

void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  KT_COUNT_GEMM("nn", m, k, n);
  const GemmKernel resolved = ResolveKernel(m, k, n);
  CountBackendDispatch(resolved, m, k, n);
  if (resolved != GemmKernel::kReference) {
    std::vector<float>& bp = PackBufB();
    bp.resize(static_cast<size_t>(k * n));
    PackB(b, k, n, bp.data());
    const float* bpp = bp.data();
    if (UseParallel(m, k, n)) {
      ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
        TiledRows<true>(a + lo * k, k, bpp, c + lo * n, n, hi - lo, k, n);
      });
      return;
    }
    TiledRows<true>(a, k, bpp, c, n, m, k, n);
    return;
  }
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
    // Pack A^T once so the micro kernel reads contiguous k-runs; the chain
    // per C element (p ascending) is unchanged from the reference forms.
    std::vector<float>& ap = PackBufA();
    ap.resize(static_cast<size_t>(m * k));
    PackATransposed(a, k, m, ap.data());
    std::vector<float>& bp = PackBufB();
    bp.resize(static_cast<size_t>(k * n));
    PackB(b, k, n, bp.data());
    const float* app = ap.data();
    const float* bpp = bp.data();
    if (UseParallel(m, k, n)) {
      ParallelForRange(0, m, RowGrain(k, n), [=](int64_t lo, int64_t hi) {
        TiledRows<true>(app + lo * k, k, bpp, c + lo * n, n, hi - lo, k, n);
      });
      return;
    }
    TiledRows<true>(app, k, bpp, c, n, m, k, n);
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
        TiledRows<false>(a + lo * k, k, bpp, c + lo * n, n, hi - lo, k, n);
      });
      return;
    }
    TiledRows<false>(a, k, bpp, c, n, m, k, n);
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
  // Tiled: pack once for the whole product, then sweep each row block over
  // its band. kTransA packs A^T and then runs as kNN.
  const float* ap = a;
  if (form == GemmForm::kTransA) {
    std::vector<float>& buf = PackBufA();
    buf.resize(static_cast<size_t>(m * k));
    PackATransposed(a, k, m, buf.data());
    ap = buf.data();
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
      TiledRows<false>(a + i0 * k, k, bpp + lo * k, c + i0 * n + lo, n, rows,
                       k, hi - lo);
      continue;
    }
    // The k range [lo, hi) of each w-wide panel starts at row lo of it.
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t w = std::min<int64_t>(kNR, n - j0);
      TiledRows<true>(ap + i0 * k + lo, k, bpp + j0 * k + lo * w,
                      c + i0 * n + j0, n, rows, hi - lo, w);
    }
  }
}

}  // namespace kt

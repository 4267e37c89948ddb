#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <vector>

#include "core/check.h"
#include "core/cpu.h"
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

// Per-backend telemetry: every dispatch logs which backend actually ran,
// so the obs summary (and perfbench's gemm reference share) shows how
// kAuto split the work between the families.
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
// Tiled kernels. B is packed once into column panels of the micro kernel's
// width (contiguous per k step), except by the TransA form, which reads A
// and B in place; C is produced in register tiles of the kernel's row count
// and one vector of columns (gemm_kernels.h). Each C element is still one
// ascending-k accumulator chain, identical to the reference kernels. The
// micro kernel is picked at runtime from the CPU probe: the portable 4 x 8
// one below, AVX2 (8 x 8) or AVX-512 (8 x 16).
// ---------------------------------------------------------------------------

using internal::MicroKernel;
using internal::TileChain;

inline std::vector<float>& PackBufB() {
  static thread_local std::vector<float> buf;
  return buf;
}

// Packs B [k, n] row-major into column panels: panel j0 holds columns
// [j0, j0+w) as w contiguous floats per k step, w = min(width, n - j0).
void PackB(const float* b, int64_t k, int64_t n, int64_t width, float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += width) {
    const int64_t w = std::min<int64_t>(width, n - j0);
    float* panel = bp + j0 * k;
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(panel + p * w, b + p * n + j0,
                  sizeof(float) * static_cast<size_t>(w));
    }
  }
}

// Packs B^T into the same panel layout, where B is [n, k] row-major (the
// TransB operand): panel element (p, jj) = B[j0 + jj, p].
void PackBTransposed(const float* b, int64_t k, int64_t n, int64_t width,
                     float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += width) {
    const int64_t w = std::min<int64_t>(width, n - j0);
    float* panel = bp + j0 * k;
    for (int64_t jj = 0; jj < w; ++jj) {
      const float* b_row = b + (j0 + jj) * k;
      for (int64_t p = 0; p < k; ++p) panel[p * w + jj] = b_row[p];
    }
  }
}

// The portable micro kernel: 4-row tiles of two 4-wide GCC/Clang vectors
// per row (eight accumulators, four broadcasts of A per step), which
// baseline x86-64 runs as SSE. Lane arithmetic is element-wise IEEE single
// precision, identical to the scalar ops. Edge masks are the valid column
// count: the partial half is built from its 1-3 valid floats, zeros after.
struct Portable {
  typedef float V4 __attribute__((vector_size(16)));
  struct V {  // 8 columns: lanes 0-3 in lo, 4-7 in hi
    V4 lo, hi;
    V operator*(const V& o) const { return {lo * o.lo, hi * o.hi}; }
    V operator+(const V& o) const { return {lo + o.lo, hi + o.hi}; }
    V& operator+=(const V& o) {
      lo += o.lo;
      hi += o.hi;
      return *this;
    }
  };
  using Mask = int64_t;  // the valid column count
  static constexpr int kWidth = 8;
  static constexpr int kRows = 4;
  static V4 Load4(const float* p) {
    V4 v;
    __builtin_memcpy(&v, p, sizeof(v));  // unaligned-safe, movups
    return v;
  }
  // The first `count` (0..4) floats of p.
  static V4 LoadPart(const float* p, int64_t count) {
    switch (count) {
      case 0:
        return V4{};
      case 1:
        return V4{p[0], 0.0f, 0.0f, 0.0f};
      case 2:
        return V4{p[0], p[1], 0.0f, 0.0f};
      case 3:
        return V4{p[0], p[1], p[2], 0.0f};
      default:
        return Load4(p);
    }
  }
  static void StorePart(float* p, int64_t count, V4 v) {
    for (int64_t j = 0; j < count; ++j) p[j] = v[j];
  }
  static V Zero() { return V{}; }
  static V Broadcast(float s) {
    const V4 b = {s, s, s, s};
    return {b, b};
  }
  static V Load(const float* p) { return {Load4(p), Load4(p + 4)}; }
  static void Store(float* p, V v) {
    __builtin_memcpy(p, &v.lo, sizeof(v.lo));
    __builtin_memcpy(p + 4, &v.hi, sizeof(v.hi));
  }
  static Mask ColumnMask(int64_t nr) { return nr; }
  static V LoadMasked(const float* p, Mask nr) {
    if (nr < 4) return {LoadPart(p, nr), V4{}};
    return {Load4(p), LoadPart(p + 4, nr - 4)};
  }
  static void StoreMasked(float* p, Mask nr, V v) {
    StorePart(p, nr < 4 ? nr : 4, v.lo);
    if (nr > 4) StorePart(p + 4, nr - 4, v.hi);
  }
};

constexpr MicroKernel kPortableKernel = {Portable::kWidth,
                                         &internal::TiledRowsFor<Portable>};

// The widest micro kernel this CPU runs, or the widest whose panels are at
// most max_width floats wide. The default build is portable x86-64, so AVX2 and AVX-512
// are reached through separately compiled TUs guarded by the cached
// core/cpu.h probe, not through build flags. All kernels replay the same
// per-element chains, so which one runs is unobservable in the results.
const MicroKernel& PickKernel(int max_width = INT_MAX) {
#ifdef KT_HAVE_AVX512_KERNEL
  if (max_width >= internal::kAvx512Kernel.width && cpu::Get().avx512f)
    return internal::kAvx512Kernel;
#endif
#ifdef KT_HAVE_AVX2_KERNEL
  if (max_width >= internal::kAvx2Kernel.width && cpu::Get().avx2)
    return internal::kAvx2Kernel;
#endif
  return kPortableKernel;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// Tiled kernels win once the B pack is amortized over two rows or more.
// Every kernel masks its edge panel in registers, so from about 128
// multiply-adds on they win (the 5 x 16 x 5 attention score GEMM included)
// on all three kernels alike; the same few pack-bound shapes (a 2-4 row
// normal product, a 1-2 column TransB one) lose on all three.
inline bool TiledHeuristic(int64_t m, int64_t k, int64_t n) {
  return m >= 2 && m * k * n >= 128;
}

// Resolves the kernel family that will actually run this product: the
// explicit override, else the built-in heuristic. Never returns kAuto.
GemmKernel ResolveKernel(int64_t m, int64_t k, int64_t n) {
  const GemmKernel override_kernel =
      g_gemm_kernel.load(std::memory_order_relaxed);
  if (override_kernel != GemmKernel::kAuto) return override_kernel;
  return TiledHeuristic(m, k, n) ? GemmKernel::kTiled : GemmKernel::kReference;
}

// The packed tiled product C (=|+=) A * op(B): B, or with kDot and kStore
// from GemmTransB* the [n, k] operand transposed, is packed once into the
// kernel's panels, then the rows of C are swept.
template <TileChain kChain, bool kTransposedB>
void GemmTiledPacked(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n) {
  CountBackendDispatch(GemmKernel::kTiled, m, k, n);
  const MicroKernel& kernel = PickKernel();
  std::vector<float>& bp = PackBufB();
  bp.resize(static_cast<size_t>(k * n));
  if (kTransposedB) {
    PackBTransposed(b, k, n, kernel.width, bp.data());
  } else {
    PackB(b, k, n, kernel.width, bp.data());
  }
  kernel.rows(a, k, bp.data(), 0, c, n, m, k, n, kChain, false);
}

// C (=|+=) A * B^T with B [n, k]: each element's dot chain starts at +0;
// kDot adds it to C, kStore stores it.
template <TileChain kChain>
void GemmTransBForm(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  if (m <= 0 || n <= 0) return;
  KT_COUNT_GEMM("tb", m, k, n);
  constexpr bool kStore = kChain == TileChain::kStore;
  if (k <= 0) {
    // The reference dot form still executes `c += 0.0f` per element; keep
    // that (it normalizes -0.0f) so all paths agree bit-for-bit.
    for (int64_t i = 0; i < m * n; ++i) c[i] = kStore ? 0.0f : c[i] + 0.0f;
    return;
  }
  const GemmKernel resolved = ResolveKernel(m, k, n);
  if (resolved != GemmKernel::kReference) {
    GemmTiledPacked<kChain, true>(a, b, c, m, k, n);
    return;
  }
  CountBackendDispatch(GemmKernel::kReference, m, k, n);
  // A chain from +0 is never -0, so 0 + chain is the chain: zeroing C and
  // adding equals storing.
  if (kStore) std::memset(c, 0, sizeof(float) * static_cast<size_t>(m * n));
  GemmTransBRows(a, b, c, n, 0, m, k, n);
}

}  // namespace

void SetGemmKernel(GemmKernel kernel) {
  g_gemm_kernel.store(kernel, std::memory_order_relaxed);
}

GemmKernel GetGemmKernel() {
  return g_gemm_kernel.load(std::memory_order_relaxed);
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
    KT_COUNT_GEMM("nn", m, k, n);
    GemmTiledPacked<TileChain::kStore, false>(a, b, c, m, k, n);
    return;
  }
  // The reference family defines the contract: C = 0, then accumulate.
  std::memset(c, 0, sizeof(float) * static_cast<size_t>(m * n));
  GemmAccumulate(a, b, c, m, k, n);
}

void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  KT_COUNT_GEMM("nn", m, k, n);
  if (ResolveKernel(m, k, n) == GemmKernel::kTiled) {
    GemmTiledPacked<TileChain::kAccumulate, false>(a, b, c, m, k, n);
    return;
  }
  CountBackendDispatch(GemmKernel::kReference, m, k, n);
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
    // from the reference forms, k-blocked or not.
    PickKernel().rows(a, m, b, n, c, n, m, k, n, TileChain::kAccumulate,
                      true);
    return;
  }
  // Loop over p (rows of A and B) so both inner reads stay contiguous; per
  // element the chain is p ascending, as in GemmTransARows.
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

void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  GemmTransBForm<TileChain::kStore>(a, b, c, m, k, n);
}

void GemmTransBAccumulate(const float* a, const float* b, float* c, int64_t m,
                          int64_t k, int64_t n) {
  GemmTransBForm<TileChain::kDot>(a, b, c, m, k, n);
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
  // Tiled, on kernels no wider than a band block: kTransB column ranges
  // start on multiples of kGemmBandRows, which must be panel boundaries.
  // kTransA reads A and B in place: block r runs rows [lo, hi) of both.
  // The other forms pack B once for the whole product, then sweep each row
  // block over its band.
  const MicroKernel& kernel = PickKernel(kGemmBandRows);
  const int64_t width = kernel.width;
  if (form == GemmForm::kTransA) {
    for (int64_t r = 0; r < blocks; ++r) {
      const int64_t i0 = r * kGemmBandRows;
      const int64_t lo = band[2 * r], hi = band[2 * r + 1];
      if (lo >= hi) continue;
      kernel.rows(a + lo * m + i0, m, b + lo * n, n, c + i0 * n, n,
                  std::min(kGemmBandRows, m - i0), hi - lo, n,
                  TileChain::kAccumulate, true);
    }
    return;
  }
  std::vector<float>& bp = PackBufB();
  bp.resize(static_cast<size_t>(k * n));
  if (form == GemmForm::kTransB) {
    PackBTransposed(b, k, n, width, bp.data());
  } else {
    PackB(b, k, n, width, bp.data());
  }
  const float* bpp = bp.data();
  for (int64_t r = 0; r < blocks; ++r) {
    const int64_t i0 = r * kGemmBandRows;
    const int64_t rows = std::min(kGemmBandRows, m - i0);
    const int64_t lo = band[2 * r], hi = band[2 * r + 1];
    if (lo >= hi) continue;
    if (form == GemmForm::kTransB) {
      // Whole panels: panel j0 starts at bpp + j0 * k.
      KT_DCHECK(lo % width == 0 && (hi % width == 0 || hi == n));
      kernel.rows(a + i0 * k, k, bpp + lo * k, 0, c + i0 * n + lo, n, rows, k,
                  hi - lo, TileChain::kDot, false);
      continue;
    }
    // The k range [lo, hi) of each w-wide panel starts at row lo of it.
    for (int64_t j0 = 0; j0 < n; j0 += width) {
      const int64_t w = std::min<int64_t>(width, n - j0);
      kernel.rows(a + i0 * k + lo, k, bpp + j0 * k + lo * w, 0,
                  c + i0 * n + j0, n, rows, hi - lo, w,
                  TileChain::kAccumulate, false);
    }
  }
}

}  // namespace kt

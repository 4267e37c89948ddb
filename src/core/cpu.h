// One cached CPU feature probe for the whole process.
//
// `cpu::Get()` probes once (thread-safe static init); the GEMM dispatcher
// reads it to pick the AVX2 or AVX-512 tiled micro kernel, and benchmark
// reports record `IdString()` as the host's identity.
//
// The probe itself never changes results: which micro-kernel runs is
// unobservable for the bit-exact kernel families.
#ifndef KT_CORE_CPU_H_
#define KT_CORE_CPU_H_

#include <string>

namespace kt {
namespace cpu {

struct Features {
  bool avx2 = false;     // 256-bit integer + float SIMD
  bool fma = false;      // fused multiply-add (vfmadd*); informational
  bool avx512f = false;  // 512-bit float SIMD with mask registers
  bool bf16_cvt = false; // AVX512-BF16 native conversions; informational
};

// The process-wide probe, evaluated once on first use.
const Features& Get();

// Stable short string of the detected features ("avx2+fma+avx512f",
// "scalar", ...).
std::string IdString();

// Test hook: overrides the probe result (pass nullptr to restore the real
// probe). Not thread-safe; call only from single-threaded test setup.
void SetForTest(const Features* features);

}  // namespace cpu
}  // namespace kt

#endif  // KT_CORE_CPU_H_

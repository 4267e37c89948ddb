#include "core/cpu.h"

namespace kt {
namespace cpu {
namespace {

Features Probe() {
  Features f;
#if defined(__x86_64__) || defined(_M_X64)
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
  // GCC only grew the "avx512bf16" probe string recently; guard so older
  // toolchains still build.
#if defined(__GNUC__) && __GNUC__ >= 11
  f.bf16_cvt = __builtin_cpu_supports("avx512bf16");
#endif
#endif
  return f;
}

const Features* g_override = nullptr;

}  // namespace

const Features& Get() {
  static const Features probed = Probe();
  return g_override != nullptr ? *g_override : probed;
}

std::string IdString() {
  const Features& f = Get();
  std::string id;
  if (f.avx2) id += "avx2";
  if (f.fma) id += id.empty() ? "fma" : "+fma";
  if (f.avx512f) id += id.empty() ? "avx512f" : "+avx512f";
  if (f.bf16_cvt) id += id.empty() ? "bf16" : "+bf16";
  if (id.empty()) id = "scalar";
  return id;
}

void SetForTest(const Features* features) { g_override = features; }

}  // namespace cpu
}  // namespace kt

// GEMM kernel benchmark (DESIGN.md Sec. 9.4): the tiled kernels that
// kAuto dispatches against the reference loop kernels, at encoder shapes.
// Both families are bit-identical by contract, so one binary measures both
// on the same machine in the same run and writes BENCH_hotpath.json
// (override the path with --out=<path>).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace kt {
namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination

// Runs fn repeatedly until it has consumed ~min_time (after a short
// warmup) and returns the mean wall time per call in nanoseconds.
double TimeNs(const std::function<void()>& fn, double min_time_sec = 0.25,
              int min_iters = 3) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < 2; ++i) fn();  // warmup
  int64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_time_sec || iters < min_iters) {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return elapsed * 1e9 / static_cast<double>(iters);
}

struct Result {
  std::string op;
  std::string shape;
  std::string mode;  // "baseline" | "optimized"
  int threads = 1;
  double ns_per_iter = 0.0;
  double rate = 0.0;  // GFLOP/s
};

std::vector<Result> g_results;

void BenchGemmShape(int64_t m, int64_t k, int64_t n) {
  Rng rng(1);
  Tensor a = Tensor::Uniform({m, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, n}, -1, 1, rng);
  Tensor c({m, n});
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "m%lld_k%lld_n%lld",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));
  for (GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    SetGemmKernel(kernel);
    const double ns = TimeNs([&] {
      Gemm(a.data(), b.data(), c.data(), m, k, n);
      g_sink = c.data()[0];
    });
    Result r;
    r.op = "Gemm";
    r.shape = shape;
    r.mode = kernel == GemmKernel::kReference ? "baseline" : "optimized";
    r.threads = GetNumThreads();
    r.ns_per_iter = ns;
    r.rate = flops / ns;  // GFLOP/s (flops per ns)
    g_results.push_back(r);
    std::printf("  %-10s %-16s %-9s %12.0f ns  %7.2f GFLOP/s\n",
                r.op.c_str(), r.shape.c_str(), r.mode.c_str(), ns, r.rate);
  }
  SetGemmKernel(GemmKernel::kAuto);
}

bool WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"hotpath\",\n  \"threads\": " << GetNumThreads()
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < g_results.size(); ++i) {
    const Result& r = g_results[i];
    out << "    {\"section\": \"gemm\", \"op\": \"" << r.op
        << "\", \"shape\": \"" << r.shape << "\", \"mode\": \"" << r.mode
        << "\", \"threads\": " << r.threads
        << ", \"ns_per_iter\": " << r.ns_per_iter
        << ", \"gflops\": " << r.rate << "}"
        << (i + 1 < g_results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedups\": {\n";
  // baseline/optimized pairs are adjacent: speedup = ns_base / ns_opt.
  bool first = true;
  for (size_t i = 0; i + 1 < g_results.size(); ++i) {
    const Result& base = g_results[i];
    const Result& opt = g_results[i + 1];
    if (base.mode != "baseline" || opt.mode != "optimized" ||
        base.op != opt.op || base.shape != opt.shape) {
      continue;
    }
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << base.op << "_" << base.shape
        << "\": " << base.ns_per_iter / opt.ns_per_iter;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace kt

int main(int argc, char** argv) {
  const kt::FlagParser flags = kt::bench::InitBenchFlags(&argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_hotpath.json");
  std::printf("GEMM kernels (threads=%d)\n", kt::GetNumThreads());

  kt::BenchGemmShape(64, 64, 64);
  kt::BenchGemmShape(64, 128, 128);
  kt::BenchGemmShape(256, 64, 64);
  kt::BenchGemmShape(256, 128, 128);
  kt::BenchGemmShape(128, 128, 128);

  if (!kt::WriteJson(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// Before/after benchmark for the hot-path compute overhaul (DESIGN.md
// Sec. 9): tiled vs reference GEMM kernels at encoder shapes, and
// end-to-end RCKT throughput with the full optimized stack (tiled kernels
// + fused ops + stacked counterfactual fan-out) against the baseline stack
// (reference kernels, composed ops, per-pass fan-out).
//
// Because every optimization is toggleable at runtime and bit-identical by
// contract, one binary measures both modes on the same machine in the same
// run — no pre-PR checkout needed — and writes BENCH_hotpath.json
// (override the path with --out=<path>).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/presets.h"
#include "data/simulator.h"
#include "nn/module.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"
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
  std::string section;  // "gemm" | "e2e"
  std::string op;
  std::string shape;
  std::string mode;  // "baseline" | "optimized"
  int threads = 1;
  double ns_per_iter = 0.0;
  double rate = 0.0;  // GFLOP/s for gemm, items/s for e2e
};

std::vector<Result> g_results;

// ---- GEMM section: tiled vs reference at encoder shapes ----

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
    r.section = "gemm";
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

// ---- End-to-end section: full optimized stack vs full baseline stack ----

struct HotpathFixture {
  HotpathFixture() {
    data::SimulatorConfig config = data::Assist09Preset(0.05);
    data::StudentSimulator simulator(config);
    windows = data::SplitIntoWindows(simulator.Generate(), 50, 5);
    std::vector<rckt::PrefixSample> samples;
    for (const auto& seq : windows.sequences) {
      if (seq.length() > 24) samples.push_back({&seq, 24});
      if (samples.size() == 16) break;
    }
    batch = rckt::MakePrefixBatch(samples);
  }

  std::unique_ptr<rckt::RCKT> MakeModel(bool optimized) const {
    rckt::RcktConfig config;
    config.dim = 32;
    config.seed = 9;
    config.stacked_fanout = optimized;
    return std::make_unique<rckt::RCKT>(windows.num_questions,
                                        windows.num_concepts, config);
  }

  data::Dataset windows;
  data::Batch batch;
};

void BenchEndToEnd(const HotpathFixture& fixture) {
  struct Op {
    const char* name;
    double min_time;
    std::function<void(rckt::RCKT&)> run;
  };
  const std::vector<Op> ops = {
      {"ScoreTargets", 0.5,
       [&](rckt::RCKT& m) { g_sink = m.ScoreTargets(fixture.batch)[0]; }},
      {"ScoreTargetsExact", 1.0,
       [&](rckt::RCKT& m) { g_sink = m.ScoreTargetsExact(fixture.batch)[0]; }},
      {"TrainStep", 0.5,
       [&](rckt::RCKT& m) { g_sink = m.TrainStep(fixture.batch); }},
  };
  for (const Op& op : ops) {
    for (bool optimized : {false, true}) {
      // The whole stack toggles together: kernel family, op fusion, and
      // stacked fan-out (the last via the model config).
      SetGemmKernel(optimized ? GemmKernel::kAuto : GemmKernel::kReference);
      nn::SetFusedOpsEnabled(optimized);
      auto model = fixture.MakeModel(optimized);
      const double ns =
          TimeNs([&] { op.run(*model); }, op.min_time, /*min_iters=*/3);
      Result r;
      r.section = "e2e";
      r.op = op.name;
      r.shape = "batch16_len24_dim32";
      r.mode = optimized ? "optimized" : "baseline";
      r.threads = GetNumThreads();
      r.ns_per_iter = ns;
      r.rate = static_cast<double>(fixture.batch.batch_size) * 1e9 / ns;
      g_results.push_back(r);
      std::printf("  %-18s %-9s %12.0f ns  %8.2f samples/s\n", op.name,
                  r.mode.c_str(), ns, r.rate);
    }
  }
  SetGemmKernel(GemmKernel::kAuto);
  nn::SetFusedOpsEnabled(true);
}

bool WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"hotpath\",\n  \"threads\": " << GetNumThreads()
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < g_results.size(); ++i) {
    const Result& r = g_results[i];
    out << "    {\"section\": \"" << r.section << "\", \"op\": \"" << r.op
        << "\", \"shape\": \"" << r.shape << "\", \"mode\": \"" << r.mode
        << "\", \"threads\": " << r.threads
        << ", \"ns_per_iter\": " << r.ns_per_iter << ", ";
    out << (r.section == "gemm" ? "\"gflops\": " : "\"items_per_second\": ")
        << r.rate << "}" << (i + 1 < g_results.size() ? "," : "") << "\n";
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
    const std::string key = base.section == "gemm"
                                ? base.op + "_" + base.shape
                                : base.op;
    out << "    \"" << key << "\": " << base.ns_per_iter / opt.ns_per_iter;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace kt

int main(int argc, char** argv) {
  const kt::FlagParser flags = kt::bench::InitBenchFlags(&argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_hotpath.json");
  std::printf("hot-path before/after (threads=%d)\n", kt::GetNumThreads());

  std::printf("GEMM kernels (reference vs tiled):\n");
  kt::BenchGemmShape(64, 64, 64);
  kt::BenchGemmShape(64, 128, 128);
  kt::BenchGemmShape(256, 64, 64);
  kt::BenchGemmShape(256, 128, 128);
  kt::BenchGemmShape(128, 128, 128);

  std::printf("end-to-end RCKT (baseline stack vs optimized stack):\n");
  kt::HotpathFixture fixture;
  kt::BenchEndToEnd(fixture);

  if (!kt::WriteJson(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

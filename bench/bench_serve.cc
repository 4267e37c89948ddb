// Counterfactual recourse benchmark (DESIGN.md §15): the serving engine's
// stacked fast path against its --brute reference, an algorithmic A/B.
//
// The two paths are bit-identical by contract (tests/serve_test.cc), so one
// binary measures both on the same machine in the same run and writes
// BENCH_serve.json (override with --out=<path>). The headline number is
// "speedups.recourse_<enc>_T<len>": brute-force latency over the fast
// path's at that history length. Served predict/update latency is measured
// end to end over TCP by perfbench (BENCHMARK.json).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel.h"
#include "data/simulator.h"
#include "serve/engine.h"

namespace kt {
namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination

double TimeNs(const std::function<void()>& fn, double min_time_sec = 0.2,
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
  std::string encoder;
  std::string op;      // "recourse"
  int64_t seq_len = 0;
  std::string mode;    // "brute_per_candidate" | "suffix_replay"
  double ns_per_iter = 0.0;
};

std::vector<Result> g_results;

// Counterfactual recourse at history length T: the suffix-replay fast path
// (each candidate set rewinds the cached forward stream to its earliest
// edit and replays only the edited suffix through StepForwardRun) against
// --brute, which runs one full forward pass per candidate set. The two
// are bit-identical by contract (tests/serve_test.cc), so the speedup is
// pure batching.
void BenchRecourse(rckt::EncoderKind kind, const data::Dataset& ds,
                   int64_t T, int k) {
  rckt::RcktConfig config;
  config.encoder = kind;
  config.dim = 32;
  config.num_layers = 1;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.seed = 4;
  rckt::RCKT model(ds.num_questions, ds.num_concepts, config);
  const auto& seq = ds.sequences[0];
  KT_CHECK(seq.length() > T) << "simulated sequence shorter than T";

  serve::EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  serve::InferenceEngine engine(model, options);
  for (int64_t t = 0; t < T; ++t) {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    serve::ServeRequest update;
    update.op = serve::Op::kUpdate;
    update.student = "s";
    update.question = it.question;
    update.response = it.response;
    update.has_concepts = true;
    update.concepts = it.concepts;
    KT_CHECK(engine.Execute(update).ok);
  }
  serve::ServeRequest fast;
  fast.op = serve::Op::kRecourse;
  fast.student = "s";
  fast.question = seq.interactions[static_cast<size_t>(T)].question;
  fast.has_concepts = true;
  fast.concepts = seq.interactions[static_cast<size_t>(T)].concepts;
  fast.k = k;
  fast.top = 8;
  serve::ServeRequest brute = fast;
  brute.brute = true;

  const int64_t evaluated = engine.Execute(fast).evaluated;
  const double brute_ns = TimeNs([&] {
    g_sink = engine.Execute(brute).base_p;
  }, /*min_time_sec=*/0.3);
  const double fast_ns = TimeNs([&] {
    g_sink = engine.Execute(fast).base_p;
  }, /*min_time_sec=*/0.3);

  const char* name = rckt::EncoderKindName(kind);
  g_results.push_back({name, "recourse", T, "brute_per_candidate", brute_ns});
  g_results.push_back({name, "recourse", T, "suffix_replay", fast_ns});
  std::printf("  %-4s T=%-4lld recourse k=%d (%lld sets)  brute %10.0f ns"
              "  stacked %9.0f ns  (%.1fx)\n",
              name, static_cast<long long>(T), k,
              static_cast<long long>(evaluated), brute_ns, fast_ns,
              brute_ns / fast_ns);
}

bool WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"serve\",\n  \"threads\": " << GetNumThreads()
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < g_results.size(); ++i) {
    const Result& r = g_results[i];
    out << "    {\"encoder\": \"" << r.encoder << "\", \"op\": \"" << r.op
        << "\", \"seq_len\": " << r.seq_len << ", \"mode\": \"" << r.mode
        << "\", \"ns_per_iter\": " << r.ns_per_iter << "}"
        << (i + 1 < g_results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedups\": {\n";
  for (size_t i = 0; i + 1 < g_results.size(); i += 2) {
    const Result& brute = g_results[i];
    const Result& fast = g_results[i + 1];
    out << (i > 0 ? ",\n" : "") << "    \"" << brute.op << "_" << brute.encoder
        << "_T" << brute.seq_len
        << "\": " << brute.ns_per_iter / fast.ns_per_iter;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace kt

int main(int argc, char** argv) {
  const kt::FlagParser flags = kt::bench::InitBenchFlags(&argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_serve.json");

  kt::data::SimulatorConfig sim_config;
  sim_config.num_students = 4;
  sim_config.num_questions = 200;
  sim_config.num_concepts = 10;
  sim_config.min_responses = 140;
  sim_config.max_responses = 160;
  sim_config.seed = 21;
  kt::data::StudentSimulator sim(sim_config);
  const kt::data::Dataset ds = sim.Generate();

  std::printf("recourse: stacked fan-out vs brute per-candidate passes "
              "(threads=%d)\n",
              kt::GetNumThreads());
  for (kt::rckt::EncoderKind kind :
       {kt::rckt::EncoderKind::kDKT, kt::rckt::EncoderKind::kSAKT}) {
    kt::BenchRecourse(kind, ds, /*T=*/100, /*k=*/3);
  }

  if (!kt::WriteJson(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

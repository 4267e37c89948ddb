// Online-serving benchmark (DESIGN.md §11): incremental predict/update via
// kt::serve against the offline baseline that re-encodes the whole prefix
// per prediction, plus counterfactual recourse fast path vs brute force.
//
// The two paths are bit-identical by contract (tests/serve_test.cc), so one
// binary measures both on the same machine in the same run and writes
// BENCH_serve.json (override with --out=<path>). The headline number is
// "speedups.predict_<enc>_T<len>": single-response latency of the O(1)
// session-cache path over full re-encoding at that history length.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel.h"
#include "data/simulator.h"
#include "rckt/samples.h"
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
  std::string op;      // "predict" | "update"
  int64_t seq_len = 0;
  std::string mode;    // "offline_reencode" | "online_incremental"
  double ns_per_iter = 0.0;
};

std::vector<Result> g_results;

// One long-history student per encoder: predict latency at history length
// `T` for (a) the offline scorer re-encoding all T interactions and (b) the
// serving engine answering from its session cache.
void BenchEncoder(rckt::EncoderKind kind, const data::Dataset& ds,
                  int64_t T) {
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

  // Offline baseline: every request re-builds and re-encodes the prefix.
  data::Batch batch = rckt::MakePrefixBatch({{&seq, T}});
  const double offline_ns = TimeNs([&] {
    g_sink = model.GeneratorScoreTargets(batch)[0];
  });

  // Online: warm a session to T history steps, then serve predicts from the
  // cached forward stream.
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
  serve::ServeRequest predict;
  predict.op = serve::Op::kPredict;
  predict.student = "s";
  predict.question = seq.interactions[static_cast<size_t>(T)].question;
  predict.has_concepts = true;
  predict.concepts = seq.interactions[static_cast<size_t>(T)].concepts;
  const double online_ns = TimeNs([&] {
    g_sink = engine.Execute(predict).p;
  });

  // Incremental update cost at this history depth (grows the session; keep
  // the measurement window modest so attention caches stay near T).
  serve::ServeRequest update = predict;
  update.op = serve::Op::kUpdate;
  update.response = 1;
  const double update_ns = TimeNs([&] {
    g_sink = static_cast<float>(engine.Execute(update).history);
  }, /*min_time_sec=*/0.05);

  const char* name = rckt::EncoderKindName(kind);
  g_results.push_back({name, "predict", T, "offline_reencode", offline_ns});
  g_results.push_back({name, "predict", T, "online_incremental", online_ns});
  g_results.push_back({name, "update", T, "online_incremental", update_ns});
  std::printf("  %-4s T=%-4lld offline %10.0f ns  online %8.0f ns  "
              "(%.1fx)  update %8.0f ns\n",
              name, static_cast<long long>(T), offline_ns, online_ns,
              offline_ns / online_ns, update_ns);
}

// Counterfactual recourse at history length T: the stacked fast path
// (insert-only candidates scored from cloned forward streams, flip
// candidates fanned out through GeneratorScoreTargetsStacked) against
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
  bool first = true;
  for (size_t i = 0; i + 1 < g_results.size(); ++i) {
    const Result& base = g_results[i];
    const Result& opt = g_results[i + 1];
    const bool predict_pair = base.mode == "offline_reencode" &&
                              opt.mode == "online_incremental" &&
                              base.op == opt.op;
    const bool recourse_pair = base.mode == "brute_per_candidate" &&
                               opt.mode == "suffix_replay" &&
                               base.op == "recourse" && opt.op == "recourse";
    if (!predict_pair && !recourse_pair) continue;
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << base.op << "_" << base.encoder << "_T" << base.seq_len
        << "\": " << base.ns_per_iter / opt.ns_per_iter;
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

  std::printf("serving latency: incremental session cache vs full "
              "re-encoding (threads=%d)\n",
              kt::GetNumThreads());
  for (kt::rckt::EncoderKind kind :
       {kt::rckt::EncoderKind::kDKT, kt::rckt::EncoderKind::kGRU,
        kt::rckt::EncoderKind::kSAKT, kt::rckt::EncoderKind::kAKT}) {
    kt::BenchEncoder(kind, ds, /*T=*/100);
  }
  std::printf("recourse: stacked fan-out vs brute per-candidate passes\n");
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

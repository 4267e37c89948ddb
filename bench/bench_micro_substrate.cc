// Micro-benchmarks of the numeric substrate (google-benchmark): GEMM,
// LSTM and attention forward passes, autograd overhead, simulator
// throughput, and RCKT approximate-vs-exact single-batch scoring — the
// kernel-level counterpart of Table VI.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "bench/bench_common.h"
#include "core/cpu.h"
#include "core/parallel.h"
#include "data/presets.h"
#include "nn/attention.h"
#include "nn/recurrent.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace {

// Pins the kt::parallel pool to `threads` for one benchmark's duration and
// restores the ambient setting after. The *Threads benchmark families sweep
// thread counts in-process so one run reports the speedup curve directly
// (compare e.g. BM_RcktScoreExactThreads/threads:1 against /threads:4);
// outputs are bit-identical across the sweep by the pool's determinism
// contract.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int threads) : previous_(GetNumThreads()) {
    SetNumThreads(threads);
  }
  ~ThreadCountScope() { SetNumThreads(previous_); }

 private:
  int previous_;
};

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchedAttentionScores(benchmark::State& state) {
  const int64_t t = state.range(0);
  Rng rng(2);
  Tensor q = Tensor::Uniform({16, t, 32}, -1, 1, rng);
  Tensor k = Tensor::Uniform({16, t, 32}, -1, 1, rng);
  for (auto _ : state) {
    Tensor scores = BatchMatMul(q, k.TransposeLast2());
    Tensor probs = SoftmaxLastDim(scores);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_BatchedAttentionScores)->Arg(25)->Arg(50);

void BM_LstmForward(benchmark::State& state) {
  const int64_t t = state.range(0);
  Rng rng(3);
  nn::LSTM lstm(32, 32, rng);
  Tensor x = Tensor::Uniform({16, t, 32}, -1, 1, rng);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable out = lstm.Forward(ag::Constant(x));
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_LstmForward)->Arg(25)->Arg(50);

void BM_TransformerBlockForward(benchmark::State& state) {
  const int64_t t = state.range(0);
  Rng rng(4);
  nn::TransformerBlock block(32, 2, 0.0f, /*monotonic=*/true, rng);
  Tensor x = Tensor::Uniform({16, t, 32}, -1, 1, rng);
  const Tensor mask =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kCausalInclusive);
  nn::Context ctx;
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable out = block.Forward(ag::Constant(x), mask, ctx);
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_TransformerBlockForward)->Arg(25)->Arg(50);

void BM_AutogradBackwardMlp(benchmark::State& state) {
  Rng rng(5);
  ag::Variable w1 = ag::Variable::Leaf(Tensor::Uniform({64, 64}, -1, 1, rng),
                                       true);
  ag::Variable w2 = ag::Variable::Leaf(Tensor::Uniform({64, 1}, -1, 1, rng),
                                       true);
  Tensor x = Tensor::Uniform({128, 64}, -1, 1, rng);
  for (auto _ : state) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    ag::Variable loss = ag::MeanAll(
        ag::MatMul(ag::Sigmoid(ag::MatMul(ag::Constant(x), w1)), w2));
    loss.Backward();
    benchmark::DoNotOptimize(w1.grad().data());
  }
}
BENCHMARK(BM_AutogradBackwardMlp);

void BM_SimulatorGenerate(benchmark::State& state) {
  data::SimulatorConfig config = data::Assist09Preset(0.05);
  data::StudentSimulator simulator(config);
  for (auto _ : state) {
    data::Dataset ds = simulator.Generate();
    benchmark::DoNotOptimize(ds.sequences.data());
  }
  state.SetItemsProcessed(state.iterations() * config.num_students);
}
BENCHMARK(BM_SimulatorGenerate);

// The Table VI kernel: approximate (4 passes) vs exact (t+1 passes) RCKT
// scoring of one prefix batch.
class RcktScoringFixture {
 public:
  RcktScoringFixture() : windows_(MakeWindows()) {
    rckt::RcktConfig config;
    config.dim = 32;
    config.seed = 9;
    model_ = std::make_unique<rckt::RCKT>(windows_.num_questions,
                                          windows_.num_concepts, config);
    std::vector<rckt::PrefixSample> samples;
    for (const auto& seq : windows_.sequences) {
      if (seq.length() > 24) samples.push_back({&seq, 24});
      if (samples.size() == 16) break;
    }
    batch_ = rckt::MakePrefixBatch(samples);
  }

  static data::Dataset MakeWindows() {
    data::SimulatorConfig config = data::Assist09Preset(0.05);
    data::StudentSimulator simulator(config);
    return data::SplitIntoWindows(simulator.Generate(), 50, 5);
  }

  data::Dataset windows_;
  std::unique_ptr<rckt::RCKT> model_;
  data::Batch batch_;
};

void BM_RcktScoreApproximate(benchmark::State& state) {
  RcktScoringFixture fixture;
  for (auto _ : state) {
    auto scores = fixture.model_->ScoreTargets(fixture.batch_);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch_.batch_size);
}
BENCHMARK(BM_RcktScoreApproximate);

void BM_RcktScoreExact(benchmark::State& state) {
  RcktScoringFixture fixture;
  for (auto _ : state) {
    auto scores = fixture.model_->ScoreTargetsExact(fixture.batch_);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch_.batch_size);
}
BENCHMARK(BM_RcktScoreExact);

// Counterfactual-inference throughput vs thread count: approximate mode
// fans out 4 generator passes per batch, exact mode fans out one pass per
// history position (24 here). Scores are bit-identical across the sweep.
void BM_RcktScoreApproximateThreads(benchmark::State& state) {
  ThreadCountScope threads(static_cast<int>(state.range(0)));
  RcktScoringFixture fixture;
  for (auto _ : state) {
    auto scores = fixture.model_->ScoreTargets(fixture.batch_);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch_.batch_size);
}
BENCHMARK(BM_RcktScoreApproximateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime();

void BM_RcktScoreExactThreads(benchmark::State& state) {
  ThreadCountScope threads(static_cast<int>(state.range(0)));
  RcktScoringFixture fixture;
  for (auto _ : state) {
    auto scores = fixture.model_->ScoreTargetsExact(fixture.batch_);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch_.batch_size);
}
BENCHMARK(BM_RcktScoreExactThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime();

// Tees every run into a flat JSON record set (op, shape, threads, ns/iter,
// GFLOP/s where the items counter measures flops) while still printing the
// normal console table. The machine-readable artifact is what DESIGN.md
// Sec. 9 and the README performance table are sourced from.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Record rec;
      const std::string name = run.benchmark_name();
      const size_t slash = name.find('/');
      rec.op = name.substr(0, slash);
      rec.shape = slash == std::string::npos ? "" : name.substr(slash + 1);
      rec.threads = ThreadsFromName(name);
      rec.ns_per_iter = run.GetAdjustedRealTime();  // default time unit: ns
      auto it = run.counters.find("items_per_second");
      rec.items_per_second = it == run.counters.end() ? 0.0 : it->second.value;
      records_.push_back(rec);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    // The CPU probe's id names the micro kernel the GEMM rows ran on.
    out << "{\n  \"bench\": \"micro_substrate\",\n  \"cpu\": \""
        << cpu::IdString() << "\",\n  \"results\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"op\": \"" << r.op << "\", \"shape\": \"" << r.shape
          << "\", \"threads\": " << r.threads
          << ", \"ns_per_iter\": " << r.ns_per_iter;
      // The GEMM families count flops as items, so items/s is FLOP/s there;
      // other families report raw items/s (batches, students, ...).
      if (r.op.rfind("BM_Gemm", 0) == 0) {
        out << ", \"gflops\": " << r.items_per_second / 1e9;
      } else if (r.items_per_second > 0.0) {
        out << ", \"items_per_second\": " << r.items_per_second;
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    std::string op;
    std::string shape;
    int threads = 1;
    double ns_per_iter = 0.0;
    double items_per_second = 0.0;
  };

  // The *Threads sweeps encode the pool size as a "threads:N" name segment;
  // everything else runs at the ambient pool size.
  static int ThreadsFromName(const std::string& name) {
    const size_t pos = name.find("threads:");
    if (pos == std::string::npos) return kt::GetNumThreads();
    return std::atoi(name.c_str() + pos + std::strlen("threads:"));
  }

  std::vector<Record> records_;
};

}  // namespace
}  // namespace kt

// Custom main so the run header reports the ambient pool size next to
// google-benchmark's own context lines, and so results also land in
// BENCH_micro_substrate.json (override the path with --json_out=<path>).
int main(int argc, char** argv) {
  // Strip the shared kt flags (--threads, --obs, --trace-out, --run-log)
  // before google-benchmark sees argv; it rejects unrecognized arguments.
  kt::bench::InitBenchFlags(&argc, argv);
  std::printf("kt::parallel threads: %d (KT_NUM_THREADS / --threads sweep "
              "benchmarks override per-run)\n",
              kt::GetNumThreads());
  std::string json_path = "BENCH_micro_substrate.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  kt::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!reporter.WriteJson(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

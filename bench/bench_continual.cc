// Continual-learning overhead bench (DESIGN.md §16): measures the three
// costs the streaming trainer adds to a serving deployment —
//
//   * ingest: Record() + DrainNow() throughput for committed update events
//     (the per-event tax on the serve update path),
//   * mini-epoch: wall-clock of RunMiniEpoch over a populated reservoir +
//     tail, including the holdout promotion gate (the recurring background
//     cost),
//   * swap pause: ShardSet::SwapWeights latency under concurrent predict
//     traffic (the quiesce barrier every promotion pays).
//
// Traffic is the drift scenario (data/scenarios.h) — the workload the
// continual loop exists for. Results go to BENCH_continual.json (override
// the path with --out=<path>).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "continual/trainer.h"
#include "data/scenarios.h"
#include "nn/serialize.h"
#include "serve/loadgen.h"
#include "serve/shard.h"

namespace kt {
namespace bench {
namespace {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

serve::ServeRequest PredictRequest(const std::string& student,
                                   int64_t question) {
  serve::ServeRequest r;
  r.op = serve::Op::kPredict;
  r.student = student;
  r.question = question;
  r.has_concepts = true;
  r.concepts = {question % 4};
  return r;
}

struct ContinualMetrics {
  int64_t events = 0;
  double ingest_elapsed_s = 0.0;
  double ingest_events_per_sec = 0.0;
  int64_t reservoir_size = 0;
  int64_t reservoir_capacity = 0;
  int64_t mini_epochs = 0;
  int64_t promotions = 0;
  double mini_epoch_p50_ms = 0.0;
  double mini_epoch_p99_ms = 0.0;
  double mini_epoch_mean_ms = 0.0;
  int64_t swaps = 0;
  double swap_p50_us = 0.0;
  double swap_p99_us = 0.0;
  double swap_mean_us = 0.0;
};

bool WriteJson(const std::string& path, const ContinualMetrics& m) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"continual\",\n  \"threads\": " << GetNumThreads()
      << ",\n  \"events\": " << m.events
      << ",\n  \"ingest_elapsed_s\": " << m.ingest_elapsed_s
      << ",\n  \"ingest_events_per_sec\": " << m.ingest_events_per_sec
      << ",\n  \"reservoir_size\": " << m.reservoir_size
      << ",\n  \"reservoir_capacity\": " << m.reservoir_capacity
      << ",\n  \"mini_epochs\": " << m.mini_epochs
      << ",\n  \"promotions\": " << m.promotions
      << ",\n  \"mini_epoch_p50_ms\": " << m.mini_epoch_p50_ms
      << ",\n  \"mini_epoch_p99_ms\": " << m.mini_epoch_p99_ms
      << ",\n  \"mini_epoch_mean_ms\": " << m.mini_epoch_mean_ms
      << ",\n  \"swaps\": " << m.swaps
      << ",\n  \"swap_p50_us\": " << m.swap_p50_us
      << ",\n  \"swap_p99_us\": " << m.swap_p99_us
      << ",\n  \"swap_mean_us\": " << m.swap_mean_us << "\n}\n";
  return static_cast<bool>(out);
}

void Run(const std::string& out_path) {
  PrintHeader("Continual trainer: ingest, mini-epoch, swap pause",
              "expectation: ingest far above serve throughput (the update "
              "tap is not the bottleneck); swap pause bounded by one "
              "in-flight batch per shard");

  // Drift traffic: the mid-stream concept shift the continual loop exists
  // to absorb. Smoke keeps the stream small enough for seconds-long runs.
  const double traffic_scale = FullMode() ? 0.5 : 0.1;
  const data::SimulatorConfig config = data::DriftScenario(traffic_scale);
  const data::StudentSimulator simulator(config);
  const data::Dataset ds = simulator.Generate();

  rckt::RCKT serving(ds.num_questions, ds.num_concepts,
                     BenchRcktConfig("assist09", rckt::EncoderKind::kDKT, 7));

  ContinualMetrics metrics;

  continual::TrainerOptions options;
  options.reservoir_capacity = FullMode() ? 1024 : 256;
  options.tail_capacity = FullMode() ? 256 : 64;
  options.window = 16;
  options.min_history = 4;
  options.shards = 4;
  options.lr = 1e-4f;
  continual::ContinualTrainer trainer(serving, options);
  metrics.reservoir_capacity = options.reservoir_capacity;

  // --- ingest: every drift interaction as a committed update event ---
  {
    const auto start = std::chrono::steady_clock::now();
    for (const data::ResponseSequence& seq : ds.sequences) {
      const std::string student = "drift-s" + std::to_string(seq.student);
      const int shard = static_cast<int>(serve::ShardSet::ShardFor(
          student, static_cast<uint32_t>(options.shards)));
      for (size_t i = 0; i < seq.interactions.size(); ++i) {
        const data::Interaction& it = seq.interactions[i];
        serve::UpdateEvent event;
        event.student = student;
        event.index = static_cast<int64_t>(i);
        event.question = it.question;
        event.response = it.response;
        event.concepts = &it.concepts;
        trainer.Record(shard, event);
        ++metrics.events;
      }
    }
    trainer.DrainNow();
    metrics.ingest_elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    metrics.ingest_events_per_sec =
        metrics.ingest_elapsed_s > 0.0
            ? static_cast<double>(metrics.events) / metrics.ingest_elapsed_s
            : 0.0;
  }

  // --- mini-epoch: train + gate over the populated replay set ---
  {
    const int64_t epochs = FullMode() ? 12 : 6;
    std::vector<double> epoch_ms;
    epoch_ms.reserve(static_cast<size_t>(epochs));
    for (int64_t e = 0; e < epochs; ++e) {
      const auto t0 = std::chrono::steady_clock::now();
      KT_CHECK(trainer.RunMiniEpoch()) << "empty replay set";
      epoch_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
    const continual::ContinualTrainer::Stats stats = trainer.GetStats();
    metrics.reservoir_size = stats.reservoir_size;
    metrics.mini_epochs = stats.mini_epochs;
    metrics.promotions = stats.promotions;
    metrics.mini_epoch_mean_ms = Mean(epoch_ms);
    std::sort(epoch_ms.begin(), epoch_ms.end());
    metrics.mini_epoch_p50_ms = serve::Percentile(epoch_ms, 0.50);
    metrics.mini_epoch_p99_ms = serve::Percentile(epoch_ms, 0.99);
  }

  // --- swap pause: SwapWeights under live predict traffic ---
  {
    rckt::RcktConfig other_config =
        BenchRcktConfig("assist09", rckt::EncoderKind::kDKT, 99);
    rckt::RCKT model_a(ds.num_questions, ds.num_concepts,
                       BenchRcktConfig("assist09", rckt::EncoderKind::kDKT, 7));
    rckt::RCKT model_b(ds.num_questions, ds.num_concepts, other_config);
    const std::vector<Tensor> state_a = model_a.StateClone();
    const std::vector<Tensor> state_b = model_b.StateClone();
    const uint64_t fp_a = nn::FingerprintModule(model_a);
    const uint64_t fp_b = nn::FingerprintModule(model_b);

    serve::ShardSetOptions shard_options;
    shard_options.shards = 2;
    shard_options.engine.num_questions = ds.num_questions;
    shard_options.engine.num_concepts = ds.num_concepts;
    serve::ShardSet shards(model_a, shard_options, nullptr);

    // Warm a few sessions so the swap has streams to drop and rebuild.
    for (int student = 0; student < 16; ++student) {
      const std::string name = "swap-s" + std::to_string(student);
      for (int step = 0; step < 16; ++step) {
        serve::ServeRequest update = PredictRequest(name, (step * 5) % 25);
        update.op = serve::Op::kUpdate;
        update.response = step % 2;
        KT_CHECK(shards.SubmitSync(update).ok);
      }
    }

    std::atomic<bool> stop{false};
    std::thread traffic([&] {
      int64_t step = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string name = "swap-s" + std::to_string(step % 16);
        shards.SubmitSync(PredictRequest(name, step % 25));
        ++step;
      }
    });

    const int64_t swaps = FullMode() ? 64 : 24;
    std::vector<double> swap_us;
    swap_us.reserve(static_cast<size_t>(swaps));
    for (int64_t i = 0; i < swaps; ++i) {
      const bool to_b = (i % 2) == 0;
      const auto t0 = std::chrono::steady_clock::now();
      KT_CHECK(shards.SwapWeights(to_b ? state_b : state_a,
                                  to_b ? fp_b : fp_a, i + 1));
      swap_us.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    stop.store(true, std::memory_order_relaxed);
    traffic.join();
    shards.Stop();
    metrics.swaps = swaps;
    metrics.swap_mean_us = Mean(swap_us);
    std::sort(swap_us.begin(), swap_us.end());
    metrics.swap_p50_us = serve::Percentile(swap_us, 0.50);
    metrics.swap_p99_us = serve::Percentile(swap_us, 0.99);
  }

  TablePrinter table({"metric", "value"});
  table.AddRow({"events ingested", std::to_string(metrics.events)});
  table.AddRow({"ingest events/s",
                FormatFloat(metrics.ingest_events_per_sec, 0)});
  table.AddRow({"reservoir fill", std::to_string(metrics.reservoir_size) +
                                      "/" +
                                      std::to_string(
                                          metrics.reservoir_capacity)});
  table.AddRow({"mini-epoch p50/p99 ms",
                FormatFloat(metrics.mini_epoch_p50_ms, 1) + "/" +
                    FormatFloat(metrics.mini_epoch_p99_ms, 1)});
  table.AddRow({"promotions", std::to_string(metrics.promotions) + "/" +
                                  std::to_string(metrics.mini_epochs)});
  table.AddRow({"swap pause p50/p99 us",
                FormatFloat(metrics.swap_p50_us, 0) + "/" +
                    FormatFloat(metrics.swap_p99_us, 0)});
  table.Print(std::cout);

  if (!WriteJson(out_path, metrics)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace kt

int main(int argc, char** argv) {
  const kt::FlagParser flags = kt::bench::InitBenchFlags(&argc, argv);
  kt::bench::Run(flags.GetString("out", "BENCH_continual.json"));
  return 0;
}

// Shared infrastructure for the experiment benches (one binary per paper
// table/figure; see DESIGN.md experiment index).
//
// Scale control: benches default to SMOKE mode, sized so the whole suite
// finishes on one CPU core in minutes. Setting KT_BENCH_FULL=1 enlarges the
// datasets, fold count, and epoch budgets for more stable numbers (closer
// to the paper's protocol). Absolute AUC/ACC differ from the paper (the
// substrate is a synthetic simulator; see DESIGN.md); the shapes —
// orderings, ablation drops, speedups — are the reproduction target.
#ifndef KT_BENCH_BENCH_COMMON_H_
#define KT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/flags.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "data/dataset.h"
#include "data/presets.h"
#include "eval/trainer.h"
#include "models/akt.h"
#include "models/difficulty.h"
#include "models/dimkt.h"
#include "models/dkt.h"
#include "models/ikt.h"
#include "models/qikt.h"
#include "models/sakt.h"
#include "obs/obs_flags.h"
#include "rckt/rckt_model.h"
#include "rckt/rckt_trainer.h"

namespace kt {
namespace bench {

inline bool FullMode() {
  const char* env = std::getenv("KT_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

// Flags shared by every bench binary (and ktcli): --threads sizes the
// kt::parallel pool, and --obs / --trace-out / --run-log arm kt::obs
// telemetry so a BENCH_*.json run carries the same observability artifacts
// as a training run.
inline bool IsCommonBenchFlag(const std::string& key) {
  return key == "threads" || key == "obs" || key == "trace-out" ||
         key == "run-log";
}

// Parses and applies the shared flags, then compacts argv so wrappers with
// their own flag parsing (google-benchmark) never see them. Returns the
// parser for bench-specific flags (e.g. --out).
inline FlagParser InitBenchFlags(int* argc, char** argv) {
  FlagParser flags;
  const Status status = flags.Parse(*argc, argv);
  KT_CHECK(status.ok()) << status.ToString();
  obs::ApplyCommonObsFlags(ApplyCommonFlags(flags));
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    bool drop = false;
    if (arg.rfind("--", 0) == 0) {
      std::string key = arg.substr(2);
      const size_t eq = key.find('=');
      const bool has_value_inline = eq != std::string::npos;
      if (has_value_inline) key = key.substr(0, eq);
      if (IsCommonBenchFlag(key)) {
        drop = true;
        // "--key value" form: the value travels with the key.
        if (!has_value_inline && i + 1 < *argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
          ++i;
        }
      }
    }
    if (!drop) argv[kept++] = argv[i];
  }
  *argc = kept;
  return flags;
}

struct BenchScale {
  double dataset_scale;
  int folds;
  int baseline_epochs;
  int rckt_epochs;
  int64_t dim;
  int64_t batch_size;
};

inline BenchScale GetScale() {
  if (FullMode()) {
    return {1.0, 5, 30, 10, 32, 64};
  }
  return {0.3, 2, 30, 5, 32, 32};
}

// Validation fraction for early stopping: the paper's 10% in full mode; a
// larger slice in smoke mode, where 10% of a small dataset gives too noisy
// a stopping signal.
inline double ValidationFraction() { return FullMode() ? 0.1 : 0.2; }

// Generates a preset dataset at bench scale and windows it (paper protocol:
// window 50, minimum length 5).
inline data::Dataset MakeWindows(const std::string& preset_name) {
  const BenchScale scale = GetScale();
  data::SimulatorConfig config =
      data::PresetByName(preset_name, scale.dataset_scale).value();
  data::StudentSimulator simulator(config);
  return data::SplitIntoWindows(simulator.Generate(), 50, 5);
}

inline models::NeuralConfig BaselineConfig(uint64_t seed) {
  models::NeuralConfig config;
  config.dim = GetScale().dim;
  config.num_layers = 1;
  config.num_heads = 2;
  config.dropout = 0.1f;
  config.lr = 1e-3f;
  config.weight_decay = 1e-5f;
  config.seed = seed;
  return config;
}

// Baseline factory by paper name: DKT, SAKT, AKT, DIMKT, IKT, QIKT.
inline std::unique_ptr<models::KTModel> MakeBaselineByName(
    const std::string& name, const data::Dataset& train, uint64_t seed) {
  const models::NeuralConfig config = BaselineConfig(seed);
  if (name == "DKT") {
    return std::make_unique<models::DKT>(train.num_questions,
                                         train.num_concepts, config);
  }
  if (name == "SAKT") {
    return std::make_unique<models::SAKT>(train.num_questions,
                                          train.num_concepts, config);
  }
  if (name == "AKT") {
    return std::make_unique<models::AKT>(train.num_questions,
                                         train.num_concepts, config);
  }
  if (name == "DIMKT") {
    return std::make_unique<models::DIMKT>(
        train.num_questions, train.num_concepts,
        models::ComputeDifficulty(train, train.num_questions), config);
  }
  if (name == "IKT") {
    return std::make_unique<models::IKT>(train.num_questions,
                                         models::IktConfig{});
  }
  if (name == "QIKT") {
    return std::make_unique<models::QIKT>(train.num_questions,
                                          train.num_concepts, config);
  }
  KT_CHECK(false) << "unknown baseline " << name;
  return nullptr;
}

// RCKT config for a dataset/encoder pair: paper Table III hyper-parameters
// with the bench-scale dimension/layer budget applied.
inline rckt::RcktConfig BenchRcktConfig(const std::string& dataset,
                                        rckt::EncoderKind encoder,
                                        uint64_t seed) {
  rckt::RcktConfig config = rckt::RcktConfigFor(dataset, encoder);
  config.dim = GetScale().dim;
  if (!FullMode()) config.num_layers = 1;
  config.seed = seed;
  return config;
}

inline eval::TrainOptions BaselineTrainOptions(uint64_t seed) {
  eval::TrainOptions options;
  options.max_epochs = GetScale().baseline_epochs;
  options.patience = 8;
  options.batch_size = GetScale().batch_size;
  options.seed = seed;
  return options;
}

inline rckt::RcktTrainOptions RcktBenchOptions(uint64_t seed) {
  rckt::RcktTrainOptions options;
  options.max_epochs = GetScale().rckt_epochs;
  options.patience = 3;
  options.batch_size = GetScale().batch_size;
  options.train_stride = 5;
  options.eval_stride = 4;
  options.seed = seed;
  return options;
}

inline std::string Fmt4(double v) { return FormatFloat(v, 4); }

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%s\n", paper.c_str());
  std::printf("mode: %s\n", FullMode() ? "FULL (KT_BENCH_FULL=1)" : "SMOKE");
  // All benches are deterministic in KT_NUM_THREADS; the count only moves
  // wall-clock time, never a metric.
  std::printf("threads: %d (KT_NUM_THREADS)\n\n", GetNumThreads());
}

}  // namespace bench
}  // namespace kt

#endif  // KT_BENCH_BENCH_COMMON_H_

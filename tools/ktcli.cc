// ktcli — command-line interface to the RCKT library.
//
// Subcommands:
//   simulate  --preset NAME | --scenario NAME [--scale S] [--seed N]
//             --out data.csv
//             Generate a synthetic dataset and write it as CSV. --preset
//             picks a paper-dataset stand-in, --scenario a serving
//             workload from the scenario registry (DESIGN.md §12).
//             Unknown names list the valid ones.
//   train     --data data.csv --encoder dkt|sakt|akt|gru [--epochs N]
//             [--dim D] [--layers N] [--heads H] [--lambda L]
//             [--save model.ktw]
//             [--checkpoint-every N --checkpoint ckpt.ktc]
//             [--resume ckpt.ktc]
//             Train RCKT with early stopping; print test AUC/ACC.
//   evaluate  --data data.csv --load model.ktw [--json] [--stride N]
//             Evaluate a saved model on a dataset. --json replaces the
//             one-line summary with a machine-readable JSON object holding
//             the metrics plus every per-sample prediction (consumed by
//             kt_loadgen --expect and scripts/check_serve.sh).
//   explain   --data data.csv --load model.ktw
//             [--student I] [--target T]
//             Print the influence breakdown behind one prediction.
//   recourse  --data data.csv --load model.ktw
//             [--student I] [--target T] [--k 2] [--top 3]
//             [--target-p P] [--insert q1,q2] [--brute]
//             Counterfactual recourse for one prediction: search over
//             flipping past incorrect responses and inserting correct
//             practice (candidate sets up to --k interventions; inserted
//             questions from --insert, defaulting to the target
//             question) and print the --top sets ranked by probability
//             lift per intervention. --target-p marks sets that reach
//             the goal probability; --brute swaps the stacked fast path
//             for one forward pass per candidate (identical output —
//             the parity gate in scripts/check_serve.sh relies on it).
//   serve     --load model.ktw [--data data.csv] [--port P] [--shards N]
//             [--max-batch N] [--max-wait-us U]
//             [--memory-budget-mb M] [--cold-dir DIR]
//             Online inference server speaking newline-delimited JSON over
//             stdin/stdout (default) or TCP on 127.0.0.1:P (--port). The
//             optional --data seeds the question->concepts fallback map for
//             requests that omit explicit concept bags. Every reply is
//             bit-identical to the offline scorer: predict, explain and
//             recourse all read the same fp32 model.
//             --continual [--continual-dir DIR] [--train-every N]
//             [--reservoir K] [--tail K] [--holdout-every K] [--gate-eps E]
//             [--gate-min N] [--drift-threshold D] [--continual-lr LR]
//             [--continual-window W] [--continual-min-history H]
//             [--continual-batch B] [--continual-seed S]
//             [--continual-poll-ms MS]
//             Streaming continual learning (kt::continual, DESIGN.md §16):
//             committed updates feed a deterministic replay reservoir; a
//             background trainer runs mini-epochs on a candidate clone and,
//             when the candidate holds up on held-out traffic, publishes
//             DIR/current.ktw and hot-swaps the serving weights. A restart
//             resumes the incumbent from DIR/current.ktw and the trainer
//             from DIR/continual.ktc.
//
// Models saved by `train --save` carry a metadata chunk (encoder kind,
// dim, layers, heads, question/concept counts), so evaluate/explain/serve
// need no architecture flags. Legacy files without the chunk fall back to
// --encoder/--dim/--layers plus the --data shapes.
//
// Global flags (any subcommand):
//   --threads N   Size of the kt::parallel thread pool (default: the
//                 KT_NUM_THREADS env var, else hardware concurrency).
//                 Outputs are bit-identical for every value. The resolved
//                 size is logged to stderr at startup ("ktcli: N threads")
//                 and recorded as "threads" in every run-log entry.
//   --checkpoint-every N / --checkpoint PATH / --resume PATH
//                 Crash-safe training checkpoints (kt::ckpt): every N
//                 epochs the full training state (parameters, Adam moments,
//                 RNG streams, progress) is committed atomically to PATH;
//                 --resume restores it and continues bit-identically to an
//                 uninterrupted run. --checkpoint defaults to the --resume
//                 path. Only `train` consumes these.
//   --obs on|off  kt::obs counter/histogram recording plus a summary on
//                 stderr at exit. Off by default; never changes a metric,
//                 loss, or checkpoint byte.
//   --trace-out PATH
//                 Write a Chrome trace-event JSON file at exit (load in
//                 chrome://tracing or Perfetto); implies --obs on.
//   --run-log PATH
//                 Append per-epoch JSONL telemetry (loss, AUC/ACC,
//                 tokens/sec, GEMM FLOPs, checkpoint latency, RSS, minor
//                 page faults, kernel CPU time), rewritten atomically each
//                 epoch; implies --obs on.
//
// Examples:
//   ktcli simulate --preset assist09 --scale 0.2 --out /tmp/a09.csv
//   ktcli train --data /tmp/a09.csv --encoder dkt --save /tmp/m.ktw
//   ktcli explain --data /tmp/a09.csv --encoder dkt --load /tmp/m.ktw
#include <cstdio>
#include <memory>
#include <string>

#include "continual/trainer.h"
#include "core/flags.h"
#include "core/json.h"
#include "core/memory_policy.h"
#include "core/parallel.h"
#include "data/io.h"
#include "obs/obs_flags.h"
#include "data/presets.h"
#include "data/scenarios.h"
#include "nn/serialize.h"
#include "rckt/rckt_model.h"
#include "rckt/rckt_trainer.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace kt {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ktcli <simulate|train|evaluate|explain|recourse"
               "|serve> [flags]\n"
               "see the header of tools/ktcli.cc for flag reference\n");
  return 2;
}

rckt::EncoderKind ParseEncoder(const std::string& name) {
  if (name == "dkt") return rckt::EncoderKind::kDKT;
  if (name == "sakt") return rckt::EncoderKind::kSAKT;
  if (name == "akt") return rckt::EncoderKind::kAKT;
  if (name == "gru") return rckt::EncoderKind::kGRU;
  KT_CHECK(false) << "unknown encoder '" << name
                  << "' (want dkt|sakt|akt|gru)";
  return rckt::EncoderKind::kDKT;
}

int CmdSimulate(const FlagParser& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "simulate: --out is required\n");
    return 2;
  }
  // --scenario draws from the workload-scenario registry (DESIGN.md §12);
  // --preset from the paper datasets. Unknown names list the valid ones.
  const std::string scenario = flags.GetString("scenario", "");
  const double scale = flags.GetDouble("scale", 0.2);
  Result<data::SimulatorConfig> resolved =
      scenario.empty()
          ? data::PresetByName(flags.GetString("preset", "assist09"), scale)
          : data::ScenarioByName(scenario, scale);
  if (!resolved.ok()) {
    std::fprintf(stderr, "simulate: %s\n",
                 resolved.status().message().c_str());
    return 2;
  }
  data::SimulatorConfig config = std::move(resolved).value();
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", config.seed));
  data::StudentSimulator simulator(config);
  data::Dataset dataset = simulator.Generate();
  const Status status = data::SaveCsv(dataset, out);
  if (!status.ok()) {
    std::fprintf(stderr, "simulate: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %lld interactions (%zu students, %.2f correct) to %s\n",
              static_cast<long long>(dataset.TotalResponses()),
              dataset.sequences.size(), dataset.CorrectRate(), out.c_str());
  return 0;
}

// Loads the CSV, windows it, and builds a model shaped for it.
struct LoadedData {
  data::Dataset windows;
};

int LoadData(const FlagParser& flags, LoadedData* out) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) {
    std::fprintf(stderr, "--data is required\n");
    return 2;
  }
  auto dataset = data::LoadCsv(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  out->windows = data::SplitIntoWindows(dataset.value(),
                                        flags.GetInt("window", 50),
                                        flags.GetInt("min-length", 5));
  return 0;
}

// Builds a fresh model from the architecture flags; null (after printing
// why) when they describe no buildable model.
std::unique_ptr<rckt::RCKT> BuildModel(const FlagParser& flags,
                                       const data::Dataset& windows) {
  rckt::RcktConfig config;
  config.encoder = ParseEncoder(flags.GetString("encoder", "dkt"));
  config.dim = flags.GetInt("dim", 32);
  config.num_layers = flags.GetInt("layers", 1);
  config.num_heads = flags.GetInt("heads", 2);
  config.lambda = static_cast<float>(flags.GetDouble("lambda", 0.1));
  config.lr = static_cast<float>(flags.GetDouble("lr", 1e-3));
  config.dropout = static_cast<float>(flags.GetDouble("dropout", 0.1));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const Status status = rckt::ValidateArchitecture(
      config, windows.num_questions, windows.num_concepts);
  if (!status.ok()) {
    std::fprintf(stderr, "train: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return std::make_unique<rckt::RCKT>(windows.num_questions,
                                      windows.num_concepts, config);
}

int CmdTrain(const FlagParser& flags, const CommonFlagValues& common) {
  LoadedData loaded;
  if (int rc = LoadData(flags, &loaded)) return rc;

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  const auto folds = data::KFoldAssignment(
      static_cast<int64_t>(loaded.windows.sequences.size()), 5, rng);
  data::FoldSplit split =
      data::MakeFold(loaded.windows, folds, 0, 0.1, rng);

  std::unique_ptr<rckt::RCKT> model = BuildModel(flags, loaded.windows);
  if (model == nullptr) return 1;
  rckt::RcktTrainOptions options;
  options.max_epochs = static_cast<int>(flags.GetInt("epochs", 8));
  options.patience = static_cast<int>(flags.GetInt("patience", 4));
  options.verbose = flags.GetBool("verbose", true);
  options.checkpoint_every = common.checkpoint_every;
  options.checkpoint_path = common.checkpoint_path;
  options.resume_path = common.resume_path;
  if (options.checkpoint_every > 0 && options.checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "train: --checkpoint-every needs --checkpoint (or --resume) "
                 "to name the checkpoint file\n");
    return 2;
  }
  const auto result = rckt::TrainAndEvaluateRckt(*model, split, options);
  std::printf("%s: test AUC %.4f ACC %.4f (%lld predictions)\n",
              model->name().c_str(), result.test.auc, result.test.acc,
              static_cast<long long>(result.test.num_predictions));

  const std::string save = flags.GetString("save", "");
  if (!save.empty()) {
    const Status status =
        nn::SaveModuleWithMeta(*model, rckt::ArchitectureMeta(*model), save);
    if (!status.ok()) {
      std::fprintf(stderr, "save: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved model to %s\n", save.c_str());
  }
  return 0;
}

// Builds a model shaped for the weights in --load and restores them.
// Prefers the file's own metadata chunk; legacy files fall back to the
// architecture flags plus `windows` for the embedding-table shapes
// (`windows` may be null only when the file has metadata, e.g. `serve`
// without --data). On failure returns null with *rc set.
std::unique_ptr<rckt::RCKT> LoadModelAuto(const FlagParser& flags,
                                          const data::Dataset* windows,
                                          int* rc) {
  *rc = 0;
  const std::string load = flags.GetString("load", "");
  if (load.empty()) {
    std::fprintf(stderr, "--load is required\n");
    *rc = 2;
    return nullptr;
  }
  bool has_meta = false;
  nn::ModelMeta meta;
  Status status = nn::ReadModuleMeta(load, &has_meta, &meta);
  if (!status.ok()) {
    std::fprintf(stderr, "load: %s\n", status.ToString().c_str());
    *rc = 1;
    return nullptr;
  }
  rckt::RcktConfig config;
  int64_t num_questions = 0;
  int64_t num_concepts = 0;
  if (has_meta) {
    config = rckt::ArchitectureFromMeta(meta, &num_questions, &num_concepts);
  } else if (windows != nullptr) {
    config.encoder = ParseEncoder(flags.GetString("encoder", "dkt"));
    config.dim = flags.GetInt("dim", 32);
    config.num_layers = flags.GetInt("layers", 1);
    config.num_heads = flags.GetInt("heads", 2);
    num_questions = windows->num_questions;
    num_concepts = windows->num_concepts;
  } else {
    std::fprintf(stderr,
                 "load: %s has no metadata chunk; pass --data (plus the "
                 "--encoder/--dim/--layers used at training time) or "
                 "re-save with a current `ktcli train`\n",
                 load.c_str());
    *rc = 2;
    return nullptr;
  }
  status = rckt::ValidateArchitecture(config, num_questions, num_concepts);
  if (!status.ok()) {
    std::fprintf(stderr, "load: %s: %s\n", load.c_str(),
                 status.ToString().c_str());
    *rc = 1;
    return nullptr;
  }
  auto model =
      std::make_unique<rckt::RCKT>(num_questions, num_concepts, config);
  status = nn::LoadModule(*model, load);
  if (!status.ok()) {
    std::fprintf(stderr, "load: %s\n", status.ToString().c_str());
    *rc = 1;
    return nullptr;
  }
  return model;
}

int CmdEvaluate(const FlagParser& flags) {
  LoadedData loaded;
  if (int rc = LoadData(flags, &loaded)) return rc;
  int rc = 0;
  std::unique_ptr<rckt::RCKT> model =
      LoadModelAuto(flags, &loaded.windows, &rc);
  if (model == nullptr) return rc;

  rckt::RcktTrainOptions options;
  options.eval_stride = flags.GetInt("stride", 4);
  if (flags.GetBool("json", false)) {
    const auto detailed =
        rckt::EvaluateRcktDetailed(*model, loaded.windows, options);
    JsonWriter w;
    w.BeginObject();
    w.Key("model").String(model->name());
    w.Key("data").String(flags.GetString("data", ""));
    w.Key("auc").Double(detailed.metrics.auc);
    w.Key("acc").Double(detailed.metrics.acc);
    w.Key("num_predictions").Int(detailed.metrics.num_predictions);
    w.Key("stride").Int(options.eval_stride);
    w.Key("min_target").Int(options.min_target);
    w.Key("predictions").BeginArray();
    for (const auto& p : detailed.predictions) {
      w.BeginObject();
      w.Key("sequence").Int(p.sequence);
      w.Key("target").Int(p.target);
      w.Key("question").Int(p.question);
      w.Key("label").Int(p.label);
      w.Key("score").Float(p.score);
      w.Key("generator_score").Float(p.generator_score);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  const auto result = rckt::EvaluateRckt(*model, loaded.windows, options);
  std::printf("%s on %s: AUC %.4f ACC %.4f (%lld predictions)\n",
              model->name().c_str(), flags.GetString("data", "").c_str(),
              result.auc, result.acc,
              static_cast<long long>(result.num_predictions));
  return 0;
}

int CmdExplain(const FlagParser& flags) {
  LoadedData loaded;
  if (int rc = LoadData(flags, &loaded)) return rc;
  int rc = 0;
  std::unique_ptr<rckt::RCKT> model =
      LoadModelAuto(flags, &loaded.windows, &rc);
  if (model == nullptr) return rc;

  const int64_t student_index = flags.GetInt("student", 0);
  KT_CHECK(student_index >= 0 &&
           student_index <
               static_cast<int64_t>(loaded.windows.sequences.size()))
      << "--student out of range";
  const auto& seq =
      loaded.windows.sequences[static_cast<size_t>(student_index)];
  const int64_t target =
      flags.GetInt("target", seq.length() - 1);
  KT_CHECK(target >= 1 && target < seq.length()) << "--target out of range";

  data::Batch batch = rckt::MakePrefixBatch({{&seq, target}});
  const auto explanation = model->ExplainTargets(batch).front();
  std::printf("influences on q%lld at position %lld:\n",
              static_cast<long long>(
                  seq.interactions[static_cast<size_t>(target)].question),
              static_cast<long long>(target));
  for (int64_t t = 0; t < target; ++t) {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    std::printf("  t=%-3lld q%-5lld %-9s %+0.4f\n",
                static_cast<long long>(t),
                static_cast<long long>(it.question),
                it.response ? "correct" : "wrong",
                explanation.influence[static_cast<size_t>(t)]);
  }
  std::printf("total correct %.4f vs incorrect %.4f -> predict %s "
              "(actual %s)\n",
              explanation.total_correct, explanation.total_incorrect,
              explanation.predicted_correct ? "correct" : "incorrect",
              seq.interactions[static_cast<size_t>(target)].response
                  ? "correct"
                  : "incorrect");
  return 0;
}

// Offline counterfactual recourse for one dataset prediction: feeds the
// prefix through a local InferenceEngine (the same code path `serve`
// uses) and prints the ranked intervention sets.
int CmdRecourse(const FlagParser& flags) {
  LoadedData loaded;
  if (int rc = LoadData(flags, &loaded)) return rc;
  int rc = 0;
  std::unique_ptr<rckt::RCKT> model =
      LoadModelAuto(flags, &loaded.windows, &rc);
  if (model == nullptr) return rc;

  const int64_t student_index = flags.GetInt("student", 0);
  KT_CHECK(student_index >= 0 &&
           student_index <
               static_cast<int64_t>(loaded.windows.sequences.size()))
      << "--student out of range";
  const auto& seq =
      loaded.windows.sequences[static_cast<size_t>(student_index)];
  const int64_t target = flags.GetInt("target", seq.length() - 1);
  KT_CHECK(target >= 0 && target < seq.length()) << "--target out of range";

  serve::EngineOptions options;
  options.num_questions =
      model->embedder().question_embedding().num_embeddings();
  options.num_concepts =
      model->embedder().concept_embedding().num_embeddings();
  serve::InferenceEngine engine(*model, options);
  for (int64_t t = 0; t < target; ++t) {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    serve::ServeRequest update;
    update.op = serve::Op::kUpdate;
    update.student = "cli";
    update.question = it.question;
    update.response = it.response;
    update.has_concepts = true;
    update.concepts = it.concepts;
    KT_CHECK(engine.Execute(update).ok) << "prefix update failed";
  }

  const auto& goal = seq.interactions[static_cast<size_t>(target)];
  serve::ServeRequest request;
  request.op = serve::Op::kRecourse;
  request.student = "cli";
  request.question = goal.question;
  request.has_concepts = true;
  request.concepts = goal.concepts;
  request.k = static_cast<int>(flags.GetInt("k", 2));
  request.top = static_cast<int>(flags.GetInt("top", 3));
  request.target_p = flags.GetDouble("target-p", -1.0);
  request.brute = flags.GetBool("brute", false);
  const std::string insert = flags.GetString("insert", "");
  if (!insert.empty()) {
    request.has_insert_questions = true;
    int64_t value = 0;
    bool have = false;
    for (const char c : insert + ",") {
      if (c >= '0' && c <= '9') {
        value = value * 10 + (c - '0');
        have = true;
      } else {
        KT_CHECK(c == ',' && have) << "--insert wants q1,q2,...";
        request.insert_questions.push_back(value);
        value = 0;
        have = false;
      }
    }
  }

  const serve::ServeResponse response = engine.Execute(request);
  if (!response.ok) {
    std::fprintf(stderr, "recourse: %s\n", response.error.c_str());
    return 1;
  }
  std::printf("recourse for q%lld after %lld interactions: "
              "base p=%.4f (%lld candidate sets evaluated)\n",
              static_cast<long long>(goal.question),
              static_cast<long long>(target),
              response.base_p,
              static_cast<long long>(response.evaluated));
  for (const serve::Counterfactual& candidate : response.candidates) {
    std::printf("  p=%.4f lift=%+.4f%s", candidate.p, candidate.lift,
                candidate.reaches_target ? " [target]" : "");
    for (const serve::Intervention& intervention : candidate.interventions) {
      if (intervention.kind == serve::Intervention::Kind::kFlipResponse) {
        std::printf("  flip t=%lld (q%lld)",
                    static_cast<long long>(intervention.position),
                    static_cast<long long>(intervention.question));
      } else {
        std::printf("  insert practice q%lld",
                    static_cast<long long>(intervention.question));
      }
    }
    std::printf("\n");
  }
  return 0;
}

int CmdServe(const FlagParser& flags) {
  LoadedData loaded;
  const bool have_data = !flags.GetString("data", "").empty();
  if (have_data) {
    if (int rc = LoadData(flags, &loaded)) return rc;
  }
  int rc = 0;
  std::unique_ptr<rckt::RCKT> model =
      LoadModelAuto(flags, have_data ? &loaded.windows : nullptr, &rc);
  if (model == nullptr) return rc;

  serve::ServerOptions server_options;
  server_options.port = static_cast<int>(flags.GetInt("port", 0));
  server_options.shards = static_cast<int>(flags.GetInt("shards", 1));
  KT_CHECK(server_options.shards >= 1 && server_options.shards <= 64)
      << "--shards must be in [1, 64]";
  server_options.engine.session_budget_bytes =
      static_cast<size_t>(flags.GetInt("memory-budget-mb", 64)) << 20;
  server_options.engine.num_questions =
      model->embedder().question_embedding().num_embeddings();
  server_options.engine.num_concepts =
      model->embedder().concept_embedding().num_embeddings();
  server_options.engine.cold_dir = flags.GetString("cold-dir", "");
  server_options.batcher.max_batch = flags.GetInt("max-batch", 16);
  server_options.batcher.max_wait_us = flags.GetInt("max-wait-us", 1000);

  // ---- continual learning (kt::continual) ----
  std::unique_ptr<continual::ContinualTrainer> trainer;
  serve::ServeHooks hooks;
  if (flags.GetBool("continual", false)) {
    continual::TrainerOptions trainer_options;
    trainer_options.dir = flags.GetString("continual-dir", "continual");
    trainer_options.shards = server_options.shards;
    trainer_options.train_every = flags.GetInt("train-every", 256);
    trainer_options.reservoir_capacity = flags.GetInt("reservoir", 2048);
    trainer_options.tail_capacity = flags.GetInt("tail", 512);
    trainer_options.window = flags.GetInt("continual-window", 32);
    trainer_options.min_history = flags.GetInt("continual-min-history", 4);
    trainer_options.holdout_every = flags.GetInt("holdout-every", 8);
    trainer_options.batch_size = flags.GetInt("continual-batch", 32);
    trainer_options.gate_eps = flags.GetDouble("gate-eps", 0.02);
    trainer_options.gate_min_samples = flags.GetInt("gate-min", 64);
    trainer_options.drift_threshold =
        flags.GetDouble("drift-threshold", 0.05);
    trainer_options.lr =
        static_cast<float>(flags.GetDouble("continual-lr", 1e-4));
    trainer_options.seed =
        static_cast<uint64_t>(flags.GetInt("continual-seed", 1));
    trainer_options.poll_ms = flags.GetInt("continual-poll-ms", 20);

    // Resume the incumbent: a previously promoted DIR/current.ktw REPLACES
    // the --load weights, and its meta version seeds the stats counter.
    const std::string current = trainer_options.dir + "/current.ktw";
    bool meta_present = false;
    nn::ModelMeta meta;
    if (nn::ReadModuleMeta(current, &meta_present, &meta).ok() &&
        nn::LoadModule(*model, current).ok()) {
      trainer_options.initial_weight_version =
          meta_present ? meta.weight_version : 0;
      std::fprintf(
          stderr, "ktcli serve: resumed incumbent %s (weight version %lld)\n",
          current.c_str(),
          static_cast<long long>(trainer_options.initial_weight_version));
    }
    server_options.initial_weight_version =
        trainer_options.initial_weight_version;

    trainer =
        std::make_unique<continual::ContinualTrainer>(*model, trainer_options);
    if (trainer->LoadCheckpoint()) {
      std::fprintf(stderr, "ktcli serve: resumed continual trainer from %s\n",
                   (trainer_options.dir + "/continual.ktc").c_str());
    }
    continual::ContinualTrainer& tap = *trainer;
    server_options.engine.update_sink =
        [&tap](int shard, const serve::UpdateEvent& event) {
          tap.Record(shard, event);
        };
    hooks.on_start = [&tap](serve::ShardSet& shards) { tap.Start(&shards); };
    hooks.on_stop = [&tap] { tap.Stop(); };
  }
  server_options.engine.model_fingerprint = nn::FingerprintModule(*model);

  if (server_options.port > 0) {
    std::fprintf(stderr,
                 "ktcli serve: %s on 127.0.0.1:%d (%d shards%s)\n",
                 model->name().c_str(), server_options.port,
                 server_options.shards,
                 trainer != nullptr ? ", continual" : "");
  }
  return serve::RunServer(*model, server_options,
                          have_data ? &loaded.windows : nullptr, hooks);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // The offline commands free and rebuild a ~200 MB autograd graph every
  // training step; keep that memory mapped instead of faulting it back in
  // (DESIGN.md §9.5). serve keeps the allocator defaults: its allocations
  // are small and its resident memory is what the session budget bounds.
  if (command != "serve") RetainFreedMemory();
  FlagParser flags;
  const Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  // --threads N (or the KT_NUM_THREADS env var) sizes the kt::parallel
  // pool; results are bit-identical for every setting. The returned values
  // carry the checkpoint/resume flags into the train command; the
  // observability flags (--obs / --trace-out / --run-log) take effect here
  // and flush their artifacts through an atexit hook.
  const CommonFlagValues common = ApplyCommonFlags(flags);
  obs::ApplyCommonObsFlags(common);
  // The pool size every later parallel region uses: --threads, else
  // KT_NUM_THREADS, else the hardware count. The run log repeats it per
  // entry.
  std::fprintf(stderr, "ktcli: %d threads\n", GetNumThreads());
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "train") return CmdTrain(flags, common);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "recourse") return CmdRecourse(flags);
  if (command == "serve") return CmdServe(flags);
  return Usage();
}

}  // namespace
}  // namespace kt

int main(int argc, char** argv) { return kt::Main(argc, argv); }

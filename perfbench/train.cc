// The train_sakt workload (`ktcli train --encoder sakt --threads 1` on a
// simulated assist09 dataset) and the in-process training replica that
// checks its saved model and times RCKT::TrainStep / ScoreTargets.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/parallel.h"
#include "eval/metrics.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "perfbench/perfbench.h"
#include "rckt/rckt_trainer.h"
#include "rckt/samples.h"

namespace perfbench {

namespace {

// `ktcli train` prints "<model>: test AUC 0.5720 ACC ...".
std::string ParseAuc(const std::string& log) {
  const std::string key = "test AUC ";
  const size_t at = log.find(key);
  if (at == std::string::npos) return "";
  const size_t end = log.find(' ', at + key.size());
  return log.substr(at + key.size(), end - at - key.size());
}

std::string FormatAuc(double auc) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", auc);
  return buf;
}

}  // namespace

// The same steps as `ktcli train --data <csv> --encoder <e> --epochs <n>
// --seed <s>` with every other flag at its default: fold 0 of a 5-fold
// split, RcktTrainOptions defaults with patience 4.
TrainOutcome TrainLikeKtcli(const kt::data::Dataset& windows,
                            const std::string& encoder, int epochs,
                            uint64_t seed, bool timed, SpanLog* spans) {
  TrainOutcome out;
  const Clock::time_point t_start = Clock::now();
  kt::Rng rng(seed);
  const auto folds = kt::data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), 5, rng);
  kt::data::FoldSplit split = kt::data::MakeFold(windows, folds, 0, 0.1, rng);
  kt::rckt::RcktConfig config;
  config.seed = seed;
  config.encoder = encoder == "sakt" ? kt::rckt::EncoderKind::kSAKT
                                     : kt::rckt::EncoderKind::kDKT;
  kt::rckt::RCKT model(windows.num_questions, windows.num_concepts, config);
  kt::rckt::RcktTrainOptions options;
  options.max_epochs = epochs;
  options.patience = 4;

  std::vector<kt::rckt::PrefixSample> train_samples =
      kt::rckt::MakePrefixSamples(split.train, options.train_stride,
                                  options.min_target);
  for (const auto& group :
       kt::rckt::GroupIntoBatches(train_samples, options.batch_size, nullptr)) {
    const kt::data::Batch batch = kt::rckt::MakePrefixBatch(group);
    out.tokens_per_epoch += batch.batch_size * batch.max_len;
  }
  if (!timed) {
    const kt::rckt::RcktTrainResult result =
        kt::rckt::TrainAndEvaluateRckt(model, split, options);
    out.test_auc = FormatAuc(result.test.auc);
    out.fingerprint = kt::nn::FingerprintModule(model);
    out.wall_s = SecondsSince(t_start);
    return out;
  }

  // The body of rckt::TrainAndEvaluateRckt, with each call into the model
  // timed: identical calls in identical order, so identical bits.
  auto evaluate = [&](const kt::data::Dataset& data, const char* span_name) {
    kt::eval::MetricAccumulator accumulator;
    for (const auto& group : kt::rckt::GroupIntoBatches(
             kt::rckt::MakePrefixSamples(data, options.eval_stride,
                                         options.min_target),
             options.batch_size, nullptr)) {
      const kt::data::Batch batch = kt::rckt::MakePrefixBatch(group);
      const Clock::time_point t0 = Clock::now();
      const std::vector<float> scores = model.ScoreTargets(batch);
      const Clock::time_point t1 = Clock::now();
      out.score_us.push_back(MicrosBetween(t0, t1));
      spans->Add(span_name, t0, t1, 0, static_cast<int64_t>(out.score_us.size()));
      const int64_t target = batch.max_len - 1;
      for (int64_t b = 0; b < batch.batch_size; ++b) {
        accumulator.AddOne(scores[static_cast<size_t>(b)],
                           batch.responses[static_cast<size_t>(
                               batch.FlatIndex(b, target))]);
      }
    }
    return accumulator.Auc();
  };
  kt::Rng shuffle_rng(options.seed * 31 + 7);
  std::vector<kt::Tensor> best_state;
  double best_val_auc = 0.0;
  int epochs_since_best = 0;
  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    if (epochs_since_best > 0 && epochs_since_best >= options.patience) break;
    for (const auto& group : kt::rckt::GroupIntoBatches(
             train_samples, options.batch_size, &shuffle_rng)) {
      const kt::data::Batch batch = kt::rckt::MakePrefixBatch(group);
      const Clock::time_point t0 = Clock::now();
      model.TrainStep(batch);
      const Clock::time_point t1 = Clock::now();
      out.step_us.push_back(MicrosBetween(t0, t1));
      spans->Add("rckt.train_step", t0, t1, 0,
                 static_cast<int64_t>(out.step_us.size()));
    }
    const double val_auc = evaluate(split.validation, "rckt.score_targets.val");
    if (val_auc > best_val_auc) {
      best_val_auc = val_auc;
      epochs_since_best = 0;
      best_state = model.StateClone();
    } else {
      ++epochs_since_best;
    }
  }
  if (!best_state.empty()) model.SetState(best_state);
  out.test_auc = FormatAuc(evaluate(split.test, "rckt.score_targets.test"));
  out.fingerprint = kt::nn::FingerprintModule(model);
  out.wall_s = SecondsSince(t_start);
  return out;
}

bool CheckAgainstKtcli(const TrainOutcome& replica, const std::string& model_path,
                       const std::string& train_log, Report* report) {
  std::string error;
  std::unique_ptr<kt::rckt::RCKT> saved = LoadModel(model_path, &error);
  const uint64_t saved_fp = saved ? kt::nn::FingerprintModule(*saved) : 0;
  const std::string saved_auc = ParseAuc(ReadFile(train_log));
  report->Check(saved != nullptr && saved_fp == replica.fingerprint,
                "ktcli train model fingerprint " + Hex(saved_fp) +
                    " equals the in-process replica's " +
                    Hex(replica.fingerprint));
  report->Check(saved_auc == replica.test_auc,
                "ktcli train test AUC " + saved_auc +
                    " equals the in-process replica's " + replica.test_auc);
  return saved_fp == replica.fingerprint && saved_auc == replica.test_auc;
}

// ------------------------------------------------------------- train_sakt --

int RunTrainSakt(const Options& options, Report* report) {
  // One fixed dataset and split: training cost depends on the shapes of the
  // data, so any seed-driven input would move the figures by more than the
  // bounds allow. --seed picks only the traced pass's probe traffic.
  const std::string csv = options.run_dir + "/train.csv";
  const uint64_t train_seed = 1;
  const std::vector<std::string> simulate = {
      options.ktcli, "simulate", "--preset", "assist09", "--scale",
      std::to_string(kTrainDataScale), "--out", csv};
  auto train_argv = [&](int epochs, const std::string& save) {
    return std::vector<std::string>{
        options.ktcli, "train", "--threads", "1", "--data", csv,
        "--encoder", "sakt", "--epochs", std::to_string(epochs),
        "--save", save};
  };

  if (options.trace) {
    ServedModel trained;
    trained.data = csv;
    trained.model = options.run_dir + "/trained.ktw";
    trained.train_log = options.run_dir + "/train.log";
    trained.encoder = "sakt";
    trained.epochs = kTrainEpochs;
    trained.train_seed = train_seed;
    trained.bank = BenchPreset(kTrainDataScale, kServeDataSeed);
    if (RunToCompletion(simulate, options.run_dir + "/simulate.log", 120)
                .exit_code != 0 ||
        RunToCompletion(train_argv(kTrainEpochs, trained.model),
                        trained.train_log, 600)
                .exit_code != 0) {
      std::fprintf(stderr, "ktcli simulate/train failed\n");
      return 1;
    }
    std::string error;
    std::unique_ptr<kt::rckt::RCKT> model = LoadModel(trained.model, &error);
    kt::data::Dataset windows;
    if (model == nullptr || !LoadWindows(csv, &windows, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    Traffic traffic(trained.bank, options.seed, model->num_questions(),
                    model->num_concepts());
    std::vector<TrafficOp> ops;
    AppendShortSessions(traffic, &ops, kProbeOps);
    ProbeSpec spec;
    spec.served = trained;
    spec.server.model = trained.model;
    spec.server.data = csv;
    spec.connections = 1;
    return RunTracePass(options, spec, *model, windows, traffic, ops, report);
  }

  // Rounds of: simulate, kTrainZeroRuns zero-epoch runs (set-up: load,
  // window, split, build, test eval), one kTrainEpochs run.
  std::vector<double> setup_s, tokens_s, epoch_us, run_us, rss_mb;
  std::string first_model, first_auc;
  int64_t tokens_per_epoch = 0;
  bool consistent = true;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kTrainMaxRepeats; ++i) {
    if (i >= kTrainMinRepeats && SecondsSince(t0) >= options.seconds) break;
    const std::string save = options.run_dir + "/model" + std::to_string(i) + ".ktw";
    const std::string log = options.run_dir + "/train" + std::to_string(i) + ".log";
    const RunResult sim = RunToCompletion(
        simulate, options.run_dir + "/simulate.log", 120);
    std::vector<double> zero_s;
    bool ok = sim.exit_code == 0;
    for (int z = 0; z < kTrainZeroRuns && ok; ++z) {
      const RunResult zero = RunToCompletion(
          train_argv(0, options.run_dir + "/zero.ktw"),
          options.run_dir + "/zero.log", 300);
      ok = zero.exit_code == 0;
      zero_s.push_back(zero.wall_s);
    }
    const RunResult full = RunToCompletion(train_argv(kTrainEpochs, save), log, 600);
    if (!ok || full.exit_code != 0) {
      std::fprintf(stderr, "ktcli simulate/train failed (see %s)\n",
                   log.c_str());
      return 1;
    }
    if (i == 0) {
      std::string error;
      kt::data::Dataset windows;
      if (!LoadWindows(csv, &windows, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      // Untimed replica through the library trainer: the reference the
      // saved model and printed AUC must match.
      const TrainOutcome replica = TrainLikeKtcli(
          windows, "sakt", kTrainEpochs, train_seed, false, nullptr);
      tokens_per_epoch = replica.tokens_per_epoch;
      consistent = CheckAgainstKtcli(replica, save, log, report) && consistent;
      first_model = ReadFile(save);
      first_auc = ParseAuc(ReadFile(log));
    } else {
      consistent = consistent && ReadFile(save) == first_model &&
                   ParseAuc(ReadFile(log)) == first_auc;
    }
    const double zero_median = Median(zero_s);
    std::printf("round %d: train wall %.3fs cpu %.3fs, zero-epoch %.3fs\n", i,
                full.wall_s, full.cpu_s, zero_median);
    const double train_s = full.wall_s - zero_median;
    setup_s.push_back(sim.wall_s + zero_median);
    tokens_s.push_back(static_cast<double>(kTrainEpochs * tokens_per_epoch) /
                       train_s);
    epoch_us.push_back(train_s / kTrainEpochs * 1e6);
    run_us.push_back(full.wall_s * 1e6);
    rss_mb.push_back(full.peak_rss_mb);
  }
  const int64_t runs = static_cast<int64_t>(setup_s.size());
  report->Check(consistent,
                "every ktcli train run saved the same bytes and printed the "
                "same test AUC");
  report->CountOps(runs, consistent ? 0 : runs);
  report->Add("setup_s", Median(setup_s), "s", runs * kTrainZeroRuns);
  report->Add("train_tokens_s", Median(tokens_s), "1/s", runs);
  report->Add("epoch_us", Median(epoch_us), "us", runs * kTrainEpochs);
  report->Add("train_run_us", Median(run_us), "us", runs);
  report->Add("peak_rss_mb", Median(rss_mb), "MiB", runs);
  report->Add("failed_ratio", consistent ? 0.0 : 1.0, "ratio", runs);
  report->Add("tokens_per_epoch", static_cast<double>(tokens_per_epoch),
              "count", 1);
  // Every round trains the same data with the same seed, so a round slower
  // than the fastest one measured other load on the host: the gated names
  // take the fastest round, which moves much less between runs.
  report->Add("throughput_per_s", Percentile(tokens_s, 1.0), "1/s", runs);
  report->Add("latency_p50_us", Percentile(epoch_us, 0.0), "us",
              runs * kTrainEpochs);
  report->Add("latency_tail_us", Median(run_us), "us", runs);
  return 0;
}

}  // namespace perfbench

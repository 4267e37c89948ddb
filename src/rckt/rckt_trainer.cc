#include "rckt/rckt_trainer.h"

#include <cmath>

#include "ckpt/training_state.h"
#include "core/fileio.h"
#include "core/logging.h"
#include "core/timer.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "obs/runlog.h"

namespace kt {
namespace rckt {
namespace {

// Scores samples with `score_fn` (one batch of equal-length prefixes at a
// time) and accumulates AUC/ACC against the target correctness.
template <typename ScoreFn>
eval::EvalResult EvaluateSamples(const data::Dataset& dataset,
                                 const RcktTrainOptions& options,
                                 ScoreFn score_fn) {
  std::vector<PrefixSample> samples =
      MakePrefixSamples(dataset, options.eval_stride, options.min_target);
  eval::MetricAccumulator accumulator;
  for (const auto& group :
       GroupIntoBatches(std::move(samples), options.batch_size, nullptr)) {
    data::Batch batch = MakePrefixBatch(group);
    const std::vector<float> scores = score_fn(batch);
    KT_CHECK_EQ(static_cast<int64_t>(scores.size()), batch.batch_size);
    const int64_t target = batch.max_len - 1;
    for (int64_t b = 0; b < batch.batch_size; ++b) {
      const int label = batch.responses[static_cast<size_t>(
          batch.FlatIndex(b, target))];
      accumulator.AddOne(scores[static_cast<size_t>(b)], label);
    }
  }
  eval::EvalResult result;
  result.auc = accumulator.Auc();
  result.acc = accumulator.Acc();
  result.num_predictions = accumulator.count();
  return result;
}

}  // namespace

eval::EvalResult EvaluateRckt(RCKT& model, const data::Dataset& dataset,
                              const RcktTrainOptions& options) {
  return EvaluateSamples(dataset, options, [&](const data::Batch& batch) {
    return options.exact ? model.ScoreTargetsExact(batch)
                         : model.ScoreTargets(batch);
  });
}

DetailedEvalResult EvaluateRcktDetailed(RCKT& model,
                                        const data::Dataset& dataset,
                                        const RcktTrainOptions& options) {
  std::vector<PrefixSample> samples =
      MakePrefixSamples(dataset, options.eval_stride, options.min_target);
  DetailedEvalResult result;
  eval::MetricAccumulator accumulator;
  for (const auto& group :
       GroupIntoBatches(std::move(samples), options.batch_size, nullptr)) {
    data::Batch batch = MakePrefixBatch(group);
    const std::vector<float> scores = options.exact
                                          ? model.ScoreTargetsExact(batch)
                                          : model.ScoreTargets(batch);
    const std::vector<float> generator = model.GeneratorScoreTargets(batch);
    const int64_t target = batch.max_len - 1;
    for (int64_t b = 0; b < batch.batch_size; ++b) {
      const size_t flat =
          static_cast<size_t>(batch.FlatIndex(b, target));
      PredictionRecord record;
      record.sequence =
          group[static_cast<size_t>(b)].sequence - dataset.sequences.data();
      record.target = group[static_cast<size_t>(b)].target;
      record.question = batch.questions[flat];
      record.label = batch.responses[flat];
      record.score = scores[static_cast<size_t>(b)];
      record.generator_score = generator[static_cast<size_t>(b)];
      accumulator.AddOne(record.score, record.label);
      result.predictions.push_back(record);
    }
  }
  result.metrics.auc = accumulator.Auc();
  result.metrics.acc = accumulator.Acc();
  result.metrics.num_predictions = accumulator.count();
  return result;
}

eval::EvalResult EvaluateModelOnSamples(models::KTModel& model,
                                        const data::Dataset& dataset,
                                        const RcktTrainOptions& options) {
  return EvaluateSamples(dataset, options, [&](const data::Batch& batch) {
    Tensor probs = model.PredictBatch(batch);
    const int64_t target = batch.max_len - 1;
    std::vector<float> scores(static_cast<size_t>(batch.batch_size));
    for (int64_t b = 0; b < batch.batch_size; ++b) {
      scores[static_cast<size_t>(b)] =
          probs.flat(batch.FlatIndex(b, target));
    }
    return scores;
  });
}

RcktTrainResult TrainAndEvaluateRckt(RCKT& model,
                                     const data::FoldSplit& split,
                                     const RcktTrainOptions& options) {
  RcktTrainResult result;
  Rng shuffle_rng(options.seed * 31 + 7);
  std::vector<Tensor> best_state;
  ckpt::TrainerProgress progress;

  std::vector<PrefixSample> train_samples = MakePrefixSamples(
      split.train, options.train_stride, options.min_target);

  // The checkpoint freezes every mutable input of the loop — parameters,
  // Adam moments, the shuffle and dropout streams, the best-epoch snapshot,
  // and the progress counters — so a resumed run replays the remaining
  // epochs bit-identically. (train_samples is derived deterministically
  // from the split and need not be saved.)
  const bool want_ckpt =
      options.checkpoint_every > 0 && !options.checkpoint_path.empty();
  const bool want_resume = !options.resume_path.empty();
  ckpt::TrainingState snapshot;
  if (want_ckpt || want_resume) {
    snapshot.tag = model.name();
    snapshot.module = &model;
    snapshot.optimizer = model.optimizer();
    snapshot.rngs = {{"shuffle", &shuffle_rng},
                     {"dropout", model.dropout_rng()}};
    snapshot.progress = &progress;
    snapshot.best_state = &best_state;
  }
  if (want_resume && FileExists(options.resume_path)) {
    const Status status =
        ckpt::LoadTrainingState(snapshot, options.resume_path);
    KT_CHECK(status.ok()) << "cannot resume from " << options.resume_path
                          << ": " << status.ToString();
    if (options.verbose) {
      KT_LOG(INFO) << model.name() << " resumed from " << options.resume_path
                   << " at epoch " << progress.next_epoch;
    }
  }

  for (int epoch = static_cast<int>(progress.next_epoch);
       epoch < options.max_epochs; ++epoch) {
    // Also covers resuming a run that had already early-stopped.
    if (progress.epochs_since_best > 0 &&
        progress.epochs_since_best >= options.patience) {
      break;
    }
    WallTimer epoch_timer;
    const int64_t flops_before =
        obs::Enabled() ? obs::Counter::Get("gemm.flops")->Value() : 0;
    const obs::ResourceUsage usage_before = obs::RunLogActive()
                                                ? obs::CurrentResourceUsage()
                                                : obs::ResourceUsage{};
    double loss_sum = 0.0;
    int64_t batches = 0;
    int64_t tokens = 0;
    for (const auto& group : GroupIntoBatches(
             train_samples, options.batch_size, &shuffle_rng)) {
      data::Batch batch = MakePrefixBatch(group);
      loss_sum += options.exact ? model.TrainStepExact(batch)
                                : model.TrainStep(batch);
      tokens += batch.batch_size * batch.max_len;
      ++batches;
    }
    ++progress.epochs_run;

    const eval::EvalResult val =
        EvaluateRckt(model, split.validation, options);
    progress.val_auc_history.push_back(val.auc);
    progress.train_loss_history.push_back(loss_sum /
                                          std::max<int64_t>(batches, 1));
    if (options.verbose) {
      KT_LOG(INFO) << model.name() << " epoch " << epoch << " loss "
                   << loss_sum / std::max<int64_t>(batches, 1) << " val auc "
                   << val.auc;
    }
    if (val.auc > progress.best_val_auc) {
      progress.best_val_auc = val.auc;
      progress.best_epoch = epoch;
      progress.epochs_since_best = 0;
      best_state = model.StateClone();
    } else {
      ++progress.epochs_since_best;
    }
    progress.next_epoch = epoch + 1;
    double ckpt_ms = 0.0;
    if (want_ckpt && (epoch + 1) % options.checkpoint_every == 0) {
      WallTimer ckpt_timer;
      const Status status =
          ckpt::SaveTrainingState(snapshot, options.checkpoint_path);
      KT_CHECK(status.ok()) << "checkpoint to " << options.checkpoint_path
                            << " failed: " << status.ToString();
      ckpt_ms = ckpt_timer.ElapsedMs();
    }
    if (obs::RunLogActive()) {
      obs::RunLogEntry entry;
      entry.run = model.name();
      entry.epoch = epoch;
      entry.train_loss = loss_sum / std::max<int64_t>(batches, 1);
      entry.val_auc = val.auc;
      entry.val_acc = val.acc;
      entry.epoch_ms = epoch_timer.ElapsedMs();
      entry.tokens = tokens;
      entry.gemm_flops =
          obs::Counter::Get("gemm.flops")->Value() - flops_before;
      entry.ckpt_ms = ckpt_ms;
      entry.usage_at_start = usage_before;
      obs::AppendRunLogEntry(entry);
    }
  }

  result.best_val_auc = progress.best_val_auc;
  result.best_epoch = static_cast<int>(progress.best_epoch);
  result.epochs_run = static_cast<int>(progress.epochs_run);
  result.val_auc_history = progress.val_auc_history;
  result.train_loss_history = progress.train_loss_history;
  if (!best_state.empty()) model.SetState(best_state);
  result.test = EvaluateRckt(model, split.test, options);
  return result;
}

namespace {

// Mirrors eval::FoldOptions for the RCKT option type: fold f checkpoints to
// "<path>.fold<f>" so a killed k-fold run restarts at the interrupted fold.
RcktTrainOptions FoldOptions(const RcktTrainOptions& options, int fold) {
  RcktTrainOptions fold_options = options;
  const std::string suffix = ".fold" + std::to_string(fold);
  if (!options.checkpoint_path.empty()) {
    fold_options.checkpoint_path = options.checkpoint_path + suffix;
  }
  if (!options.resume_path.empty()) {
    fold_options.resume_path = options.resume_path + suffix;
  }
  return fold_options;
}

void Summarize(eval::CrossValidationResult& result) {
  double auc_sum = 0.0, acc_sum = 0.0;
  for (size_t i = 0; i < result.fold_auc.size(); ++i) {
    auc_sum += result.fold_auc[i];
    acc_sum += result.fold_acc[i];
  }
  const double n = static_cast<double>(result.fold_auc.size());
  result.auc_mean = auc_sum / n;
  result.acc_mean = acc_sum / n;
  double var = 0.0;
  for (double v : result.fold_auc)
    var += (v - result.auc_mean) * (v - result.auc_mean);
  result.auc_std = n > 1 ? std::sqrt(var / (n - 1)) : 0.0;
}

}  // namespace

eval::CrossValidationResult RunRcktCrossValidation(
    const data::Dataset& windows, int k, const RcktFactory& factory,
    const RcktTrainOptions& options, uint64_t seed,
    double validation_fraction, int folds_to_run) {
  eval::CrossValidationResult result;
  Rng fold_rng(seed);
  const std::vector<int> folds = data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), k, fold_rng);
  const int run_count = folds_to_run < 0 ? k : std::min(k, folds_to_run);
  for (int fold = 0; fold < run_count; ++fold) {
    Rng split_rng(seed * 131 + static_cast<uint64_t>(fold));
    data::FoldSplit split =
        data::MakeFold(windows, folds, fold, validation_fraction, split_rng);
    std::unique_ptr<RCKT> model = factory(split.train);
    RcktTrainResult fold_result =
        TrainAndEvaluateRckt(*model, split, FoldOptions(options, fold));
    result.fold_auc.push_back(fold_result.test.auc);
    result.fold_acc.push_back(fold_result.test.acc);
    if (options.verbose) {
      KT_LOG(INFO) << model->name() << " fold " << fold << " auc "
                   << fold_result.test.auc;
    }
  }
  Summarize(result);
  return result;
}

eval::CrossValidationResult RunBaselineCrossValidation(
    const data::Dataset& windows, int k, const eval::ModelFactory& factory,
    const eval::TrainOptions& train_options,
    const RcktTrainOptions& sample_options, uint64_t seed,
    double validation_fraction) {
  eval::CrossValidationResult result;
  Rng fold_rng(seed);
  const std::vector<int> folds = data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), k, fold_rng);
  for (int fold = 0; fold < k; ++fold) {
    Rng split_rng(seed * 131 + static_cast<uint64_t>(fold));
    data::FoldSplit split =
        data::MakeFold(windows, folds, fold, validation_fraction, split_rng);
    std::unique_ptr<models::KTModel> model = factory(split.train);
    // Train with the model's own scheme (window BCE / closed-form fit)...
    eval::TrainAndEvaluate(*model, split,
                           eval::FoldOptions(train_options, fold));
    // ...but report the test metric on the shared prefix-sample protocol.
    const eval::EvalResult test =
        EvaluateModelOnSamples(*model, split.test, sample_options);
    result.fold_auc.push_back(test.auc);
    result.fold_acc.push_back(test.acc);
    if (train_options.verbose) {
      KT_LOG(INFO) << model->name() << " fold " << fold << " sample auc "
                   << test.auc;
    }
  }
  Summarize(result);
  return result;
}

}  // namespace rckt
}  // namespace kt

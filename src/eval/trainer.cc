#include "eval/trainer.h"

#include <algorithm>
#include <cmath>

#include "ckpt/training_state.h"
#include "core/fileio.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/timer.h"
#include "data/batch.h"
#include "eval/metrics.h"
#include "models/neural_base.h"
#include "nn/module.h"
#include "obs/obs.h"
#include "obs/runlog.h"

namespace kt {
namespace eval {

EvalResult Evaluate(models::KTModel& model, const data::Dataset& dataset,
                    int64_t batch_size) {
  KT_OBS_SCOPE("eval/evaluate");
  MetricAccumulator accumulator;
  Rng rng(1);  // unused: evaluation never shuffles
  data::BatchIterator it(dataset, batch_size, rng, /*shuffle=*/false);
  if (model.ParallelEvalSafe()) {
    // Batch-level parallelism: predictions fan out across the pool, then
    // metrics accumulate in batch order on this thread — the accumulation
    // order (and so the AUC/ACC bits) never depends on the thread count.
    std::vector<data::Batch> batches;
    data::Batch next;
    while (it.Next(&next)) batches.push_back(next);
    std::vector<Tensor> probs(batches.size());
    ParallelFor(0, static_cast<int64_t>(batches.size()), /*grain=*/1,
                [&](int64_t i) {
                  probs[static_cast<size_t>(i)] =
                      model.PredictBatch(batches[static_cast<size_t>(i)]);
                });
    for (size_t i = 0; i < batches.size(); ++i) {
      accumulator.Add(probs[i], batches[i].targets,
                      models::EvalMask(batches[i]));
    }
  } else {
    data::Batch batch;
    while (it.Next(&batch)) {
      Tensor probs = model.PredictBatch(batch);
      accumulator.Add(probs, batch.targets, models::EvalMask(batch));
    }
  }
  EvalResult result;
  result.auc = accumulator.Auc();
  result.acc = accumulator.Acc();
  result.num_predictions = accumulator.count();
  return result;
}

TrainResult TrainEpochs(const std::string& name, nn::Module& module,
                        nn::Adam* optimizer, Rng* dropout_rng,
                        uint64_t shuffle_seed, const TrainOptions& options,
                        const TrainEpochFn& train_epoch,
                        const ValidateFn& validate) {
  std::vector<Tensor> best_state;
  Rng shuffle_rng(shuffle_seed);
  ckpt::TrainerProgress progress;

  // Checkpointing covers every piece of state the loop consumes: the
  // parameters, the Adam moments, the shuffle and dropout RNG streams, the
  // best-epoch snapshot, and the progress counters. Restoring all of them
  // at an epoch boundary makes the resumed run bit-identical to one that
  // was never killed. (Whatever the epoch callback derives from the split
  // alone, such as RCKT's prefix samples, need not be saved.)
  const bool want_ckpt =
      options.checkpoint_every > 0 && !options.checkpoint_path.empty();
  ckpt::TrainingState snapshot;
  snapshot.tag = name;
  snapshot.module = &module;
  snapshot.optimizer = optimizer;
  snapshot.rngs = {{"shuffle", &shuffle_rng}, {"dropout", dropout_rng}};
  snapshot.progress = &progress;
  snapshot.best_state = &best_state;
  if (!options.resume_path.empty() && FileExists(options.resume_path)) {
    const Status status =
        ckpt::LoadTrainingState(snapshot, options.resume_path);
    KT_CHECK(status.ok()) << "cannot resume from " << options.resume_path
                          << ": " << status.ToString();
    if (options.verbose) {
      KT_LOG(INFO) << name << " resumed from " << options.resume_path
                   << " at epoch " << progress.next_epoch;
    }
  }

  for (int epoch = static_cast<int>(progress.next_epoch);
       epoch < options.max_epochs; ++epoch) {
    // Also covers resuming a run that had already early-stopped: the
    // restored counter makes the loop exit before training further.
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
    const EpochTotals totals = train_epoch(shuffle_rng);
    const double mean_loss =
        totals.loss_sum / std::max<int64_t>(totals.batches, 1);
    ++progress.epochs_run;

    const EvalResult val = validate();
    progress.val_auc_history.push_back(val.auc);
    progress.train_loss_history.push_back(mean_loss);
    if (options.verbose) {
      KT_LOG(INFO) << name << " epoch " << epoch << " loss " << mean_loss
                   << " val auc " << val.auc;
    }
    if (val.auc > progress.best_val_auc) {
      progress.best_val_auc = val.auc;
      progress.best_epoch = epoch;
      progress.epochs_since_best = 0;
      best_state = module.StateClone();
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
      entry.run = name;
      entry.epoch = epoch;
      entry.train_loss = mean_loss;
      entry.val_auc = val.auc;
      entry.val_acc = val.acc;
      entry.epoch_ms = epoch_timer.ElapsedMs();
      entry.tokens = totals.tokens;
      entry.gemm_flops =
          obs::Counter::Get("gemm.flops")->Value() - flops_before;
      entry.ckpt_ms = ckpt_ms;
      entry.usage_at_start = usage_before;
      obs::AppendRunLogEntry(entry);
    }
  }

  TrainResult result;
  result.best_val_auc = progress.best_val_auc;
  result.best_epoch = static_cast<int>(progress.best_epoch);
  result.epochs_run = static_cast<int>(progress.epochs_run);
  result.val_auc_history = progress.val_auc_history;
  result.train_loss_history = progress.train_loss_history;
  if (!best_state.empty()) module.SetState(best_state);
  return result;
}

TrainResult TrainAndEvaluate(models::KTModel& model,
                             const data::FoldSplit& split,
                             const TrainOptions& options) {
  if (!model.SupportsBatchTraining()) {
    model.Fit(split.train);
    TrainResult result;
    result.test = Evaluate(model, split.test, options.batch_size);
    result.epochs_run = 1;
    result.best_epoch = 0;
    return result;
  }

  auto* neural = dynamic_cast<models::NeuralKTModel*>(&model);
  KT_CHECK(neural != nullptr)
      << model.name() << " trains in batches but is not a NeuralKTModel";
  TrainResult result = TrainEpochs(
      model.name(), *neural, neural->optimizer(), neural->dropout_rng(),
      options.seed * 977 + 3, options,
      [&](Rng& shuffle_rng) {
        EpochTotals totals;
        data::BatchIterator it(split.train, options.batch_size, shuffle_rng,
                               /*shuffle=*/true);
        data::Batch batch;
        while (it.Next(&batch)) {
          totals.loss_sum += model.TrainBatch(batch);
          totals.tokens += batch.batch_size * batch.max_len;
          ++totals.batches;
        }
        return totals;
      },
      [&] { return Evaluate(model, split.validation, options.batch_size); });
  result.test = Evaluate(model, split.test, options.batch_size);
  return result;
}

CrossValidationResult RunFolds(const data::Dataset& windows, int k,
                               uint64_t seed, double validation_fraction,
                               int folds_to_run, const FoldFn& run_fold) {
  CrossValidationResult result;
  Rng fold_rng(seed);
  const std::vector<int> folds = data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), k, fold_rng);
  const int run_count = folds_to_run < 0 ? k : std::min(k, folds_to_run);
  for (int fold = 0; fold < run_count; ++fold) {
    Rng split_rng(seed * 131 + static_cast<uint64_t>(fold));
    const data::FoldSplit split =
        data::MakeFold(windows, folds, fold, validation_fraction, split_rng);
    const EvalResult test = run_fold(split, fold);
    result.fold_auc.push_back(test.auc);
    result.fold_acc.push_back(test.acc);
  }

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
  return result;
}

}  // namespace eval
}  // namespace kt

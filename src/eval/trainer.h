// The training protocol shared by every trainer: one epoch driver with
// validation-based early stopping and best-epoch restore, masked
// evaluation, and the serial k-fold loop.
#ifndef KT_EVAL_TRAINER_H_
#define KT_EVAL_TRAINER_H_

#include <functional>
#include <memory>
#include <string>

#include "core/rng.h"
#include "data/dataset.h"
#include "models/kt_model.h"

namespace kt {
namespace nn {
class Adam;
class Module;
}  // namespace nn

namespace eval {

struct TrainOptions {
  int max_epochs = 25;
  // Early stopping: stop after this many epochs without validation-AUC
  // improvement (paper: 10).
  int patience = 10;
  int64_t batch_size = 64;
  uint64_t seed = 3;
  bool verbose = false;
  // Crash-safe checkpointing (kt::ckpt). Every `checkpoint_every` epochs the
  // full training state — parameters, Adam moments, RNG streams, best-epoch
  // snapshot, progress — is committed atomically to `checkpoint_path`
  // (0 disables). If `resume_path` names an existing checkpoint, state is
  // restored from it before training and the loop continues at the next
  // epoch; the resumed run is bit-identical to an uninterrupted one. Under
  // cross-validation both paths get a ".fold<k>" suffix per fold.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  std::string resume_path;
};

struct EvalResult {
  double auc = 0.0;
  double acc = 0.0;
  int64_t num_predictions = 0;
};

struct TrainResult {
  EvalResult test;
  double best_val_auc = 0.0;
  int best_epoch = -1;
  int epochs_run = 0;
  std::vector<double> val_auc_history;
  // Mean training loss per epoch, parallel to val_auc_history; lets tests
  // assert that a resumed run logs the same losses as a straight-through
  // run.
  std::vector<double> train_loss_history;
};

// Masked evaluation of `model` over `dataset` (positions t >= 1 of every
// window).
EvalResult Evaluate(models::KTModel& model, const data::Dataset& dataset,
                    int64_t batch_size = 64);

// What one training epoch hands back to the epoch driver.
struct EpochTotals {
  double loss_sum = 0.0;  // sum of the per-batch losses
  int64_t batches = 0;
  int64_t tokens = 0;     // sum of batch_size * max_len
};
using TrainEpochFn = std::function<EpochTotals(Rng& shuffle_rng)>;
using ValidateFn = std::function<EvalResult()>;

// The epoch loop of every trainer. Runs `train_epoch` (which draws its batch
// order from `shuffle_rng`, seeded with `shuffle_seed`) and then `validate`
// once per epoch; keeps the loss and validation-AUC histories and a snapshot
// of the best-validation weights; stops after `options.patience` epochs
// without improvement; writes the checkpoint and run-log entry; and restores
// the best weights before returning. Resuming from `options.resume_path`
// restores the weights, the Adam moments, the "shuffle" and "dropout"
// streams, the snapshot and the progress, so the resumed run is
// bit-identical to an uninterrupted one. `name` tags the checkpoint and the
// log lines. The returned `test` is left for the caller to fill.
TrainResult TrainEpochs(const std::string& name, nn::Module& module,
                        nn::Adam* optimizer, Rng* dropout_rng,
                        uint64_t shuffle_seed, const TrainOptions& options,
                        const TrainEpochFn& train_epoch,
                        const ValidateFn& validate);

// Trains with early stopping on split.validation, restores the best-epoch
// weights, then evaluates on split.test. Closed-form models
// (SupportsBatchTraining() == false) are Fit once on split.train; every
// batch-trainable model is a models::NeuralKTModel.
TrainResult TrainAndEvaluate(models::KTModel& model,
                             const data::FoldSplit& split,
                             const TrainOptions& options);

// Copy of `options` (eval::TrainOptions or a type derived from it) with
// per-fold checkpoint/resume paths ("<path>.fold<f>"), so a killed k-fold
// run restarts at the interrupted fold: completed folds fast-resume
// (restore + final test evaluation, no retraining) and the interrupted fold
// continues from its last epoch boundary.
template <typename Options>
Options FoldOptions(Options options, int fold) {
  const std::string suffix = ".fold" + std::to_string(fold);
  if (!options.checkpoint_path.empty()) options.checkpoint_path += suffix;
  if (!options.resume_path.empty()) options.resume_path += suffix;
  return options;
}

// Builds a model for one fold; receives the fold's training split so models
// that need training-set statistics (DIMKT difficulty, IKT) can use them.
using ModelFactory = std::function<std::unique_ptr<models::KTModel>(
    const data::Dataset& train)>;

struct CrossValidationResult {
  std::vector<double> fold_auc;
  std::vector<double> fold_acc;
  double auc_mean = 0.0;
  double acc_mean = 0.0;
  double auc_std = 0.0;
};

// Trains and tests one fold; returns its test metrics.
using FoldFn =
    std::function<EvalResult(const data::FoldSplit& split, int fold)>;

// The k-fold loop over `windows` (already windowed sequences). Folds come
// from KFoldAssignment(seed); fold f carves `validation_fraction` of its
// training data for validation with the split seed seed*131+f, runs
// `run_fold`, and the per-fold test metrics are summarized (mean AUC/ACC,
// sample standard deviation of the AUC). Folds run one after another.
// `folds_to_run` < 0 runs all k folds; smaller values run only the first
// folds (smoke-mode shortcut: the split stays a k-fold split).
CrossValidationResult RunFolds(const data::Dataset& windows, int k,
                               uint64_t seed, double validation_fraction,
                               int folds_to_run, const FoldFn& run_fold);

}  // namespace eval
}  // namespace kt

#endif  // KT_EVAL_TRAINER_H_

// Training / evaluation drivers over the prefix-sample protocol, for RCKT
// and (for fair comparison on identical samples) the baselines.
#ifndef KT_RCKT_RCKT_TRAINER_H_
#define KT_RCKT_RCKT_TRAINER_H_

#include <functional>
#include <memory>

#include "eval/trainer.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"

namespace kt {
namespace rckt {

// eval::TrainOptions with the prefix-sample protocol's defaults (15 epochs,
// patience 5, batches of 32) and its own knobs.
struct RcktTrainOptions : eval::TrainOptions {
  RcktTrainOptions() {
    max_epochs = 15;
    patience = 5;
    batch_size = 32;
  }
  // Target enumeration strides (see MakePrefixSamples).
  int64_t train_stride = 6;
  int64_t eval_stride = 6;
  int64_t min_target = 4;
  // Use the exact forward influence computation (Table VI "Before").
  bool exact = false;
};

// Scores every prefix sample of `dataset` with RCKT and computes AUC/ACC
// against the target responses.
eval::EvalResult EvaluateRckt(RCKT& model, const data::Dataset& dataset,
                              const RcktTrainOptions& options);

// One scored prefix sample of the detailed evaluation (`ktcli evaluate
// --json`, serving parity checks). `sequence` indexes dataset.sequences;
// (sequence, target) identifies the sample. `generator_score` is the
// generator's direct masked-target probability — the quantity the online
// predict op reproduces bit-for-bit (scripts/check_serve.sh).
struct PredictionRecord {
  int64_t sequence = 0;
  int64_t target = 0;
  int64_t question = 0;
  int label = 0;
  float score = 0.0f;            // counterfactual score (Eq. 13)
  float generator_score = 0.0f;  // direct generator probability
};

struct DetailedEvalResult {
  eval::EvalResult metrics;
  // Deterministic order (GroupIntoBatches without shuffling).
  std::vector<PredictionRecord> predictions;
};

DetailedEvalResult EvaluateRcktDetailed(RCKT& model,
                                        const data::Dataset& dataset,
                                        const RcktTrainOptions& options);

// Same samples, scored by a baseline KTModel (prediction read at the target
// position of each prefix batch).
eval::EvalResult EvaluateModelOnSamples(models::KTModel& model,
                                        const data::Dataset& dataset,
                                        const RcktTrainOptions& options);

using RcktTrainResult = eval::TrainResult;

// Counterfactual training through eval::TrainEpochs (early stopping on
// validation AUC, best-epoch weight restore), then test evaluation.
RcktTrainResult TrainAndEvaluateRckt(RCKT& model,
                                     const data::FoldSplit& split,
                                     const RcktTrainOptions& options);

// k-fold cross validation (eval::RunFolds) on the prefix-sample protocol.
// The factory builds a fresh RCKT per fold.
using RcktFactory = std::function<std::unique_ptr<RCKT>(
    const data::Dataset& train)>;
// `folds_to_run` < 0 runs all k folds; smaller values evaluate only the
// first folds (smoke-mode shortcut: the split stays a k-fold split).
eval::CrossValidationResult RunRcktCrossValidation(
    const data::Dataset& windows, int k, const RcktFactory& factory,
    const RcktTrainOptions& options, uint64_t seed = 11,
    double validation_fraction = 0.1, int folds_to_run = -1);

// Baseline cross-validation where the TEST metric uses the prefix-sample
// protocol (training stays the model's own TrainBatch over full windows).
eval::CrossValidationResult RunBaselineCrossValidation(
    const data::Dataset& windows, int k, const eval::ModelFactory& factory,
    const eval::TrainOptions& train_options,
    const RcktTrainOptions& sample_options, uint64_t seed = 11,
    double validation_fraction = 0.1);

}  // namespace rckt
}  // namespace kt

#endif  // KT_RCKT_RCKT_TRAINER_H_

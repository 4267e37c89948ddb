#include "rckt/rckt_trainer.h"

#include "core/logging.h"
#include "eval/metrics.h"

namespace kt {
namespace rckt {
namespace {

// Scores samples with `score_fn(group, batch)` (one batch of equal-length
// prefixes at a time, one score per row) and accumulates AUC/ACC against
// the target correctness.
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
    const std::vector<float> scores = score_fn(group, batch);
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
  return EvaluateSamples(
      dataset, options,
      [&](const std::vector<PrefixSample>&, const data::Batch& batch) {
        return options.exact ? model.ScoreTargetsExact(batch)
                             : model.ScoreTargets(batch);
      });
}

DetailedEvalResult EvaluateRcktDetailed(RCKT& model,
                                        const data::Dataset& dataset,
                                        const RcktTrainOptions& options) {
  DetailedEvalResult result;
  result.metrics = EvaluateSamples(
      dataset, options,
      [&](const std::vector<PrefixSample>& group, const data::Batch& batch) {
        std::vector<float> scores = options.exact
                                        ? model.ScoreTargetsExact(batch)
                                        : model.ScoreTargets(batch);
        const std::vector<float> generator =
            model.GeneratorScoreTargets(batch);
        const int64_t target = batch.max_len - 1;
        for (int64_t b = 0; b < batch.batch_size; ++b) {
          const size_t row = static_cast<size_t>(b);
          const size_t flat = static_cast<size_t>(batch.FlatIndex(b, target));
          PredictionRecord record;
          record.sequence = group[row].sequence - dataset.sequences.data();
          record.target = group[row].target;
          record.question = batch.questions[flat];
          record.label = batch.responses[flat];
          record.score = scores[row];
          record.generator_score = generator[row];
          result.predictions.push_back(record);
        }
        return scores;
      });
  return result;
}

eval::EvalResult EvaluateModelOnSamples(models::KTModel& model,
                                        const data::Dataset& dataset,
                                        const RcktTrainOptions& options) {
  return EvaluateSamples(
      dataset, options,
      [&](const std::vector<PrefixSample>&, const data::Batch& batch) {
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
  const std::vector<PrefixSample> train_samples = MakePrefixSamples(
      split.train, options.train_stride, options.min_target);
  RcktTrainResult result = eval::TrainEpochs(
      model.name(), model, model.optimizer(), model.dropout_rng(),
      options.seed * 31 + 7, options,
      [&](Rng& shuffle_rng) {
        eval::EpochTotals totals;
        for (const auto& group : GroupIntoBatches(
                 train_samples, options.batch_size, &shuffle_rng)) {
          data::Batch batch = MakePrefixBatch(group);
          totals.loss_sum += options.exact ? model.TrainStepExact(batch)
                                           : model.TrainStep(batch);
          totals.tokens += batch.batch_size * batch.max_len;
          ++totals.batches;
        }
        return totals;
      },
      [&] { return EvaluateRckt(model, split.validation, options); });
  result.test = EvaluateRckt(model, split.test, options);
  return result;
}

eval::CrossValidationResult RunRcktCrossValidation(
    const data::Dataset& windows, int k, const RcktFactory& factory,
    const RcktTrainOptions& options, uint64_t seed,
    double validation_fraction, int folds_to_run) {
  return eval::RunFolds(
      windows, k, seed, validation_fraction, folds_to_run,
      [&](const data::FoldSplit& split, int fold) {
        std::unique_ptr<RCKT> model = factory(split.train);
        const eval::EvalResult test =
            TrainAndEvaluateRckt(*model, split,
                                 eval::FoldOptions(options, fold))
                .test;
        if (options.verbose) {
          KT_LOG(INFO) << model->name() << " fold " << fold << " auc "
                       << test.auc;
        }
        return test;
      });
}

eval::CrossValidationResult RunBaselineCrossValidation(
    const data::Dataset& windows, int k, const eval::ModelFactory& factory,
    const eval::TrainOptions& train_options,
    const RcktTrainOptions& sample_options, uint64_t seed,
    double validation_fraction) {
  return eval::RunFolds(
      windows, k, seed, validation_fraction, /*folds_to_run=*/-1,
      [&](const data::FoldSplit& split, int fold) {
        std::unique_ptr<models::KTModel> model = factory(split.train);
        // Train with the model's own scheme (window BCE / closed-form
        // fit)...
        eval::TrainAndEvaluate(*model, split,
                               eval::FoldOptions(train_options, fold));
        // ...but report the test metric on the shared prefix-sample
        // protocol.
        const eval::EvalResult test =
            EvaluateModelOnSamples(*model, split.test, sample_options);
        if (train_options.verbose) {
          KT_LOG(INFO) << model->name() << " fold " << fold
                       << " sample auc " << test.auc;
        }
        return test;
      });
}

}  // namespace rckt
}  // namespace kt

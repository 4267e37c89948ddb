#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "data/simulator.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "eval/ttest.h"
#include "models/akt.h"
#include "models/dimkt.h"
#include "models/dkt.h"
#include "models/qikt.h"
#include "models/sakt.h"
#include "nn/serialize.h"
#include "rckt/rckt_trainer.h"

namespace kt {
namespace eval {
namespace {

TEST(AucTest, PerfectAndInvertedRanking) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(ComputeAuc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1}), 0.0);
}

TEST(AucTest, RandomScoresGiveHalf) {
  Rng rng(3);
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(static_cast<float>(rng.Uniform()));
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
  }
  EXPECT_NEAR(ComputeAuc(scores, labels), 0.5, 0.02);
}

TEST(AucTest, TiesGetMidranks) {
  // Two positives and two negatives all tied -> AUC 0.5 exactly.
  EXPECT_DOUBLE_EQ(ComputeAuc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1}), 0.5);
}

TEST(AucTest, DegenerateClassesReturnHalf) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.1f, 0.9f}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(ComputeAuc({}, {}), 0.5);
}

TEST(AucTest, InvariantUnderMonotoneTransform) {
  Rng rng(5);
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const float s = static_cast<float>(rng.Uniform(-3, 3));
    scores.push_back(s);
    labels.push_back(rng.Bernoulli(1.0 / (1.0 + std::exp(-s))) ? 1 : 0);
  }
  std::vector<float> transformed;
  for (float s : scores) {
    transformed.push_back(1.0f / (1.0f + std::exp(-s)));  // sigmoid
  }
  EXPECT_NEAR(ComputeAuc(scores, labels), ComputeAuc(transformed, labels),
              1e-9);
}

// Regression: a NaN score voids the strict weak ordering required by the
// std::sort comparator inside ComputeAuc (UB, silently corrupted rankings);
// an Inf score means the model diverged. Both must abort with a diagnostic
// instead of returning a garbage AUC.
TEST(AucTest, NonFiniteScoresDie) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_DEATH(ComputeAuc({0.2f, nan, 0.8f}, {0, 1, 1}), "non-finite");
  EXPECT_DEATH(ComputeAuc({0.2f, inf, 0.8f}, {0, 1, 1}), "non-finite");
  EXPECT_DEATH(ComputeAuc({-inf, 0.5f}, {0, 1}), "non-finite");
  MetricAccumulator acc;
  acc.AddOne(0.5f, 1);  // finite scores are fine
  EXPECT_DEATH(acc.AddOne(nan, 0), "non-finite");
}

// Property: AUC and ACC are functions of the (score, label) multiset, so
// any permutation of the inputs — including tie-heavy vectors, where the
// sort order between equal scores is arbitrary — must give the same value.
class MetricPermutationProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricPermutationProperty, AucAccInvariantUnderPermutation) {
  Rng rng(static_cast<uint64_t>(100 + GetParam()));
  const int n = 50 + static_cast<int>(rng.UniformInt(200));
  // Quantize scores onto a handful of levels so ties are plentiful.
  const int levels = 1 + static_cast<int>(rng.UniformInt(6));
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const float q = static_cast<float>(rng.UniformInt(levels + 1)) /
                    static_cast<float>(levels);
    scores.push_back(q);
    labels.push_back(rng.Bernoulli(0.3 + 0.4 * q) ? 1 : 0);
  }
  const double auc = ComputeAuc(scores, labels);
  const double acc = ComputeAcc(scores, labels);

  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int trial = 0; trial < 4; ++trial) {
    rng.Shuffle(order);
    std::vector<float> shuffled_scores;
    std::vector<int> shuffled_labels;
    MetricAccumulator acc_shuffled;
    for (size_t idx : order) {
      shuffled_scores.push_back(scores[idx]);
      shuffled_labels.push_back(labels[idx]);
      acc_shuffled.AddOne(scores[idx], labels[idx]);
    }
    EXPECT_DOUBLE_EQ(ComputeAuc(shuffled_scores, shuffled_labels), auc);
    EXPECT_DOUBLE_EQ(ComputeAcc(shuffled_scores, shuffled_labels), acc);
    // The accumulator is just a recorder: same multiset, same metrics.
    EXPECT_DOUBLE_EQ(acc_shuffled.Auc(), auc);
    EXPECT_DOUBLE_EQ(acc_shuffled.Acc(), acc);
  }
}

TEST_P(MetricPermutationProperty, AllTiedScoresGiveHalfAuc) {
  Rng rng(static_cast<uint64_t>(200 + GetParam()));
  std::vector<float> scores;
  std::vector<int> labels;
  int positives = 0;
  for (int i = 0; i < 64; ++i) {
    scores.push_back(0.5f);
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    positives += y;
    labels.push_back(y);
  }
  if (positives == 0 || positives == 64) return;  // degenerate, returns 0.5 too
  EXPECT_DOUBLE_EQ(ComputeAuc(scores, labels), 0.5);
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, MetricPermutationProperty,
                         ::testing::Range(0, 8));

TEST(AccTest, ThresholdBehaviour) {
  const std::vector<float> scores = {0.4f, 0.6f, 0.5f};
  const std::vector<int> labels = {0, 1, 1};
  EXPECT_DOUBLE_EQ(ComputeAcc(scores, labels), 1.0);  // 0.5 counts as positive
  EXPECT_DOUBLE_EQ(ComputeAcc(scores, labels, 0.7), 1.0 / 3.0);
}

TEST(MetricAccumulatorTest, MaskedAdd) {
  MetricAccumulator acc;
  Tensor probs({2, 2}, {0.9f, 0.1f, 0.8f, 0.3f});
  Tensor targets({2, 2}, {1, 0, 1, 1});
  Tensor mask({2, 2}, {1, 1, 1, 0});
  acc.Add(probs, targets, mask);
  EXPECT_EQ(acc.count(), 3);
  EXPECT_DOUBLE_EQ(acc.Auc(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Acc(), 1.0);
}

TEST(IncompleteBetaTest, KnownValues) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(IncompleteBeta(1.0, 1.0, 0.3), 0.3, 1e-9);
  // I_x(2, 2) = x^2 (3 - 2x).
  EXPECT_NEAR(IncompleteBeta(2.0, 2.0, 0.4), 0.4 * 0.4 * (3 - 0.8), 1e-9);
  EXPECT_DOUBLE_EQ(IncompleteBeta(3.0, 5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(IncompleteBeta(3.0, 5.0, 1.0), 1.0);
}

TEST(WelchTTestTest, IdenticalSamplesNotSignificant) {
  const std::vector<double> a = {0.5, 0.51, 0.49, 0.5};
  const auto result = WelchTTest(a, a);
  EXPECT_NEAR(result.t_statistic, 0.0, 1e-12);
  EXPECT_GT(result.p_value, 0.9);
}

TEST(WelchTTestTest, ClearlySeparatedSamplesSignificant) {
  const std::vector<double> a = {0.80, 0.81, 0.79, 0.80, 0.82};
  const std::vector<double> b = {0.70, 0.71, 0.69, 0.70, 0.72};
  const auto result = WelchTTest(a, b);
  EXPECT_GT(result.t_statistic, 5.0);
  EXPECT_LT(result.p_value, 0.01);
}

TEST(WelchTTestTest, MatchesReferenceImplementation) {
  // Hand-computed reference: a = [1..5], b = [2,4,6,8,10]:
  // mean 3 vs 6, var 2.5 vs 10, se^2 = 2.5, t = -3/sqrt(2.5) = -1.8974,
  // Welch df = 6.25/1.0625 = 5.882, two-sided p ~ 0.1075.
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {2, 4, 6, 8, 10};
  const auto result = WelchTTest(a, b);
  EXPECT_NEAR(result.t_statistic, -1.8974, 1e-3);
  EXPECT_NEAR(result.degrees_of_freedom, 5.882, 1e-2);
  EXPECT_NEAR(result.p_value, 0.1075, 2e-3);
}

TEST(TrainerTest, EarlyStoppingRestoresBestEpoch) {
  data::SimulatorConfig config;
  config.num_students = 50;
  config.num_questions = 30;
  config.num_concepts = 4;
  config.min_responses = 10;
  config.max_responses = 20;
  config.seed = 3;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();
  Rng rng(5);
  const auto folds =
      data::KFoldAssignment(static_cast<int64_t>(ds.sequences.size()), 5, rng);
  data::FoldSplit split = data::MakeFold(ds, folds, 0, 0.2, rng);

  models::NeuralConfig nc;
  nc.dim = 8;
  nc.lr = 5e-3f;
  models::DKT model(ds.num_questions, ds.num_concepts, nc);
  TrainOptions options;
  options.max_epochs = 12;
  options.patience = 3;
  options.batch_size = 16;
  TrainResult result = TrainAndEvaluate(model, split, options);

  EXPECT_GE(result.best_epoch, 0);
  EXPECT_LE(result.epochs_run, options.max_epochs);
  // The recorded best validation AUC is the max of the history.
  double max_val = 0.0;
  for (double v : result.val_auc_history) max_val = std::max(max_val, v);
  EXPECT_DOUBLE_EQ(result.best_val_auc, max_val);
  // Early stopping fired no later than best + patience.
  EXPECT_LE(result.epochs_run,
            result.best_epoch + options.patience + 1);
}

// Golden-value regressions for the epoch driver and the baselines' layers:
// fixed-seed 3-epoch runs (dropout on) that commit a checkpoint after every
// epoch. The literals were recorded from a known-good build; a change to
// the shuffle stream, the order of calls into the model, the best-epoch
// restore, the checkpoint path or the bits of any layer a baseline runs
// (embedding, recurrent, attention, linear head) fails here.
struct GoldenRun {
  uint64_t fingerprint;
  TrainResult result;
};

using BaselineFactory = std::function<std::unique_ptr<models::NeuralKTModel>(
    const data::Dataset& train, const models::NeuralConfig& config)>;

GoldenRun TrainThreeEpochs(const BaselineFactory& make) {
  data::SimulatorConfig config;
  config.num_students = 50;
  config.num_questions = 30;
  config.num_concepts = 4;
  config.min_responses = 10;
  config.max_responses = 20;
  config.seed = 3;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();
  Rng rng(5);
  const auto folds =
      data::KFoldAssignment(static_cast<int64_t>(ds.sequences.size()), 5, rng);
  data::FoldSplit split = data::MakeFold(ds, folds, 0, 0.2, rng);

  models::NeuralConfig nc;
  nc.dim = 8;
  std::unique_ptr<models::NeuralKTModel> model = make(split.train, nc);
  const std::string path = std::string(::testing::TempDir()) +
                           "/trainer_golden_" + model->name() + ".ktc";
  TrainOptions options;
  options.max_epochs = 3;
  options.batch_size = 16;
  options.checkpoint_every = 1;
  options.checkpoint_path = path;
  TrainResult result = TrainAndEvaluate(*model, split, options);
  std::remove(path.c_str());
  return {nn::FingerprintModule(*model), std::move(result)};
}

template <typename Model>
std::unique_ptr<models::NeuralKTModel> MakeBaseline(
    const data::Dataset& train, const models::NeuralConfig& config) {
  return std::make_unique<Model>(train.num_questions, train.num_concepts,
                                 config);
}

TEST(TrainerGoldenTest, DktThreeEpochsCheckpointEveryEpoch) {
  const GoldenRun run = TrainThreeEpochs(MakeBaseline<models::DKT>);
  const std::vector<double> kGoldenLoss = {
      0.6948888897895813, 0.69383305311203003, 0.69241204857826233};
  const std::vector<double> kGoldenValAuc = {
      0.54535947712418298, 0.55738562091503263, 0.57333333333333336};
  EXPECT_EQ(run.fingerprint, 0x99e46d1b70998301ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(TrainerGoldenTest, SaktThreeEpochs) {
  const GoldenRun run = TrainThreeEpochs(MakeBaseline<models::SAKT>);
  const std::vector<double> kGoldenLoss = {
      0.68283095955848694, 0.67364615201950073, 0.66750559210777283};
  const std::vector<double> kGoldenValAuc = {
      0.4716339869281046, 0.50169934640522873, 0.51450980392156864};
  EXPECT_EQ(run.fingerprint, 0x38247cc16b56df13ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(TrainerGoldenTest, AktThreeEpochs) {
  const GoldenRun run = TrainThreeEpochs(MakeBaseline<models::AKT>);
  const std::vector<double> kGoldenLoss = {
      0.67826101183891296, 0.65682554244995117, 0.64482173323631287};
  const std::vector<double> kGoldenValAuc = {
      0.5597385620915033, 0.55633986928104573, 0.57464052287581702};
  EXPECT_EQ(run.fingerprint, 0xde04cbd42467a524ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(TrainerGoldenTest, QiktThreeEpochs) {
  const GoldenRun run = TrainThreeEpochs(MakeBaseline<models::QIKT>);
  const std::vector<double> kGoldenLoss = {
      0.69241860508918762, 0.69034376740455627, 0.68813842535018921};
  const std::vector<double> kGoldenValAuc = {
      0.49647058823529411, 0.51006535947712417, 0.53019607843137251};
  EXPECT_EQ(run.fingerprint, 0x67dc5b6b94439c54ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(TrainerGoldenTest, DimktThreeEpochs) {
  const GoldenRun run = TrainThreeEpochs(
      [](const data::Dataset& train, const models::NeuralConfig& config) {
        return std::make_unique<models::DIMKT>(
            train.num_questions, train.num_concepts,
            models::ComputeDifficulty(train, train.num_questions), config);
      });
  const std::vector<double> kGoldenLoss = {
      0.69262143969535828, 0.69170433282852173, 0.68901512026786804};
  const std::vector<double> kGoldenValAuc = {
      0.43581699346405228, 0.43529411764705883, 0.44130718954248366};
  EXPECT_EQ(run.fingerprint, 0xb23ec5d2a4ddf966ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(CrossValidationTest, ProducesOneResultPerFold) {
  data::SimulatorConfig config;
  config.num_students = 40;
  config.num_questions = 25;
  config.num_concepts = 4;
  config.min_responses = 8;
  config.max_responses = 16;
  config.seed = 4;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();

  TrainOptions options;
  options.max_epochs = 2;
  options.patience = 2;
  options.batch_size = 16;
  ModelFactory factory =
      [](const data::Dataset& train) -> std::unique_ptr<models::KTModel> {
    models::NeuralConfig nc;
    nc.dim = 8;
    return std::make_unique<models::DKT>(train.num_questions,
                                         train.num_concepts, nc);
  };
  const auto cv = rckt::RunBaselineCrossValidation(
      ds, 3, factory, options, rckt::RcktTrainOptions());
  EXPECT_EQ(cv.fold_auc.size(), 3u);
  EXPECT_EQ(cv.fold_acc.size(), 3u);
  double mean = 0.0;
  for (double v : cv.fold_auc) mean += v;
  EXPECT_NEAR(cv.auc_mean, mean / 3.0, 1e-12);
  EXPECT_GE(cv.auc_std, 0.0);
}

}  // namespace
}  // namespace eval
}  // namespace kt

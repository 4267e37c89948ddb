// Unit tests for the kt::parallel pool plus the determinism contract of
// everything built on it: evaluation metrics, cross-validation, and RCKT
// response influences must be bit-identical for KT_NUM_THREADS in
// {1, 2, 8} and across repeated runs at 8 threads.
#include "core/parallel.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "data/simulator.h"
#include "eval/trainer.h"
#include "models/dkt.h"
#include "rckt/rckt_model.h"
#include "rckt/rckt_trainer.h"
#include "rckt/samples.h"

namespace kt {
namespace {

// Restores the ambient thread count when a test finishes.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int threads) : previous_(GetNumThreads()) {
    SetNumThreads(threads);
  }
  ~ThreadCountScope() { SetNumThreads(previous_); }

 private:
  int previous_;
};

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadCountScope threads(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 0, 1, [&](int64_t) { ++calls; });
  ParallelFor(5, 5, 1, [&](int64_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](int64_t) { ++calls; });  // inverted range
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadCountScope threads(8);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  ParallelFor(0, kN, 7, [&](int64_t i) { ++visits[static_cast<size_t>(i)]; });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  ThreadCountScope threads(8);
  std::vector<int> visits(10, 0);  // unsynchronized: single chunk => 1 thread
  ParallelFor(0, 10, 100, [&](int64_t i) { ++visits[static_cast<size_t>(i)]; });
  for (int value : visits) EXPECT_EQ(value, 1);
}

TEST(ParallelForTest, NonpositiveGrainIsClampedToOne) {
  ThreadCountScope threads(2);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 16, 0, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 120);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadCountScope threads(8);
  constexpr int64_t kOuter = 16, kInner = 32;
  std::vector<std::atomic<int>> cells(kOuter * kInner);
  for (auto& c : cells) c.store(0);
  ParallelFor(0, kOuter, 1, [&](int64_t o) {
    EXPECT_TRUE(InParallelRegion());
    ParallelFor(0, kInner, 1, [&](int64_t i) {
      ++cells[static_cast<size_t>(o * kInner + i)];
    });
  });
  EXPECT_FALSE(InParallelRegion());
  for (auto& c : cells) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadCountScope threads(8);
  EXPECT_THROW(ParallelFor(0, 64, 1,
                           [&](int64_t i) {
                             if (i == 13) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> calls{0};
  ParallelFor(0, 8, 1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelForTest, SetNumThreadsClampsToOne) {
  ThreadCountScope restore(GetNumThreads());
  SetNumThreads(0);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(-3);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(5);
  EXPECT_EQ(GetNumThreads(), 5);
}

// ---- Evaluate / cross-validation determinism ----

data::Dataset SmallDataset(uint64_t seed) {
  data::SimulatorConfig config;
  config.num_students = 60;
  config.num_questions = 30;
  config.num_concepts = 5;
  config.min_responses = 8;
  config.max_responses = 20;
  config.seed = seed;
  data::StudentSimulator sim(config);
  return sim.Generate();
}

// Fresh fixed-seed model each call so every thread count starts from
// identical weights.
eval::EvalResult EvaluateFreshDkt(const data::Dataset& ds) {
  models::NeuralConfig config;
  config.dim = 16;
  config.dropout = 0.0f;
  config.seed = 7;
  models::DKT model(ds.num_questions, ds.num_concepts, config);
  return eval::Evaluate(model, ds, /*batch_size=*/16);
}

TEST(ParallelDeterminismTest, EvaluateBitIdenticalAcrossThreadCounts) {
  data::Dataset ds = SmallDataset(19);
  eval::EvalResult reference;
  {
    ThreadCountScope scope(1);
    reference = EvaluateFreshDkt(ds);
  }
  EXPECT_GT(reference.num_predictions, 0);
  for (int threads : {1, 2, 8}) {
    ThreadCountScope scope(threads);
    for (int run = 0; run < 3; ++run) {
      const eval::EvalResult result = EvaluateFreshDkt(ds);
      // Exact double equality: the accumulation order is fixed by contract.
      EXPECT_EQ(result.auc, reference.auc)
          << "threads=" << threads << " run=" << run;
      EXPECT_EQ(result.acc, reference.acc)
          << "threads=" << threads << " run=" << run;
      EXPECT_EQ(result.num_predictions, reference.num_predictions);
    }
  }
}

TEST(ParallelDeterminismTest, CrossValidationBitIdenticalAcrossThreadCounts) {
  data::Dataset ds = SmallDataset(23);
  eval::TrainOptions options;
  options.max_epochs = 2;
  options.patience = 2;
  options.batch_size = 16;
  options.seed = 5;
  const eval::ModelFactory factory = [&](const data::Dataset& train) {
    models::NeuralConfig config;
    config.dim = 16;
    config.dropout = 0.0f;
    config.seed = 11;
    return std::make_unique<models::DKT>(train.num_questions,
                                         train.num_concepts, config);
  };

  const rckt::RcktTrainOptions sample_options;

  eval::CrossValidationResult reference;
  {
    ThreadCountScope scope(1);
    reference = rckt::RunBaselineCrossValidation(ds, 2, factory, options,
                                                 sample_options, 31);
  }
  for (int threads : {1, 8}) {
    ThreadCountScope scope(threads);
    const eval::CrossValidationResult result =
        rckt::RunBaselineCrossValidation(ds, 2, factory, options,
                                         sample_options, 31);
    ASSERT_EQ(result.fold_auc.size(), reference.fold_auc.size());
    for (size_t fold = 0; fold < reference.fold_auc.size(); ++fold) {
      EXPECT_EQ(result.fold_auc[fold], reference.fold_auc[fold])
          << "threads=" << threads << " fold=" << fold;
      EXPECT_EQ(result.fold_acc[fold], reference.fold_acc[fold])
          << "threads=" << threads << " fold=" << fold;
    }
    EXPECT_EQ(result.auc_mean, reference.auc_mean);
  }
}

// ---- RCKT response-influence determinism ----

TEST(ParallelDeterminismTest, ResponseInfluenceBitIdenticalAcrossThreadCounts) {
  data::Dataset ds = SmallDataset(29);
  rckt::RcktConfig config;
  config.encoder = rckt::EncoderKind::kDKT;
  config.dim = 16;
  config.num_layers = 1;
  config.dropout = 0.0f;
  config.seed = 4;

  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 7) samples.push_back({&seq, 7});
    if (samples.size() == 6) break;
  }
  const data::Batch batch = rckt::MakePrefixBatch(samples);

  std::vector<float> ref_scores, ref_exact;
  std::vector<rckt::RCKT::Explanation> ref_explanations;
  {
    ThreadCountScope scope(1);
    rckt::RCKT model(ds.num_questions, ds.num_concepts, config);
    ref_scores = model.ScoreTargets(batch);
    ref_exact = model.ScoreTargetsExact(batch);
    ref_explanations = model.ExplainTargets(batch);
  }
  ASSERT_FALSE(ref_scores.empty());

  for (int threads : {1, 2, 8}) {
    ThreadCountScope scope(threads);
    rckt::RCKT model(ds.num_questions, ds.num_concepts, config);
    for (int run = 0; run < 3; ++run) {
      const auto scores = model.ScoreTargets(batch);
      const auto exact = model.ScoreTargetsExact(batch);
      const auto explanations = model.ExplainTargets(batch);
      ASSERT_EQ(scores.size(), ref_scores.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i], ref_scores[i])
            << "threads=" << threads << " run=" << run << " row=" << i;
        EXPECT_EQ(exact[i], ref_exact[i])
            << "threads=" << threads << " run=" << run << " row=" << i;
        ASSERT_EQ(explanations[i].influence.size(),
                  ref_explanations[i].influence.size());
        for (size_t t = 0; t < explanations[i].influence.size(); ++t) {
          EXPECT_EQ(explanations[i].influence[t],
                    ref_explanations[i].influence[t])
              << "threads=" << threads << " row=" << i << " t=" << t;
        }
      }
    }
  }
}

// Training must also be scheduling-independent: identical weights after N
// steps for every thread count (the counterfactual fan-out builds the loss
// graph concurrently).
TEST(ParallelDeterminismTest, TrainStepBitIdenticalAcrossThreadCounts) {
  data::Dataset ds = SmallDataset(37);
  rckt::RcktConfig config;
  config.encoder = rckt::EncoderKind::kDKT;
  config.dim = 16;
  config.num_layers = 1;
  config.dropout = 0.0f;
  config.seed = 9;

  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 7) samples.push_back({&seq, 7});
    if (samples.size() == 8) break;
  }
  const data::Batch batch = rckt::MakePrefixBatch(samples);

  std::vector<float> reference_losses;
  std::vector<float> reference_scores;
  {
    ThreadCountScope scope(1);
    rckt::RCKT model(ds.num_questions, ds.num_concepts, config);
    for (int step = 0; step < 3; ++step) {
      reference_losses.push_back(model.TrainStep(batch));
    }
    reference_scores = model.ScoreTargets(batch);
  }
  for (int threads : {2, 8}) {
    ThreadCountScope scope(threads);
    rckt::RCKT model(ds.num_questions, ds.num_concepts, config);
    for (int step = 0; step < 3; ++step) {
      EXPECT_EQ(model.TrainStep(batch),
                reference_losses[static_cast<size_t>(step)])
          << "threads=" << threads << " step=" << step;
    }
    const auto scores = model.ScoreTargets(batch);
    for (size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], reference_scores[i]) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace kt

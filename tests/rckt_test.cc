#include <cmath>
#include <cstring>
#include <iterator>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/parallel.h"
#include "data/simulator.h"
#include "models/embedder.h"
#include "nn/losses.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "rckt/counterfactual.h"
#include "rckt/encoders.h"
#include "rckt/rckt_model.h"
#include "rckt/rckt_trainer.h"
#include "rckt/samples.h"

namespace kt {
namespace rckt {
namespace {

using models::kResponseMasked;

// ---- Counterfactual construction (paper Sec. IV-B, Table I) ----

TEST(CounterfactualTest, AssumedFactualSetsTarget) {
  // Fig. 1 example: responses to q1..q5 = {1, 0, 1, 1, 0}, target q6.
  const std::vector<int> responses = {1, 0, 1, 1, 0, 0};
  auto plus = AssumedFactualCategories(responses, 5, 1);
  EXPECT_EQ(plus, (std::vector<int>{1, 0, 1, 1, 0, 1}));
  auto minus = AssumedFactualCategories(responses, 5, 0);
  EXPECT_EQ(minus, (std::vector<int>{1, 0, 1, 1, 0, 0}));
}

TEST(CounterfactualTest, BackwardFlipToIncorrectMasksCorrect) {
  // Table I, CF(t+1)-: target flipped incorrect -> correct history masked,
  // incorrect retained.
  const std::vector<int> responses = {1, 0, 1, 1, 0, 1};
  auto cf = BackwardCounterfactualCategories(responses, 5, 0);
  EXPECT_EQ(cf, (std::vector<int>{kResponseMasked, 0, kResponseMasked,
                                  kResponseMasked, 0, 0}));
}

TEST(CounterfactualTest, BackwardFlipToCorrectMasksIncorrect) {
  // Table I, CF(t+1)+: target flipped correct -> incorrect history masked.
  const std::vector<int> responses = {1, 0, 1, 1, 0, 0};
  auto cf = BackwardCounterfactualCategories(responses, 5, 1);
  EXPECT_EQ(cf, (std::vector<int>{1, kResponseMasked, 1, 1, kResponseMasked,
                                  1}));
}

TEST(CounterfactualTest, MonotonicityDisabledKeepsHistory) {
  const std::vector<int> responses = {1, 0, 1, 1, 0, 1};
  auto cf = BackwardCounterfactualCategories(responses, 5, 0,
                                             /*apply_monotonicity=*/false);
  EXPECT_EQ(cf, (std::vector<int>{1, 0, 1, 1, 0, 0}));
}

TEST(CounterfactualTest, ForwardFlipCorrectToIncorrect) {
  // Paper Eq. 4 / Fig. 3: flipping q3 (correct) to incorrect retains the
  // incorrect responses and masks the other correct ones; the target is
  // masked because it is the prediction.
  const std::vector<int> responses = {1, 0, 1, 1, 0, 1};
  auto cf = ForwardCounterfactualCategories(responses, /*target=*/5,
                                            /*flip_index=*/2);
  EXPECT_EQ(cf, (std::vector<int>{kResponseMasked, 0, 0, kResponseMasked, 0,
                                  kResponseMasked}));
}

TEST(CounterfactualTest, ForwardFlipIncorrectToCorrect) {
  const std::vector<int> responses = {1, 0, 1, 1, 0, 1};
  auto cf = ForwardCounterfactualCategories(responses, 5, 1);
  // Flip index 1 (incorrect -> correct): correct responses retained,
  // incorrect (index 4) masked.
  EXPECT_EQ(cf, (std::vector<int>{1, 1, 1, 1, kResponseMasked,
                                  kResponseMasked}));
}

TEST(CounterfactualTest, ForwardCannotFlipTarget) {
  const std::vector<int> responses = {1, 0, 1};
  EXPECT_DEATH(ForwardCounterfactualCategories(responses, 2, 2), "KT_CHECK");
}

TEST(CounterfactualTest, MaskByCorrectness) {
  const std::vector<int> responses = {1, 0, 1, 0};
  EXPECT_EQ(MaskByCorrectness(responses, /*keep_correct=*/true),
            (std::vector<int>{1, kResponseMasked, 1, kResponseMasked}));
  EXPECT_EQ(MaskByCorrectness(responses, /*keep_correct=*/false),
            (std::vector<int>{kResponseMasked, 0, kResponseMasked, 0}));
}

// Property sweep: invariants of the backward construction over random
// sequences.
class BackwardCfProperty : public ::testing::TestWithParam<int> {};

TEST_P(BackwardCfProperty, Invariants) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int64_t n = 4 + rng.UniformInt(12);
  std::vector<int> responses(static_cast<size_t>(n));
  for (auto& r : responses) r = rng.Bernoulli(0.6) ? 1 : 0;
  const int64_t target = n - 1;
  for (int flip : {0, 1}) {
    auto cf = BackwardCounterfactualCategories(responses, target, flip);
    // Target holds the flipped value.
    EXPECT_EQ(cf[static_cast<size_t>(target)], flip);
    for (int64_t i = 0; i < target; ++i) {
      const int original = responses[static_cast<size_t>(i)];
      const int category = cf[static_cast<size_t>(i)];
      if (original == flip) {
        EXPECT_EQ(category, original) << "same-direction response retained";
      } else {
        EXPECT_EQ(category, kResponseMasked) << "opposite response masked";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, BackwardCfProperty,
                         ::testing::Range(0, 12));

// ---- Bidirectional encoders: the no-self-information property ----

class EncoderLeakTest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderLeakTest, OutputAtPositionIgnoresItsOwnInput) {
  Rng rng(31);
  auto encoder = MakeBiEncoder(GetParam(), /*dim=*/8, /*num_layers=*/2,
                               /*num_heads=*/2, /*dropout=*/0.0f, rng);
  Tensor a = Tensor::Uniform({2, 6, 8}, -1, 1, rng);
  nn::Context ctx;
  Tensor h1 = encoder->Encode(ag::Constant(a), ctx).value();

  // Perturb position 3 of row 0 only.
  Tensor a2 = a.Clone();
  for (int64_t d = 0; d < 8; ++d) a2.at({0, 3, d}) += 7.0f;
  Tensor h2 = encoder->Encode(ag::Constant(a2), ctx).value();

  // h at position 3 must be IDENTICAL (no self-leakage)...
  for (int64_t d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(h1.at({0, 3, d}), h2.at({0, 3, d}))
        << "self-information leak at dim " << d;
  }
  // ...while neighbors must change (the perturbation is visible to them).
  float diff = 0.0f;
  for (int64_t d = 0; d < 8; ++d) {
    diff += std::fabs(h1.at({0, 2, d}) - h2.at({0, 2, d}));
    diff += std::fabs(h1.at({0, 4, d}) - h2.at({0, 4, d}));
  }
  EXPECT_GT(diff, 1e-4f);
  // Other batch rows are unaffected.
  for (int64_t t = 0; t < 6; ++t) {
    for (int64_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(h1.at({1, t, d}), h2.at({1, t, d}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EncoderLeakTest,
                         ::testing::Values(EncoderKind::kDKT,
                                           EncoderKind::kSAKT,
                                           EncoderKind::kAKT),
                         [](const auto& info) {
                           return EncoderKindName(info.param);
                         });

TEST(ShiftAndAddTest, CombinesNeighborStates) {
  Tensor f({1, 3, 2}, {1, 1, 2, 2, 3, 3});
  Tensor b({1, 3, 2}, {10, 10, 20, 20, 30, 30});
  Tensor h = ShiftAndAdd(ag::Constant(f), ag::Constant(b)).value();
  // h_0 = 0 + b_1 = 20; h_1 = f_0 + b_2 = 1 + 30; h_2 = f_1 + 0 = 2.
  EXPECT_FLOAT_EQ(h.at({0, 0, 0}), 20.0f);
  EXPECT_FLOAT_EQ(h.at({0, 1, 0}), 31.0f);
  EXPECT_FLOAT_EQ(h.at({0, 2, 0}), 2.0f);
}

// ---- Samples / protocol ----

data::Dataset TinyDataset() {
  data::SimulatorConfig config;
  config.num_students = 40;
  config.num_questions = 30;
  config.num_concepts = 5;
  config.min_responses = 8;
  config.max_responses = 20;
  config.seed = 12;
  data::StudentSimulator sim(config);
  return sim.Generate();
}

TEST(SamplesTest, EnumeratesStrideAndEndpoint) {
  data::Dataset ds = TinyDataset();
  auto samples = MakePrefixSamples(ds, /*stride=*/5, /*min_target=*/4);
  ASSERT_FALSE(samples.empty());
  // Every window's endpoint is present.
  size_t endpoints = 0;
  for (const auto& s : samples) {
    EXPECT_GE(s.target, 4);
    EXPECT_LT(s.target, s.sequence->length());
    if (s.target == s.sequence->length() - 1) ++endpoints;
  }
  EXPECT_EQ(endpoints, ds.sequences.size());
}

TEST(SamplesTest, PrefixBatchCopiesPrefix) {
  data::Dataset ds = TinyDataset();
  const auto& seq = ds.sequences[0];
  PrefixSample sample{&seq, 5};
  data::Batch batch = MakePrefixBatch({sample});
  EXPECT_EQ(batch.batch_size, 1);
  EXPECT_EQ(batch.max_len, 6);
  for (int64_t t = 0; t < 6; ++t) {
    EXPECT_EQ(batch.questions[static_cast<size_t>(t)],
              seq.interactions[static_cast<size_t>(t)].question);
  }
}

TEST(SamplesTest, MixedLengthBatchDies) {
  data::Dataset ds = TinyDataset();
  PrefixSample a{&ds.sequences[0], 5};
  PrefixSample b{&ds.sequences[1], 6};
  EXPECT_DEATH(MakePrefixBatch({a, b}), "mixed-length");
}

TEST(SamplesTest, GroupingIsEqualLengthAndComplete) {
  data::Dataset ds = TinyDataset();
  auto samples = MakePrefixSamples(ds, 3, 4);
  const size_t total = samples.size();
  Rng rng(9);
  auto batches = GroupIntoBatches(std::move(samples), 8, &rng);
  size_t grouped = 0;
  for (const auto& group : batches) {
    EXPECT_LE(group.size(), 8u);
    for (const auto& s : group) EXPECT_EQ(s.target, group.front().target);
    grouped += group.size();
  }
  EXPECT_EQ(grouped, total);
}

// ---- RCKT model ----

RcktConfig SmallRckt(EncoderKind kind) {
  RcktConfig config;
  config.encoder = kind;
  config.dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.lr = 3e-3f;
  config.lambda = 0.1f;
  config.seed = 4;
  return config;
}

data::Batch SmallPrefixBatch(const data::Dataset& ds, int64_t target = 7,
                             int64_t rows = 4) {
  std::vector<PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > target) samples.push_back({&seq, target});
    if (static_cast<int64_t>(samples.size()) == rows) break;
  }
  return MakePrefixBatch(samples);
}

TEST(RcktModelTest, ScoresAreProbabilityLike) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  data::Batch batch = SmallPrefixBatch(ds);
  auto scores = model.ScoreTargets(batch);
  ASSERT_EQ(static_cast<int64_t>(scores.size()), batch.batch_size);
  for (float s : scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
  }
}

TEST(RcktModelTest, ExplanationsAreConsistentWithScores) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  data::Batch batch = SmallPrefixBatch(ds);
  auto scores = model.ScoreTargets(batch);
  auto explanations = model.ExplainTargets(batch);
  ASSERT_EQ(explanations.size(), scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const auto& ex = explanations[i];
    // Totals must equal the sum of per-position influences by class.
    float plus = 0.0f, minus = 0.0f;
    for (size_t t = 0; t + 1 < ex.influence.size(); ++t) {
      if (ex.responses[t] == 1) {
        plus += ex.influence[t];
      } else {
        minus += ex.influence[t];
      }
    }
    EXPECT_NEAR(plus, ex.total_correct, 1e-4f);
    EXPECT_NEAR(minus, ex.total_incorrect, 1e-4f);
    // sigmoid(score / t) reproduces ScoreTargets (scores are normalized by
    // the history length so AUC pools samples of different lengths fairly).
    const float t = static_cast<float>(ex.influence.size() - 1);
    const float sig = 1.0f / (1.0f + std::exp(-ex.score / t));
    EXPECT_NEAR(sig, scores[i], 1e-4f);
    EXPECT_EQ(ex.predicted_correct, scores[i] >= 0.5f);
  }
}

// Golden-value regression: influence scores for one fixed-seed simulated
// student, recorded from a known-good build. Any change to the simulator,
// initialization order, counterfactual construction, encoder math, or the
// parallel fan-out that shifts these numbers is a behavior change and must
// be deliberate (re-record the literals in that PR). The kt::parallel layer
// guarantees these values for every KT_NUM_THREADS setting.
TEST(RcktModelTest, GoldenInfluenceScoresForFixedSeed) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  const auto& seq = ds.sequences[0];
  ASSERT_EQ(seq.length(), 10);
  data::Batch batch = MakePrefixBatch({{&seq, 7}});

  const auto scores = model.ScoreTargets(batch);
  const auto exact = model.ScoreTargetsExact(batch);
  const auto ex = model.ExplainTargets(batch).front();

  constexpr float kTol = 1e-5f;
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_NEAR(scores[0], 4.99373734e-01f, kTol);
  EXPECT_NEAR(exact[0], 5.00108659e-01f, kTol);
  EXPECT_NEAR(ex.total_correct, -1.73137784e-02f, kTol);
  EXPECT_NEAR(ex.total_incorrect, 2.22563744e-04f, kTol);

  const float kGoldenInfluence[] = {
      -2.15375423e-03f, -2.94029713e-04f, -1.20043755e-03f,
      -5.32943010e-03f, 2.22563744e-04f,  -4.75311279e-03f,
      -3.58301401e-03f, 0.00000000e+00f,
  };
  ASSERT_EQ(ex.influence.size(), std::size(kGoldenInfluence));
  for (size_t t = 0; t < ex.influence.size(); ++t) {
    EXPECT_NEAR(ex.influence[t], kGoldenInfluence[t], kTol) << "t=" << t;
  }
}

TEST(RcktModelTest, TrainingReducesLoss) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  data::Batch batch = SmallPrefixBatch(ds, 7, 8);
  const float first = model.TrainStep(batch);
  float last = first;
  for (int step = 0; step < 12; ++step) last = model.TrainStep(batch);
  EXPECT_LT(last, first);
}

TEST(ValidateArchitectureTest, RejectsUnbuildableConfigs) {
  auto config = [](EncoderKind encoder, int64_t dim, int64_t heads) {
    RcktConfig c;
    c.encoder = encoder;
    c.dim = dim;
    c.num_heads = heads;
    return c;
  };
  EXPECT_TRUE(ValidateArchitecture(config(EncoderKind::kSAKT, 32, 2), 10, 4)
                  .ok());
  EXPECT_TRUE(ValidateArchitecture(config(EncoderKind::kAKT, 32, 4), 10, 4)
                  .ok());
  // DKT and GRU never read heads: an odd dim or zero heads still builds.
  EXPECT_TRUE(ValidateArchitecture(config(EncoderKind::kDKT, 33, 2), 10, 4)
                  .ok());
  EXPECT_TRUE(ValidateArchitecture(config(EncoderKind::kGRU, 33, 0), 10, 4)
                  .ok());
  for (EncoderKind attention : {EncoderKind::kSAKT, EncoderKind::kAKT}) {
    for (int64_t heads : {0, -2, 3}) {
      const Status status =
          ValidateArchitecture(config(attention, 32, heads), 10, 4);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << EncoderKindName(attention) << " heads=" << heads;
      EXPECT_NE(status.message().find("num_heads"), std::string::npos);
    }
  }
  for (EncoderKind encoder : {EncoderKind::kDKT, EncoderKind::kSAKT,
                              EncoderKind::kAKT, EncoderKind::kGRU}) {
    RcktConfig c = config(encoder, 32, 2);
    EXPECT_FALSE(ValidateArchitecture(c, 0, 4).ok());
    EXPECT_FALSE(ValidateArchitecture(c, 10, -1).ok());
    c.num_layers = 0;
    EXPECT_FALSE(ValidateArchitecture(c, 10, 4).ok());
    c = config(encoder, 0, 2);
    EXPECT_FALSE(ValidateArchitecture(c, 10, 4).ok());
  }
  EXPECT_FALSE(
      ValidateArchitecture(config(static_cast<EncoderKind>(7), 32, 2), 10, 4)
          .ok());
}

TEST(RcktModelTest, RequiresEqualLengthRows) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  // Hand-build a padded (unequal) batch.
  data::ResponseSequence a;
  a.interactions = {{1, 1, {0}}, {2, 0, {1}}, {3, 1, {0}}};
  data::ResponseSequence b;
  b.interactions = {{1, 1, {0}}, {2, 0, {1}}};
  data::Batch bad = data::MakeBatch({&a, &b});
  EXPECT_DEATH(model.ScoreTargets(bad), "equal-length");
}

TEST(RcktModelTest, ConstraintAblationChangesLoss) {
  data::Dataset ds = TinyDataset();
  RcktConfig with = SmallRckt(EncoderKind::kDKT);
  RcktConfig without = with;
  without.use_constraint = false;
  RCKT model_with(ds.num_questions, ds.num_concepts, with);
  RCKT model_without(ds.num_questions, ds.num_concepts, without);
  // Identical seeds -> identical initialization -> the loss difference is
  // exactly the constraint term (non-negative).
  data::Batch batch = SmallPrefixBatch(ds, 7, 8);
  const float loss_with = model_with.TrainStep(batch);
  const float loss_without = model_without.TrainStep(batch);
  EXPECT_GE(loss_with, loss_without - 1e-5f);
}

TEST(RcktModelTest, ExactAndApproximateScoresCorrelate) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  // Brief training so probabilities are not constant.
  data::Batch train_batch = SmallPrefixBatch(ds, 7, 8);
  for (int step = 0; step < 8; ++step) model.TrainStep(train_batch);

  data::Batch batch = SmallPrefixBatch(ds, 9, 8);
  auto approx = model.ScoreTargets(batch);
  auto exact = model.ScoreTargetsExact(batch);
  ASSERT_EQ(approx.size(), exact.size());
  // Spearman-free sanity: Pearson correlation positive (the paper argues
  // forward and backward influences are positively correlated).
  double ma = 0, me = 0;
  for (size_t i = 0; i < approx.size(); ++i) {
    ma += approx[i];
    me += exact[i];
  }
  ma /= static_cast<double>(approx.size());
  me /= static_cast<double>(approx.size());
  double cov = 0, va = 0, ve = 0;
  for (size_t i = 0; i < approx.size(); ++i) {
    cov += (approx[i] - ma) * (exact[i] - me);
    va += (approx[i] - ma) * (approx[i] - ma);
    ve += (exact[i] - me) * (exact[i] - me);
  }
  if (va > 1e-12 && ve > 1e-12) {
    EXPECT_GT(cov / std::sqrt(va * ve), 0.0);
  }
}

TEST(RcktModelTest, ConceptProbeProducesScores) {
  data::Dataset ds = TinyDataset();
  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(EncoderKind::kDKT));
  data::Batch batch = SmallPrefixBatch(ds);
  auto scores = model.ScoreConceptProbe(batch, {0, 1, 2}, /*concept_id=*/2);
  ASSERT_EQ(static_cast<int64_t>(scores.size()), batch.batch_size);
  for (float s : scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
  }
}

TEST(RcktConfigTest, Table3LookupCoversAllCells) {
  for (const char* dataset :
       {"assist09", "assist12", "slepemapy", "eedi"}) {
    for (EncoderKind kind :
         {EncoderKind::kDKT, EncoderKind::kSAKT, EncoderKind::kAKT}) {
      RcktConfig config = RcktConfigFor(dataset, kind);
      EXPECT_GT(config.lr, 0.0f);
      EXPECT_GT(config.lambda, 0.0f);
      EXPECT_GE(config.num_layers, 1);
      EXPECT_EQ(config.encoder, kind);
    }
  }
}

// ---- Stacked counterfactual fan-out vs a per-pass reference (DESIGN.md
// Sec. 9.3) ----
//
// The model runs every counterfactual fan-out as one stacked K*B-row pass.
// The reference below runs the same passes one at a time through
// GenerateProbs, each given its own stream forked in pass order. Every op on
// the generator path computes each output row from that row alone, and
// dropout draws row block k's mask from stream k, so scores and losses must
// match the reference bit for bit, with or without live dropout, at every
// thread count.

bool BitEqualFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool BitEqualTensors(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.numel()) * sizeof(float)) == 0);
}

// Flattened [B][T] category assignment built row by row from `make`.
template <typename MakeRow>
std::vector<int> BatchCategories(const data::Batch& batch, MakeRow make) {
  std::vector<int> flat(static_cast<size_t>(batch.batch_size * batch.max_len));
  for (int64_t row = 0; row < batch.batch_size; ++row) {
    std::vector<int> responses(static_cast<size_t>(batch.max_len));
    for (int64_t t = 0; t < batch.max_len; ++t) {
      responses[static_cast<size_t>(t)] =
          batch.responses[static_cast<size_t>(batch.FlatIndex(row, t))];
    }
    const std::vector<int> cats = make(responses);
    for (int64_t t = 0; t < batch.max_len; ++t) {
      flat[static_cast<size_t>(batch.FlatIndex(row, t))] =
          cats[static_cast<size_t>(t)];
    }
  }
  return flat;
}

// Forks `count` streams from ctx.rng in pass order when dropout is live.
std::vector<Rng> ForkStreams(const nn::Context& ctx, int64_t count,
                             float dropout) {
  std::vector<Rng> streams;
  if (ctx.train && ctx.rng != nullptr && dropout > 0.0f) {
    for (int64_t i = 0; i < count; ++i) streams.push_back(ctx.rng->Fork());
  }
  return streams;
}

nn::Context PassContext(const nn::Context& ctx, std::vector<Rng>& streams,
                        int64_t pass) {
  nn::Context local = ctx;
  if (!streams.empty()) local.rng = &streams[static_cast<size_t>(pass)];
  return local;
}

// K lone generator passes, the per-pass form of GenerateProbsFanOut.
std::vector<ag::Variable> PerPassFanOut(
    const RCKT& model, const data::Batch& batch,
    const std::vector<const std::vector<int>*>& sets, const nn::Context& ctx) {
  const int64_t k = static_cast<int64_t>(sets.size());
  std::vector<Rng> streams = ForkStreams(ctx, k, model.config().dropout);
  std::vector<ag::Variable> out;
  for (int64_t i = 0; i < k; ++i) {
    out.push_back(model.GenerateProbs(batch, *sets[static_cast<size_t>(i)],
                                      PassContext(ctx, streams, i), nullptr));
  }
  return out;
}

struct ReferenceInfluences {
  ag::Variable plus_per_pos, minus_per_pos, plus, minus;
  Tensor mask_correct, mask_incorrect;
  // The lone influence passes F+, CF-, F-, CF+ (approximate mode only).
  std::vector<ag::Variable> passes;
};

ReferenceInfluences FinishInfluences(const data::Batch& batch,
                                     ag::Variable plus_per_pos,
                                     ag::Variable minus_per_pos) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  ReferenceInfluences ref;
  ref.mask_correct = Tensor::Zeros(Shape{b, t});
  ref.mask_incorrect = Tensor::Zeros(Shape{b, t});
  for (int64_t row = 0; row < b; ++row) {
    for (int64_t i = 0; i < t - 1; ++i) {
      const int64_t idx = batch.FlatIndex(row, i);
      Tensor& mask = batch.responses[static_cast<size_t>(idx)] == 1
                         ? ref.mask_correct
                         : ref.mask_incorrect;
      mask.flat(idx) = 1.0f;
    }
  }
  ref.plus_per_pos = plus_per_pos;
  ref.minus_per_pos = minus_per_pos;
  ref.plus = ag::Sum(
      ag::Mul(plus_per_pos, ag::Constant(ref.mask_correct)), 1);
  ref.minus = ag::Sum(
      ag::Mul(minus_per_pos, ag::Constant(ref.mask_incorrect)), 1);
  return ref;
}

// The backward approximation (Sec. IV-C4): four lone passes.
ReferenceInfluences PerPassInfluences(const RCKT& model,
                                      const data::Batch& batch,
                                      const nn::Context& ctx) {
  const int64_t target = batch.max_len - 1;
  const bool mono = model.config().use_monotonicity;
  const auto f_plus = BatchCategories(batch, [&](const std::vector<int>& r) {
    return AssumedFactualCategories(r, target, 1);
  });
  const auto cf_minus = BatchCategories(batch, [&](const std::vector<int>& r) {
    return BackwardCounterfactualCategories(r, target, 0, mono);
  });
  const auto f_minus = BatchCategories(batch, [&](const std::vector<int>& r) {
    return AssumedFactualCategories(r, target, 0);
  });
  const auto cf_plus = BatchCategories(batch, [&](const std::vector<int>& r) {
    return BackwardCounterfactualCategories(r, target, 1, mono);
  });
  const auto p = PerPassFanOut(model, batch,
                               {&f_plus, &cf_minus, &f_minus, &cf_plus}, ctx);
  ReferenceInfluences ref =
      FinishInfluences(batch, ag::Sub(p[0], p[1]), ag::Sub(p[3], p[2]));
  ref.passes = p;
  return ref;
}

// The exact forward formulation (Eq. 4-9): a factual pass, then one lone
// pass per history position drawing from stream i of t.
ReferenceInfluences PerPassInfluencesExact(const RCKT& model,
                                           const data::Batch& batch,
                                           const nn::Context& ctx) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t target = t - 1;
  const auto cats_f = BatchCategories(batch, [&](const std::vector<int>& r) {
    return MaskedTargetCategories(r, target);
  });
  const ag::Variable p_f = model.GenerateProbs(batch, cats_f, ctx, nullptr);
  const ag::Variable pf_target =
      ag::Reshape(ag::Slice(p_f, 1, target, target + 1), Shape{b});
  std::vector<Rng> streams = ForkStreams(ctx, t, model.config().dropout);
  const ag::Variable zero = ag::Constant(Tensor::Zeros(Shape{b, 1}));
  std::vector<ag::Variable> plus_cols(static_cast<size_t>(t), zero);
  std::vector<ag::Variable> minus_cols(static_cast<size_t>(t), zero);
  for (int64_t i = 0; i < target; ++i) {
    const auto cats = BatchCategories(batch, [&](const std::vector<int>& r) {
      return ForwardCounterfactualCategories(
          r, target, i, model.config().use_monotonicity);
    });
    const ag::Variable p_cf = model.GenerateProbs(
        batch, cats, PassContext(ctx, streams, i), nullptr);
    const ag::Variable pcf_target =
        ag::Reshape(ag::Slice(p_cf, 1, target, target + 1), Shape{b});
    plus_cols[static_cast<size_t>(i)] =
        ag::Reshape(ag::Sub(pf_target, pcf_target), Shape{b, 1});
    minus_cols[static_cast<size_t>(i)] =
        ag::Reshape(ag::Sub(pcf_target, pf_target), Shape{b, 1});
  }
  return FinishInfluences(batch, ag::Concat(plus_cols, 1),
                          ag::Concat(minus_cols, 1));
}

std::vector<float> ReferenceScores(const ReferenceInfluences& ref,
                                   int64_t history_length) {
  const Tensor& plus = ref.plus.value();
  const Tensor& minus = ref.minus.value();
  const float inv_t = 1.0f / static_cast<float>(history_length);
  std::vector<float> scores;
  for (int64_t i = 0; i < plus.numel(); ++i) {
    const float diff = (plus.flat(i) - minus.flat(i)) * inv_t;
    scores.push_back(1.0f / (1.0f + std::exp(-diff)));
  }
  return scores;
}

// Where the reference loss reads the joint terms' probabilities from.
enum class JointRows {
  // Three lone passes over the factual, keep-correct and keep-incorrect
  // sequences, after the influence passes: exact mode's plan, and the
  // seven-pass form of approximate mode (equal to it at dropout 0).
  kLonePasses,
  // Approximate mode's block plan under monotonicity: a joint row that
  // equals an influence row is read from that lone pass, and each
  // student's remaining masked row goes into one more lone pass.
  kSharedWithInfluences,
};

// Rows of `if_correct` for students whose target is correct and rows of
// `if_incorrect` for the rest, as a constant [B, T].
ag::Variable RowsByTarget(const data::Batch& batch,
                          const ag::Variable& if_correct,
                          const ag::Variable& if_incorrect) {
  const int64_t target = batch.max_len - 1;
  Tensor out(Shape{batch.batch_size, batch.max_len});
  for (int64_t row = 0; row < batch.batch_size; ++row) {
    const bool correct = batch.responses[static_cast<size_t>(
                             batch.FlatIndex(row, target))] == 1;
    const Tensor& src = (correct ? if_correct : if_incorrect).value();
    for (int64_t t = 0; t <= target; ++t) {
      out.flat(batch.FlatIndex(row, t)) = src.flat(batch.FlatIndex(row, t));
    }
  }
  return ag::Constant(out);
}

// The training loss (Eq. 16-17 plus the joint terms of Eq. 27-29), with
// every generator pass run as a lone pass.
float ReferenceLoss(const RCKT& model, const data::Batch& batch,
                    const ReferenceInfluences& ref, const nn::Context& ctx,
                    JointRows joint_rows) {
  const RcktConfig& config = model.config();
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t target = t - 1;
  Tensor sign(Shape{b});
  for (int64_t row = 0; row < b; ++row) {
    sign.flat(row) =
        batch.responses[static_cast<size_t>(batch.FlatIndex(row, target))] ==
                1
            ? -1.0f
            : 1.0f;
  }
  ag::Variable scaled =
      ag::MulScalar(ag::Mul(ag::Sub(ref.minus, ref.plus), ag::Constant(sign)),
                    1.0f / (2.0f * static_cast<float>(target)));
  ag::Variable loss =
      ag::MeanAll(ag::Neg(ag::Log(ag::AddScalar(scaled, 0.5f + 1e-6f))));
  if (config.use_constraint && config.alpha > 0.0f) {
    ag::Variable zero_pp = ag::Constant(Tensor::Zeros(Shape{b, t}));
    ag::Variable violation_plus =
        ag::Mul(ag::Maximum(ag::Neg(ref.plus_per_pos), zero_pp),
                ag::Constant(ref.mask_correct));
    ag::Variable violation_minus =
        ag::Mul(ag::Maximum(ag::Neg(ref.minus_per_pos), zero_pp),
                ag::Constant(ref.mask_incorrect));
    ag::Variable constraint = ag::MulScalar(
        ag::Add(ag::SumAll(violation_plus), ag::SumAll(violation_minus)),
        1.0f / static_cast<float>(b));
    loss = ag::Add(loss, ag::MulScalar(constraint, config.alpha));
  }
  if (config.joint_training && config.lambda > 0.0f) {
    const auto factual = BatchCategories(
        batch, [](const std::vector<int>& r) { return r; });
    const auto keep_correct = BatchCategories(
        batch, [](const std::vector<int>& r) {
          return MaskByCorrectness(r, /*keep_correct=*/true);
        });
    const auto keep_incorrect = BatchCategories(
        batch, [](const std::vector<int>& r) {
          return MaskByCorrectness(r, /*keep_correct=*/false);
        });
    std::vector<ag::Variable> p;
    if (joint_rows == JointRows::kLonePasses) {
      p = PerPassFanOut(model, batch,
                        {&factual, &keep_correct, &keep_incorrect}, ctx);
    } else {
      // Factual is F+ or F- by the target; keep-correct is CF+ for a
      // correct target and keep-incorrect is CF- for an incorrect one. The
      // other masked row is the fifth pass, whose stream is forked right
      // after the four influence passes' streams.
      KT_CHECK(config.use_monotonicity);
      KT_CHECK_EQ(ref.passes.size(), 4u);
      const auto leftover = BatchCategories(
          batch, [&](const std::vector<int>& r) {
            return MaskByCorrectness(
                r, /*keep_correct=*/r[static_cast<size_t>(target)] == 0);
          });
      const ag::Variable extra =
          PerPassFanOut(model, batch, {&leftover}, ctx)[0];
      p = {RowsByTarget(batch, ref.passes[0], ref.passes[2]),
           RowsByTarget(batch, ref.passes[3], extra),
           RowsByTarget(batch, extra, ref.passes[1])};
    }
    const Tensor all = Tensor::Ones(Shape{b, t});
    ag::Variable joint = ag::Add(
        ag::Add(nn::BinaryCrossEntropyFromProbs(p[0], batch.targets, all),
                nn::BinaryCrossEntropyFromProbs(p[1], batch.targets, all)),
        nn::BinaryCrossEntropyFromProbs(p[2], batch.targets, all));
    loss = ag::Add(loss, ag::MulScalar(joint, config.lambda));
  }
  return loss.value().item();
}

// Two layers and live dropout, so every dropout site on the generator path
// draws row-block masks.
RcktConfig DropoutRckt(EncoderKind kind) {
  RcktConfig config = SmallRckt(kind);
  config.num_layers = 2;
  config.dropout = 0.2f;
  return config;
}

class StackedFanOutTest : public ::testing::TestWithParam<EncoderKind> {
 protected:
  void SetUp() override { saved_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_P(StackedFanOutTest, FanOutUnderLiveDropoutEqualsLonePasses) {
  data::Dataset ds = TinyDataset();
  data::Batch batch = SmallPrefixBatch(ds, /*target=*/11);
  RCKT model(ds.num_questions, ds.num_concepts, DropoutRckt(GetParam()));
  const int64_t target = batch.max_len - 1;

  // The four influence passes, then the positions of one exact-mode chunk.
  std::vector<std::vector<std::vector<int>>> groups(2);
  for (int dir : {1, 0}) {
    groups[0].push_back(BatchCategories(batch, [&](const std::vector<int>& r) {
      return AssumedFactualCategories(r, target, dir);
    }));
    groups[0].push_back(BatchCategories(batch, [&](const std::vector<int>& r) {
      return BackwardCounterfactualCategories(r, target, 1 - dir);
    }));
  }
  for (int64_t i = 0; i < 8; ++i) {
    groups[1].push_back(BatchCategories(batch, [&](const std::vector<int>& r) {
      return ForwardCounterfactualCategories(r, target, i);
    }));
  }
  for (const auto& group : groups) {
    std::vector<const std::vector<int>*> sets;
    for (const auto& cats : group) sets.push_back(&cats);
    Rng stacked_rng(31);
    Rng lone_rng(31);
    const auto stacked = model.GenerateProbsFanOut(
        batch, sets, nn::Context{/*train=*/true, &stacked_rng}, nullptr);
    const auto lone = PerPassFanOut(model, batch, sets,
                                    nn::Context{/*train=*/true, &lone_rng});
    ASSERT_EQ(stacked.size(), lone.size());
    for (size_t k = 0; k < sets.size(); ++k) {
      EXPECT_TRUE(BitEqualTensors(stacked[k].value(), lone[k].value()))
          << "pass " << k << " of " << sets.size() << " diverges";
    }
    // Both consumed the caller's stream identically.
    EXPECT_EQ(stacked_rng.NextU64(), lone_rng.NextU64());
  }
}

TEST_P(StackedFanOutTest, ScoresAndLossesBitIdenticalToPerPass) {
  data::Dataset ds = TinyDataset();
  // target 11: exact mode runs two chunks (8 + 3 positions).
  data::Batch batch = SmallPrefixBatch(ds, /*target=*/11);
  const int64_t history = batch.max_len - 1;

  std::vector<float> reference_scores;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    for (const RcktConfig& config :
         {SmallRckt(GetParam()), DropoutRckt(GetParam())}) {
      // Fresh, identically seeded models: the same parameters and the same
      // dropout stream, so any divergence is the fan-out path.
      RCKT model(ds.num_questions, ds.num_concepts, config);
      RCKT reference(ds.num_questions, ds.num_concepts, config);
      const nn::Context inference;

      const auto scores = model.ScoreTargets(batch);
      EXPECT_TRUE(BitEqualFloats(
          scores,
          ReferenceScores(PerPassInfluences(reference, batch, inference),
                          history)))
          << "approx scores diverge at threads=" << threads;
      EXPECT_TRUE(BitEqualFloats(
          model.ScoreTargetsExact(batch),
          ReferenceScores(PerPassInfluencesExact(reference, batch, inference),
                          history)))
          << "exact scores diverge at threads=" << threads;

      // The loss is computed before the optimizer update, so the first
      // step's loss must match the per-pass forward bit for bit, including
      // every dropout mask.
      const nn::Context train{/*train=*/true, reference.dropout_rng()};
      const float loss = model.TrainStep(batch);
      EXPECT_EQ(loss, ReferenceLoss(reference, batch,
                                    PerPassInfluences(reference, batch, train),
                                    train, JointRows::kSharedWithInfluences))
          << "train loss diverges at threads=" << threads
          << " dropout=" << config.dropout;
      // Sharing rows moves no forward bit: without dropout the loss is
      // still the one of seven separate passes.
      if (config.dropout == 0.0f) {
        EXPECT_EQ(loss,
                  ReferenceLoss(reference, batch,
                                PerPassInfluences(reference, batch, train),
                                train, JointRows::kLonePasses))
            << "train loss leaves the seven-pass reference at threads="
            << threads;
      }
      RCKT exact_model(ds.num_questions, ds.num_concepts, config);
      RCKT exact_reference(ds.num_questions, ds.num_concepts, config);
      const nn::Context exact_train{/*train=*/true,
                                    exact_reference.dropout_rng()};
      EXPECT_EQ(exact_model.TrainStepExact(batch),
                ReferenceLoss(exact_reference, batch,
                              PerPassInfluencesExact(exact_reference, batch,
                                                     exact_train),
                              exact_train, JointRows::kLonePasses))
          << "exact train loss diverges at threads=" << threads
          << " dropout=" << config.dropout;

      // The same scores at every thread count.
      if (config.dropout > 0.0f) continue;
      if (reference_scores.empty()) {
        reference_scores = scores;
      } else {
        EXPECT_TRUE(BitEqualFloats(scores, reference_scores))
            << "scores vary across thread counts at threads=" << threads;
      }
    }
  }
}

// First-step losses with live dropout, recorded from the five-block fan-out
// (four influence blocks, then one of joint rows). They fail if the order
// of mask draws ever drifts.
TEST_P(StackedFanOutTest, FirstStepLossUnderDropoutIsGolden) {
  data::Dataset ds = TinyDataset();
  data::Batch batch = SmallPrefixBatch(ds);
  RCKT model(ds.num_questions, ds.num_concepts, DropoutRckt(GetParam()));
  const float loss = model.TrainStep(batch);
  float golden = 0.0f;
  switch (GetParam()) {
    case EncoderKind::kDKT: golden = 0x1.de7156p-1f; break;
    case EncoderKind::kSAKT: golden = 0x1.6c992cp+0f; break;
    case EncoderKind::kAKT: golden = 0x1.761ce8p+0f; break;
    case EncoderKind::kGRU: golden = 0x1.de60e8p-1f; break;
  }
  EXPECT_EQ(loss, golden) << std::hexfloat << loss;
}

// The joint-term sequences ride in the influence fan-out as gathered sets:
// each gathered [B, T] must be bitwise the lone pass over its sequence, with
// and without monotonicity, and a training step must run five blocks under
// monotonicity (six without it, where no masked row is an influence row),
// while exact mode keeps its three joint blocks.
TEST_P(StackedFanOutTest, GatheredJointRowsEqualLonePasses) {
  data::Dataset ds = TinyDataset();
  data::Batch batch = SmallPrefixBatch(ds, /*target=*/11);
  const int64_t target = batch.max_len - 1;
  const auto factual =
      BatchCategories(batch, [](const std::vector<int>& r) { return r; });
  const auto keep_correct = BatchCategories(
      batch, [](const std::vector<int>& r) {
        return MaskByCorrectness(r, /*keep_correct=*/true);
      });
  const auto keep_incorrect = BatchCategories(
      batch, [](const std::vector<int>& r) {
        return MaskByCorrectness(r, /*keep_correct=*/false);
      });
  const std::vector<const std::vector<int>*> joint = {
      &factual, &keep_correct, &keep_incorrect};
  obs::Counter* const passes = obs::Counter::Get("rckt.fanout_passes");
  obs::Counter* const eval_passes =
      obs::Counter::Get("rckt.fanout_eval_passes");
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  for (const bool mono : {true, false}) {
    RcktConfig config = SmallRckt(GetParam());
    config.use_monotonicity = mono;
    RCKT model(ds.num_questions, ds.num_concepts, config);
    std::vector<std::vector<int>> influence;
    for (int dir : {1, 0}) {
      influence.push_back(
          BatchCategories(batch, [&](const std::vector<int>& r) {
            return AssumedFactualCategories(r, target, dir);
          }));
      influence.push_back(
          BatchCategories(batch, [&](const std::vector<int>& r) {
            return BackwardCounterfactualCategories(r, target, 1 - dir, mono);
          }));
    }
    const std::vector<const std::vector<int>*> blocks = {
        &influence[0], &influence[1], &influence[2], &influence[3]};

    passes->Reset();
    const auto probs =
        model.GenerateProbsFanOut(batch, blocks, nn::Context{}, nullptr, joint);
    EXPECT_EQ(passes->Value(), mono ? 5 : 6) << "mono=" << mono;
    ASSERT_EQ(probs.size(), 7u);
    for (size_t k = 0; k < probs.size(); ++k) {
      const std::vector<int>& cats = k < 4 ? *blocks[k] : *joint[k - 4];
      EXPECT_TRUE(BitEqualTensors(
          probs[k].value(),
          model.GenerateProbs(batch, cats, nn::Context{}, nullptr).value()))
          << "output " << k << " diverges from its lone pass, mono=" << mono;
    }

    passes->Reset();
    model.TrainStep(batch);
    EXPECT_EQ(passes->Value(), mono ? 5 : 6) << "mono=" << mono;
    passes->Reset();
    model.TrainStepExact(batch);
    EXPECT_EQ(passes->Value(), 3) << "mono=" << mono;
    // No-grad scoring counts apart from training.
    passes->Reset();
    eval_passes->Reset();
    model.ScoreTargets(batch);
    EXPECT_EQ(passes->Value(), 0) << "mono=" << mono;
    EXPECT_EQ(eval_passes->Value(), 4) << "mono=" << mono;
  }
  obs::SetEnabled(obs_was_enabled);
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, StackedFanOutTest,
                         ::testing::Values(EncoderKind::kDKT,
                                           EncoderKind::kSAKT,
                                           EncoderKind::kAKT,
                                           EncoderKind::kGRU),
                         [](const auto& info) {
                           switch (info.param) {
                             case EncoderKind::kDKT: return "DKT";
                             case EncoderKind::kSAKT: return "SAKT";
                             case EncoderKind::kAKT: return "AKT";
                             default: return "GRU";
                           }
                         });

// ---- End-to-end learning across all three encoders ----

class RcktLearningSuite : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(RcktLearningSuite, BeatsChanceAfterShortTraining) {
  data::SimulatorConfig config;
  config.num_students = 100;
  config.num_questions = 40;
  config.num_concepts = 5;
  config.min_responses = 15;
  config.max_responses = 35;
  config.seed = 12;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();
  Rng rng(77);
  const auto folds =
      data::KFoldAssignment(static_cast<int64_t>(ds.sequences.size()), 4, rng);
  // Fold 2 of this fixed seed; deterministic, so not flaky. (Fold-level
  // variance at this tiny scale is +-0.1 AUC; the bench suite uses larger
  // data.)
  data::FoldSplit split = data::MakeFold(ds, folds, 2, 0.15, rng);

  RCKT model(ds.num_questions, ds.num_concepts, SmallRckt(GetParam()));
  RcktTrainOptions options;
  options.max_epochs = 6;
  options.patience = 6;
  options.batch_size = 16;
  options.train_stride = 3;
  options.eval_stride = 3;
  RcktTrainResult result = TrainAndEvaluateRckt(model, split, options);
  EXPECT_GT(result.test.auc, 0.54) << model.name() << " failed to learn";
  EXPECT_GT(result.test.num_predictions, 100);
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, RcktLearningSuite,
                         ::testing::Values(EncoderKind::kDKT,
                                           EncoderKind::kSAKT,
                                           EncoderKind::kAKT),
                         [](const auto& info) {
                           return EncoderKindName(info.param);
                         });

// ---- Golden trainer output ----

// Golden-value regressions for the RCKT side of the epoch driver and the
// fold loop, recorded from a known-good build. The two-epoch runs keep
// dropout on so the dropout stream is pinned along with the shuffle stream.
struct GoldenRun {
  uint64_t fingerprint;
  RcktTrainResult result;
};

GoldenRun TrainTwoEpochs(RcktConfig config) {
  data::Dataset ds = TinyDataset();
  Rng rng(77);
  const auto folds =
      data::KFoldAssignment(static_cast<int64_t>(ds.sequences.size()), 4, rng);
  data::FoldSplit split = data::MakeFold(ds, folds, 0, 0.2, rng);

  config.dropout = 0.1f;
  RCKT model(ds.num_questions, ds.num_concepts, config);
  RcktTrainOptions options;
  options.max_epochs = 2;
  options.batch_size = 16;
  RcktTrainResult result = TrainAndEvaluateRckt(model, split, options);
  return {nn::FingerprintModule(model), std::move(result)};
}

TEST(TrainerGoldenRcktTest, SaktTwoEpochs) {
  const GoldenRun run = TrainTwoEpochs(SmallRckt(EncoderKind::kSAKT));
  const std::vector<double> kGoldenLoss = {1.0371009962899345,
                                          0.91850585171154564};
  const std::vector<double> kGoldenValAuc = {0.55769230769230771,
                                            0.48076923076923078};
  EXPECT_EQ(run.fingerprint, 0x90c016ef254e58f0ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

// AKT's encoder runs the same projection layers through monotonic
// (distance-decayed) attention.
TEST(TrainerGoldenRcktTest, AktTwoEpochs) {
  const GoldenRun run = TrainTwoEpochs(SmallRckt(EncoderKind::kAKT));
  const std::vector<double> kGoldenLoss = {1.085585402590888,
                                          0.95216526729719975};
  const std::vector<double> kGoldenValAuc = {0.61538461538461542,
                                            0.53846153846153844};
  EXPECT_EQ(run.fingerprint, 0x9105d73dab5d0a41ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

// The recurrent encoders stack two layers, so the backward runs through a
// layer fed by the dropout of another as well as one fed by the input.
TEST(TrainerGoldenRcktTest, DktTwoEpochs) {
  RcktConfig config = SmallRckt(EncoderKind::kDKT);
  config.num_layers = 2;
  const GoldenRun run = TrainTwoEpochs(config);
  const std::vector<double> kGoldenLoss = {0.91004415495055058,
                                          0.8977404492241996};
  const std::vector<double> kGoldenValAuc = {0.61538461538461542,
                                            0.69230769230769229};
  EXPECT_EQ(run.fingerprint, 0xc88bdbb0469ba1aaULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(TrainerGoldenRcktTest, GruTwoEpochs) {
  RcktConfig config = SmallRckt(EncoderKind::kGRU);
  config.num_layers = 2;
  const GoldenRun run = TrainTwoEpochs(config);
  const std::vector<double> kGoldenLoss = {0.9133773233209338,
                                          0.89632993936538696};
  const std::vector<double> kGoldenValAuc = {0.46153846153846156,
                                            0.46153846153846156};
  EXPECT_EQ(run.fingerprint, 0x96d7adaf899ed0c6ULL);
  EXPECT_EQ(run.result.train_loss_history, kGoldenLoss);
  EXPECT_EQ(run.result.val_auc_history, kGoldenValAuc);
}

TEST(TrainerGoldenRcktTest, TwoFoldCrossValidationFoldAuc) {
  data::Dataset ds = TinyDataset();
  RcktTrainOptions options;
  options.max_epochs = 2;
  options.batch_size = 16;
  const RcktFactory factory = [](const data::Dataset& train) {
    return std::make_unique<RCKT>(train.num_questions, train.num_concepts,
                                  SmallRckt(EncoderKind::kDKT));
  };
  const eval::CrossValidationResult cv = RunRcktCrossValidation(
      ds, 2, factory, options, /*seed=*/11, /*validation_fraction=*/0.2);

  const std::vector<double> kGoldenFoldAuc = {0.66727941176470584,
                                             0.39849624060150374};
  EXPECT_EQ(cv.fold_auc, kGoldenFoldAuc);
}

}  // namespace
}  // namespace rckt
}  // namespace kt

// Tests for the extension modules: GRU / RCKT-GRU encoder, dataset CSV I/O,
// and the interpretability-quantification metrics.
#include <cmath>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "data/io.h"
#include "data/simulator.h"
#include "nn/recurrent.h"
#include "rckt/interpretability.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"

namespace kt {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- GRU ----

TEST(GruTest, ShapeAndCausality) {
  Rng rng(1);
  nn::GRU gru(3, 5, rng);
  Tensor x = Tensor::Uniform({2, 4, 3}, -1, 1, rng);
  ag::Variable out = gru.Forward(ag::Constant(x));
  EXPECT_EQ(out.shape(), (Shape{2, 4, 5}));

  Tensor x2 = x.Clone();
  x2.at({0, 3, 0}) += 10.0f;
  ag::Variable out2 = gru.Forward(ag::Constant(x2));
  EXPECT_TRUE(
      out2.value().Slice(1, 0, 3).AllClose(out.value().Slice(1, 0, 3)));
  EXPECT_FALSE(
      out2.value().Slice(1, 3, 4).AllClose(out.value().Slice(1, 3, 4)));
}

TEST(GruTest, GradientsFlow) {
  Rng rng(2);
  nn::GRU gru(2, 3, rng);
  Tensor x = Tensor::Uniform({1, 5, 2}, -1, 1, rng);
  gru.ZeroGrad();
  ag::SumAll(gru.Forward(ag::Constant(x))).Backward();
  for (const auto& p : gru.Parameters()) {
    float norm = 0.0f;
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) norm += std::fabs(g.flat(i));
    EXPECT_GT(norm, 0.0f);
  }

  // The fused cell's backward against finite differences: x, an explicit
  // initial state and every parameter, in both directions.
  const Tensor weights = Tensor::Uniform({1, 5, 3}, -1, 1, rng);
  for (bool reverse : {false, true}) {
    SCOPED_TRACE(reverse ? "reverse" : "forward");
    std::vector<ag::Variable> leaves = {
        ag::Variable::Leaf(x, true),
        ag::Variable::Leaf(Tensor::Uniform({1, 3}, -1, 1, rng), true)};
    for (const ag::Variable& p : gru.Parameters()) leaves.push_back(p);
    ag::GradCheckResult result = ag::CheckGradients(
        [&](const std::vector<ag::Variable>& v) {
          const nn::GRU::State initial{v[1]};
          return ag::SumAll(ag::Mul(gru.Forward(v[0], reverse, &initial),
                                    ag::Constant(weights)));
        },
        leaves);
    EXPECT_TRUE(result.ok) << result.max_abs_error;
  }
}

TEST(GruEncoderTest, NoSelfLeakage) {
  Rng rng(3);
  auto encoder = rckt::MakeBiEncoder(rckt::EncoderKind::kGRU, 8, 2, 2, 0.0f,
                                     rng);
  Tensor a = Tensor::Uniform({1, 6, 8}, -1, 1, rng);
  nn::Context ctx;
  Tensor h1 = encoder->Encode(ag::Constant(a), ctx).value();
  Tensor a2 = a.Clone();
  for (int64_t d = 0; d < 8; ++d) a2.at({0, 3, d}) += 5.0f;
  Tensor h2 = encoder->Encode(ag::Constant(a2), ctx).value();
  for (int64_t d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(h1.at({0, 3, d}), h2.at({0, 3, d}));
  }
}

TEST(GruEncoderTest, RcktGruTrains) {
  data::SimulatorConfig config;
  config.num_students = 30;
  config.num_questions = 25;
  config.num_concepts = 4;
  config.min_responses = 10;
  config.max_responses = 18;
  config.seed = 4;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();

  rckt::RcktConfig rc;
  rc.encoder = rckt::EncoderKind::kGRU;
  rc.dim = 16;
  rckt::RCKT model(ds.num_questions, ds.num_concepts, rc);
  EXPECT_EQ(model.name(), "RCKT-GRU");

  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 8) samples.push_back({&seq, 8});
    if (samples.size() == 12) break;
  }
  data::Batch batch = rckt::MakePrefixBatch(samples);
  const float first = model.TrainStep(batch);
  float last = first;
  for (int step = 0; step < 10; ++step) last = model.TrainStep(batch);
  EXPECT_LT(last, first);
}

// ---- Dataset CSV I/O ----

TEST(DataIoTest, RoundTrip) {
  data::SimulatorConfig config;
  config.num_students = 12;
  config.num_questions = 20;
  config.num_concepts = 5;
  config.avg_concepts_per_question = 1.3;
  config.min_responses = 5;
  config.max_responses = 12;
  config.seed = 5;
  data::StudentSimulator sim(config);
  data::Dataset original = sim.Generate();

  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(data::SaveCsv(original, path).ok());
  auto loaded = data::LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const data::Dataset& ds = loaded.value();
  ASSERT_EQ(ds.sequences.size(), original.sequences.size());
  EXPECT_EQ(ds.TotalResponses(), original.TotalResponses());
  for (size_t s = 0; s < ds.sequences.size(); ++s) {
    ASSERT_EQ(ds.sequences[s].length(), original.sequences[s].length());
    for (int64_t t = 0; t < ds.sequences[s].length(); ++t) {
      const auto& a = ds.sequences[s].interactions[static_cast<size_t>(t)];
      const auto& b =
          original.sequences[s].interactions[static_cast<size_t>(t)];
      EXPECT_EQ(a.question, b.question);
      EXPECT_EQ(a.response, b.response);
      EXPECT_EQ(a.concepts, b.concepts);
    }
  }
  std::remove(path.c_str());
}

TEST(DataIoTest, MissingFile) {
  auto result = data::LoadCsv(TempPath("nope.csv"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DataIoTest, RejectsBadHeaderAndMalformedLines) {
  const std::string path = TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_EQ(data::LoadCsv(path).status().code(),
            StatusCode::kInvalidArgument);

  {
    std::ofstream out(path);
    out << "student_id,question_id,correct,concept_ids\n";
    out << "1,2,5,0\n";  // correctness out of range
  }
  auto result = data::LoadCsv(path);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos);

  {
    std::ofstream out(path);
    out << "student_id,question_id,correct,concept_ids\n";
    out << "1,2,1,\n";  // empty concepts
  }
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(DataIoTest, InterleavedStudentsGroupCorrectly) {
  const std::string path = TempPath("interleaved.csv");
  {
    std::ofstream out(path);
    out << "student_id,question_id,correct,concept_ids\n";
    out << "7,1,1,0\n";
    out << "9,2,0,1\n";
    out << "7,3,0,0;1\n";
  }
  auto result = data::LoadCsv(path);
  ASSERT_TRUE(result.ok());
  const data::Dataset& ds = result.value();
  ASSERT_EQ(ds.sequences.size(), 2u);
  EXPECT_EQ(ds.sequences[0].student, 7);
  EXPECT_EQ(ds.sequences[0].length(), 2);
  EXPECT_EQ(ds.sequences[0].interactions[1].concepts,
            (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(ds.num_questions, 4);
  EXPECT_EQ(ds.num_concepts, 2);
  std::remove(path.c_str());
}

// ---- Interpretability metrics ----

TEST(InterpretabilityTest, PearsonCorrelation) {
  EXPECT_NEAR(rckt::PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(rckt::PearsonCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_NEAR(rckt::PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0, 1e-12);
}

TEST(InterpretabilityTest, DeletionFidelityRuns) {
  data::SimulatorConfig config;
  config.num_students = 40;
  config.num_questions = 30;
  config.num_concepts = 5;
  config.min_responses = 12;
  config.max_responses = 20;
  config.seed = 6;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();

  rckt::RcktConfig rc;
  rc.dim = 16;
  rckt::RCKT model(ds.num_questions, ds.num_concepts, rc);
  // Brief training so influences are non-degenerate.
  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 10) samples.push_back({&seq, 10});
    if (samples.size() == 24) break;
  }
  data::Batch batch = rckt::MakePrefixBatch(samples);
  for (int step = 0; step < 8; ++step) model.TrainStep(batch);

  Rng rng(9);
  const auto result =
      rckt::DeletionFidelity(model, ds, /*k=*/3, /*max_samples=*/12, rng);
  EXPECT_GT(result.num_samples, 0);
  EXPECT_GE(result.targeted_shift, 0.0);
  EXPECT_GE(result.random_shift, 0.0);
  // Targeted deletion should move the score at least as much as random
  // (allow slack for an undertrained model).
  EXPECT_GT(result.fidelity_ratio, 0.5);
}

TEST(InterpretabilityTest, ProficiencyFidelityRuns) {
  data::SimulatorConfig config;
  config.num_students = 30;
  config.num_questions = 30;
  config.num_concepts = 4;
  config.min_responses = 12;
  config.max_responses = 20;
  config.seed = 7;
  data::StudentSimulator sim(config);
  data::Dataset ds = sim.Generate();

  rckt::RcktConfig rc;
  rc.dim = 16;
  rckt::RCKT model(ds.num_questions, ds.num_concepts, rc);
  const auto result =
      rckt::ProficiencyFidelity(model, sim, /*num_students=*/3,
                                /*sequence_length=*/15);
  EXPECT_EQ(result.num_students, 3);
  EXPECT_GE(result.mean_correlation, -1.0);
  EXPECT_LE(result.mean_correlation, 1.0);
}

}  // namespace
}  // namespace kt

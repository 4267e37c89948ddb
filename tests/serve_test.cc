// Tests for the kt::serve online inference subsystem.
//
// The load-bearing contract: incremental per-step serving is BIT-IDENTICAL
// to the offline full-sequence forward — for every encoder, at every thread
// count, through eviction/replay, and through micro-batch coalescing.
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "core/parallel.h"
#include "data/simulator.h"
#include "nn/recurrent.h"
#include "nn/serialize.h"
#include "rckt/encoders.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/session.h"

namespace kt {
namespace serve {
namespace {

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

data::Dataset TinyDataset() {
  data::SimulatorConfig config;
  config.num_students = 12;
  config.num_questions = 25;
  config.num_concepts = 4;
  config.min_responses = 10;
  config.max_responses = 18;
  config.seed = 9;
  data::StudentSimulator sim(config);
  return sim.Generate();
}

rckt::RcktConfig SmallConfig(rckt::EncoderKind kind) {
  rckt::RcktConfig config;
  config.encoder = kind;
  config.dim = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.seed = 4;
  return config;
}

// ---- JSON wire format ----

TEST(ServeJsonTest, ParsesScalarsArraysAndEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"op":"predict","n":-3,"p":0.25,"ok":true,"x":null,)"
      R"("tags":[1,2,3],"s":"a\"b\nA"})",
      &v, &error))
      << error;
  EXPECT_EQ(v.GetString("op", ""), "predict");
  EXPECT_EQ(v.GetInt("n", 0), -3);
  EXPECT_DOUBLE_EQ(v.GetNumber("p", 0.0), 0.25);
  EXPECT_TRUE(v.GetBool("ok", false));
  ASSERT_NE(v.Find("x"), nullptr);
  EXPECT_TRUE(v.Find("x")->IsNull());
  ASSERT_NE(v.Find("tags"), nullptr);
  ASSERT_EQ(v.Find("tags")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("tags")->array[1].number, 2.0);
  EXPECT_EQ(v.GetString("s", ""), "a\"b\nA");
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":", &v, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &v, &error));
  EXPECT_FALSE(ParseJson("{'a':1}", &v, &error));
  EXPECT_FALSE(ParseJson("", &v, &error));
  // Depth bound: deeply nested arrays must error out, not overflow.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep, &v, &error));
  // Numbers outside the RFC 8259 grammar or beyond a finite double, and
  // raw control bytes inside a string. strtod alone reads 0x10 as 16.
  for (const char* text :
       {R"({"question":0x10})", R"({"p":Infinity})", R"({"p":NaN})",
        R"({"p":1e999})", R"({"p":+1})", R"({"p":01})", R"({"p":.5})",
        "{\"s\":\"a\tb\"}"}) {
    EXPECT_FALSE(ParseJson(text, &v, &error)) << text;
  }
}

TEST(ServeJsonTest, ParsesRfcNumbersAndMarksIntegralSpelling) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"i":7,"neg":-0,"f":7.0,"e":7e0,"big":1E+2,"small":-0.5e-3})", &v,
      &error))
      << error;
  EXPECT_TRUE(v.Find("i")->number_is_integral);
  EXPECT_TRUE(v.Find("neg")->number_is_integral);
  EXPECT_FALSE(v.Find("f")->number_is_integral);
  EXPECT_FALSE(v.Find("e")->number_is_integral);
  EXPECT_DOUBLE_EQ(v.GetNumber("big", 0.0), 100.0);
  EXPECT_DOUBLE_EQ(v.GetNumber("small", 0.0), -0.0005);
  EXPECT_EQ(v.GetInt("f", -1), 7);
}

TEST(ServeJsonTest, GetIntRejectsOutOfRangeNumbers) {
  // Doubles outside int64 range (or NaN via division) must fall back
  // instead of hitting an undefined double->int64 cast.
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"huge":1e300,"neg":-1e300,"edge":9.3e18,"ok":42,"frac":2.75})", &v,
      &error))
      << error;
  EXPECT_EQ(v.GetInt("huge", -7), -7);
  EXPECT_EQ(v.GetInt("neg", -7), -7);
  EXPECT_EQ(v.GetInt("edge", -7), -7);  // just past INT64_MAX
  EXPECT_EQ(v.GetInt("ok", -7), 42);
  EXPECT_EQ(v.GetInt("frac", -7), 2);  // fractional values truncate
  int64_t out = 0;
  EXPECT_FALSE(v.Find("huge")->ToInt(&out));
  EXPECT_TRUE(v.Find("ok")->ToInt(&out));
  EXPECT_EQ(out, 42);
}

TEST(ServeJsonTest, WriterRoundTripsFloatBits) {
  // %.9g must reproduce the exact float through parse.
  const float values[] = {0.1f, 1.0f / 3.0f, 1e-30f, 123456.78f, 0.0f};
  for (float f : values) {
    JsonWriter w;
    w.BeginObject();
    w.Key("p").Float(f);
    w.EndObject();
    JsonValue v;
    std::string error;
    ASSERT_TRUE(ParseJson(w.str(), &v, &error)) << error;
    EXPECT_EQ(Bits(static_cast<float>(v.GetNumber("p", -1.0))), Bits(f))
        << "float " << f << " did not round-trip through " << w.str();
  }
}

// JSON has no NaN or infinity: the writer emits null for them, so the line
// still parses, and finite neighbours keep their exact bytes.
TEST(ServeJsonTest, WriterEmitsNullForNonFinite) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Float(std::numeric_limits<float>::quiet_NaN());
  w.Key("inf").Float(std::numeric_limits<float>::infinity());
  w.Key("ninf").Double(-std::numeric_limits<double>::infinity());
  w.Key("dnan").Double(std::numeric_limits<double>::quiet_NaN());
  w.Key("p").Float(0.25f);
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"nan":null,"inf":null,"ninf":null,"dnan":null,"p":0.25})");
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &v, &error)) << error;
  for (const char* key : {"nan", "inf", "ninf", "dnan"}) {
    ASSERT_NE(v.Find(key), nullptr) << key;
    EXPECT_EQ(v.Find(key)->kind, JsonValue::Kind::kNull) << key;
  }
  EXPECT_EQ(v.GetNumber("p", -1.0), 0.25);
}

TEST(ServeJsonTest, WriterPlacesCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").BeginArray();
  w.Int(2);
  w.String("x");
  w.EndArray();
  w.Key("c").Bool(false);
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[2,"x"],"c":false})");
}

// ---- Request parsing ----

TEST(ServeProtocolTest, ParsesPredictAndUpdate) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"op":"update","student":"s1","question":7,"response":1,)"
      R"("concepts":[2,5]})",
      &v, &error));
  ServeRequest request;
  ASSERT_TRUE(ParseServeRequest(v, &request, &error)) << error;
  EXPECT_EQ(request.op, Op::kUpdate);
  EXPECT_EQ(request.student, "s1");
  EXPECT_EQ(request.question, 7);
  EXPECT_EQ(request.response, 1);
  ASSERT_TRUE(request.has_concepts);
  EXPECT_EQ(request.concepts, (std::vector<int64_t>{2, 5}));
}

TEST(ServeProtocolTest, RejectsBadRequests) {
  std::string error;
  JsonValue v;
  ServeRequest request;
  ASSERT_TRUE(ParseJson(R"({"op":"fly","student":"s"})", &v, &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  // update without a response field.
  ASSERT_TRUE(
      ParseJson(R"({"op":"update","student":"s","question":1})", &v, &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  // Numbers beyond int64 range must parse-fail (response) or degrade to
  // the rejected fallback (question, concepts) — never cast undefined.
  ASSERT_TRUE(ParseJson(
      R"({"op":"update","student":"s","question":1,"response":1e300})", &v,
      &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  ASSERT_TRUE(ParseJson(
      R"({"op":"predict","student":"s","question":1e300})", &v, &error));
  ASSERT_TRUE(ParseServeRequest(v, &request, &error)) << error;
  EXPECT_EQ(request.question, -1);  // fallback -> engine rejects the id
  ASSERT_TRUE(ParseJson(
      R"({"op":"predict","student":"s","question":1,"concepts":[1e300]})", &v,
      &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
}

// Ids and counts must be spelled as integers: 7.9 is refused, not served
// as question 7. The integral spelling of the same request is the control.
TEST(ServeProtocolTest, RefusesFractionalIds) {
  std::string error;
  JsonValue v;
  ServeRequest request;
  ASSERT_TRUE(ParseJson(R"({"op":"predict","student":"amy","question":7})",
                        &v, &error));
  ASSERT_TRUE(ParseServeRequest(v, &request, &error)) << error;
  EXPECT_EQ(request.question, 7);
  ASSERT_TRUE(ParseJson(R"({"op":"predict","student":"amy","question":7.9})",
                        &v, &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  EXPECT_NE(error.find("question"), std::string::npos) << error;
  for (const char* text :
       {R"({"op":"predict","student":"s","question":7.0})",
        R"({"op":"predict","student":"s","question":7e0})",
        R"({"op":"update","student":"s","question":1,"response":1.0})",
        R"({"op":"predict","student":"s","question":1,"response":0.5})",
        R"({"op":"predict","student":"s","question":1,"concepts":[2.5]})",
        R"({"op":"recourse","student":"s","question":1,"k":2.5})",
        R"({"op":"recourse","student":"s","question":1,"top":3.5})",
        R"({"op":"recourse","student":"s","question":1,)"
        R"("insert_questions":[4,5.5]})"}) {
    ASSERT_TRUE(ParseJson(text, &v, &error)) << text;
    EXPECT_FALSE(ParseServeRequest(v, &request, &error)) << text;
  }
}

TEST(ServeProtocolTest, ParsesAndRejectsRecourseFields) {
  std::string error;
  JsonValue v;
  ServeRequest request;
  // Absent fields keep their defaults.
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3})", &v, &error));
  ASSERT_TRUE(ParseServeRequest(v, &request, &error)) << error;
  EXPECT_EQ(request.op, Op::kRecourse);
  EXPECT_EQ(request.k, 2);
  EXPECT_EQ(request.top, 3);
  EXPECT_EQ(request.target_p, -1.0);
  EXPECT_FALSE(request.has_insert_questions);
  EXPECT_FALSE(request.brute);
  // Full field set.
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,"k":3,"top":5,)"
      R"("target_p":0.75,"insert_questions":[1,4],"brute":true})",
      &v, &error));
  ASSERT_TRUE(ParseServeRequest(v, &request, &error)) << error;
  EXPECT_EQ(request.k, 3);
  EXPECT_EQ(request.top, 5);
  EXPECT_DOUBLE_EQ(request.target_p, 0.75);
  ASSERT_TRUE(request.has_insert_questions);
  EXPECT_EQ(request.insert_questions, (std::vector<int64_t>{1, 4}));
  EXPECT_TRUE(request.brute);
  // Duplicate keys: the first wins (JsonValue::Find contract), so a
  // spoofed second "k" cannot smuggle a different budget past validation.
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,"k":1,"k":4})", &v,
      &error));
  ASSERT_TRUE(ParseServeRequest(v, &request, &error)) << error;
  EXPECT_EQ(request.k, 1);
  // Overflowing numbers are hard parse errors, never silent fallbacks.
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,"k":1e300})", &v,
      &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,"top":1e300})", &v,
      &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  // Type confusion on every recourse field.
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,"target_p":"high"})", &v,
      &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,"insert_questions":7})",
      &v, &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
  ASSERT_TRUE(ParseJson(
      R"({"op":"recourse","student":"s","question":3,)"
      R"("insert_questions":[1,1e300]})",
      &v, &error));
  EXPECT_FALSE(ParseServeRequest(v, &request, &error));
}

// ---- Chunked recurrent forward (the initial/final state plumbing) ----

TEST(ServeStreamTest, LstmChunkedForwardBitIdentical) {
  Rng rng(3);
  nn::LSTM lstm(8, 8, rng);
  const Tensor x = Tensor::Uniform({2, 10, 8}, -1.0f, 1.0f, rng);
  ag::NoGradGuard guard;
  const Tensor full = lstm.Forward(ag::Constant(x)).value();

  // Same sequence in two chunks, threading the state across the split.
  Tensor a = Tensor::Zeros({2, 4, 8});
  Tensor b = Tensor::Zeros({2, 6, 8});
  for (int64_t row = 0; row < 2; ++row) {
    const float* src = x.data() + row * 10 * 8;
    std::memcpy(a.data() + row * 4 * 8, src, 4 * 8 * sizeof(float));
    std::memcpy(b.data() + row * 6 * 8, src + 4 * 8, 6 * 8 * sizeof(float));
  }
  nn::LSTM::State mid;
  const Tensor out_a =
      lstm.Forward(ag::Constant(a), false, nullptr, &mid).value();
  const Tensor out_b = lstm.Forward(ag::Constant(b), false, &mid).value();
  for (int64_t row = 0; row < 2; ++row) {
    EXPECT_EQ(std::memcmp(full.data() + row * 10 * 8,
                          out_a.data() + row * 4 * 8, 4 * 8 * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(full.data() + row * 10 * 8 + 4 * 8,
                          out_b.data() + row * 6 * 8, 6 * 8 * sizeof(float)),
              0);
  }
}

TEST(ServeStreamTest, GruChunkedForwardBitIdentical) {
  Rng rng(5);
  nn::GRU gru(8, 8, rng);
  const Tensor x = Tensor::Uniform({1, 9, 8}, -1.0f, 1.0f, rng);
  ag::NoGradGuard guard;
  const Tensor full = gru.Forward(ag::Constant(x)).value();

  Tensor a = Tensor::Zeros({1, 3, 8});
  Tensor b = Tensor::Zeros({1, 6, 8});
  std::memcpy(a.data(), x.data(), 3 * 8 * sizeof(float));
  std::memcpy(b.data(), x.data() + 3 * 8, 6 * 8 * sizeof(float));
  nn::GRU::State mid;
  const Tensor out_a =
      gru.Forward(ag::Constant(a), false, nullptr, &mid).value();
  const Tensor out_b = gru.Forward(ag::Constant(b), false, &mid).value();
  EXPECT_EQ(std::memcmp(full.data(), out_a.data(), 3 * 8 * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(full.data() + 3 * 8, out_b.data(),
                        6 * 8 * sizeof(float)),
            0);
}

// ---- Forward-stream runs, per encoder ----
//
// StepForwardRun is the one way to advance streams; these tests hold it to
// its contract across run splits and stream groupings, comparing both the
// output rows and the serialized stream state.

class ForwardStreamSuite
    : public ::testing::TestWithParam<rckt::EncoderKind> {};

// Runs one stream over `a` ([1, S, d]).
Tensor RunOne(const rckt::BiEncoder& encoder, rckt::ForwardStreamState& state,
              const Tensor& a) {
  return encoder.StepForwardRun({&state}, a);
}

// Rows [begin, end) of a [1, T, d] sequence, as [1, end - begin, d].
Tensor Rows(const Tensor& a_seq, int64_t begin, int64_t end) {
  return a_seq.Slice(1, begin, end);
}

std::string StreamBytes(const rckt::BiEncoder& encoder,
                        const rckt::ForwardStreamState& state) {
  std::string bytes;
  encoder.SerializeStream(state, &bytes);
  return bytes;
}

// One-row runs from a fresh stream equal one whole-history run (a replay).
TEST_P(ForwardStreamSuite, StepByStepMatchesReplay) {
  Rng rng(7);
  auto encoder = rckt::MakeBiEncoder(GetParam(), /*dim=*/16, /*num_layers=*/2,
                                     /*num_heads=*/2, /*dropout_p=*/0.0f,
                                     rng);
  const int64_t T = 12, d = 16;
  const Tensor a_seq = Tensor::Uniform({1, T, d}, -1.0f, 1.0f, rng);

  auto replay_state = encoder->NewForwardStream();
  const Tensor replayed = RunOne(*encoder, *replay_state, a_seq);
  ASSERT_EQ(replayed.numel(), T * d);

  auto step_state = encoder->NewForwardStream();
  for (int64_t t = 0; t < T; ++t) {
    const Tensor f = RunOne(*encoder, *step_state, Rows(a_seq, t, t + 1));
    ASSERT_EQ(f.numel(), d);
    EXPECT_TRUE(BitEqual(f, Rows(replayed, t, t + 1)))
        << "step " << t << " diverges from replay";
  }
  EXPECT_EQ(StreamBytes(*encoder, *step_state),
            StreamBytes(*encoder, *replay_state));
  EXPECT_GT(encoder->StateBytes(T), 0u);
}

// One run over k streams x 1 row equals k one-stream runs.
TEST_P(ForwardStreamSuite, StepForwardManyMatchesSingles) {
  Rng rng(11);
  auto encoder = rckt::MakeBiEncoder(GetParam(), 16, 2, 2, 0.0f, rng);
  const int64_t k = 5, d = 16;
  std::vector<std::unique_ptr<rckt::ForwardStreamState>> batched, singles;
  std::vector<rckt::ForwardStreamState*> batched_ptrs;
  Rng data_rng(13);
  for (int64_t i = 0; i < k; ++i) {
    batched.push_back(encoder->NewForwardStream());
    singles.push_back(encoder->NewForwardStream());
    batched_ptrs.push_back(batched.back().get());
    const Tensor warm = Tensor::Uniform({1, 1, d}, -1.0f, 1.0f, data_rng);
    RunOne(*encoder, *batched.back(), warm);
    RunOne(*encoder, *singles.back(), warm);
  }
  const Tensor rows = Tensor::Uniform({k, 1, d}, -1.0f, 1.0f, data_rng);
  const Tensor many = encoder->StepForwardRun(batched_ptrs, rows);
  ASSERT_EQ(many.numel(), k * d);
  for (int64_t i = 0; i < k; ++i) {
    const size_t s = static_cast<size_t>(i);
    const Tensor single =
        RunOne(*encoder, *singles[s], rows.Slice(0, i, i + 1));
    EXPECT_TRUE(BitEqual(many.Slice(0, i, i + 1), single))
        << "stream " << i << " diverges under stacked stepping";
    EXPECT_EQ(StreamBytes(*encoder, *batched[s]),
              StreamBytes(*encoder, *singles[s]))
        << "stream " << i << " state diverges under stacked stepping";
  }
}

// One run over k streams x S rows equals per-stream runs, with the streams
// at different history lengths.
TEST_P(ForwardStreamSuite, StackedRunsMatchPerStreamRuns) {
  Rng rng(23);
  auto encoder = rckt::MakeBiEncoder(GetParam(), 16, 2, 2, 0.0f, rng);
  const int64_t k = 3, run = 4, d = 16;
  std::vector<std::unique_ptr<rckt::ForwardStreamState>> stacked, singles;
  std::vector<rckt::ForwardStreamState*> stacked_ptrs;
  for (int64_t i = 0; i < k; ++i) {
    stacked.push_back(encoder->NewForwardStream());
    singles.push_back(encoder->NewForwardStream());
    stacked_ptrs.push_back(stacked.back().get());
    const Tensor warm = Tensor::Uniform({1, i + 1, d}, -1.0f, 1.0f, rng);
    RunOne(*encoder, *stacked.back(), warm);
    RunOne(*encoder, *singles.back(), warm);
  }
  const Tensor a = Tensor::Uniform({k, run, d}, -1.0f, 1.0f, rng);
  const Tensor out = encoder->StepForwardRun(stacked_ptrs, a);
  ASSERT_EQ(out.numel(), k * run * d);
  for (int64_t i = 0; i < k; ++i) {
    const size_t s = static_cast<size_t>(i);
    const Tensor single = RunOne(*encoder, *singles[s], a.Slice(0, i, i + 1));
    EXPECT_TRUE(BitEqual(out.Slice(0, i, i + 1), single))
        << "stream " << i << " diverges in a stacked run";
    EXPECT_EQ(StreamBytes(*encoder, *stacked[s]),
              StreamBytes(*encoder, *singles[s]))
        << "stream " << i << " state diverges in a stacked run";
  }
}

// A warm stream advanced by one bulk run equals one advanced row by row.
TEST_P(ForwardStreamSuite, StepForwardRunMatchesSingleSteps) {
  Rng rng(17);
  auto encoder = rckt::MakeBiEncoder(GetParam(), 16, 2, 2, 0.0f, rng);
  const int64_t warm = 6, run = 5, d = 16;
  const Tensor a_seq = Tensor::Uniform({1, warm + run, d}, -1.0f, 1.0f, rng);
  auto bulk = encoder->NewForwardStream();
  auto single = encoder->NewForwardStream();
  RunOne(*encoder, *bulk, Rows(a_seq, 0, warm));
  RunOne(*encoder, *single, Rows(a_seq, 0, warm));
  const Tensor bulk_out =
      RunOne(*encoder, *bulk, Rows(a_seq, warm, warm + run));
  ASSERT_EQ(bulk_out.numel(), run * d);
  for (int64_t t = 0; t < run; ++t) {
    const Tensor f =
        RunOne(*encoder, *single, Rows(a_seq, warm + t, warm + t + 1));
    EXPECT_TRUE(BitEqual(f, Rows(bulk_out, t, t + 1)))
        << "bulk run row " << t << " diverges from single steps";
  }
  // The bulk run must leave the stream in the stepped state too.
  const Tensor probe = Tensor::Uniform({1, 1, d}, -1.0f, 1.0f, rng);
  EXPECT_TRUE(BitEqual(RunOne(*encoder, *bulk, probe),
                       RunOne(*encoder, *single, probe)))
      << "stream state diverges after a bulk run";
}

TEST_P(ForwardStreamSuite, CloneStreamPrefixRewindsAttentionStreams) {
  Rng rng(19);
  auto encoder = rckt::MakeBiEncoder(GetParam(), 16, 2, 2, 0.0f, rng);
  const int64_t T = 10, prefix = 4, d = 16;
  const Tensor a_seq = Tensor::Uniform({1, T, d}, -1.0f, 1.0f, rng);
  auto full = encoder->NewForwardStream();
  RunOne(*encoder, *full, a_seq);
  auto clone = encoder->CloneStreamPrefix(*full, prefix);
  const bool is_attention = GetParam() == rckt::EncoderKind::kSAKT ||
                            GetParam() == rckt::EncoderKind::kAKT;
  if (!is_attention) {
    // Recurrent streams fold history into O(1) rows and cannot rewind...
    EXPECT_EQ(clone, nullptr);
    // ...but copy at full length: the copy steps like the source, and
    // stepping it leaves the source as it was.
    auto copy = encoder->CloneStreamPrefix(*full, T);
    ASSERT_NE(copy, nullptr);
    const std::string source_bytes = StreamBytes(*encoder, *full);
    const Tensor next = Tensor::Uniform({1, 2, d}, -1.0f, 1.0f, rng);
    const Tensor copy_out = RunOne(*encoder, *copy, next);
    EXPECT_EQ(StreamBytes(*encoder, *full), source_bytes)
        << "stepping the copy mutated the source stream";
    EXPECT_TRUE(BitEqual(copy_out, RunOne(*encoder, *full, next)))
        << "full-length copy diverges from its source";
    EXPECT_EQ(StreamBytes(*encoder, *copy), StreamBytes(*encoder, *full));
    return;
  }
  ASSERT_NE(clone, nullptr);
  // The clone must behave exactly like a stream that only ever saw the
  // prefix: stepping the next row reproduces the prefix-only stream's bits.
  auto prefix_only = encoder->NewForwardStream();
  for (int64_t t = 0; t < prefix; ++t) {
    RunOne(*encoder, *prefix_only, Rows(a_seq, t, t + 1));
  }
  const Tensor next = Tensor::Uniform({1, 1, d}, -1.0f, 1.0f, rng);
  EXPECT_TRUE(BitEqual(RunOne(*encoder, *clone, next),
                       RunOne(*encoder, *prefix_only, next)))
      << "prefix clone diverges from a prefix-only stream";
  // Cloning never disturbs the donor stream.
  const Tensor probe = Tensor::Uniform({1, 1, d}, -1.0f, 1.0f, rng);
  auto untouched = encoder->NewForwardStream();
  RunOne(*encoder, *untouched, a_seq);
  EXPECT_TRUE(BitEqual(RunOne(*encoder, *full, probe),
                       RunOne(*encoder, *untouched, probe)))
      << "CloneStreamPrefix mutated the source stream";
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, ForwardStreamSuite,
                         ::testing::Values(rckt::EncoderKind::kDKT,
                                           rckt::EncoderKind::kGRU,
                                           rckt::EncoderKind::kSAKT,
                                           rckt::EncoderKind::kAKT),
                         [](const auto& info) {
                           return std::string(
                               rckt::EncoderKindName(info.param));
                         });

// ---- Online predict == offline generator score, at 1/2/8 threads ----

class EngineParitySuite : public ::testing::TestWithParam<rckt::EncoderKind> {
 protected:
  void SetUp() override { saved_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_P(EngineParitySuite, PredictMatchesOfflineGeneratorBitwise) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(GetParam()));
  const auto& seq = ds.sequences[0];

  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    EngineOptions options;
    options.num_questions = ds.num_questions;
    options.num_concepts = ds.num_concepts;
    InferenceEngine engine(model, options);

    for (int64_t t = 0; t < seq.length(); ++t) {
      const auto& it = seq.interactions[static_cast<size_t>(t)];
      if (t >= 2) {
        ServeRequest predict;
        predict.op = Op::kPredict;
        predict.student = "s0";
        predict.question = it.question;
        predict.has_concepts = true;
        predict.concepts = it.concepts;
        const ServeResponse online = engine.Execute(predict);
        ASSERT_TRUE(online.ok) << online.error;

        data::Batch batch = rckt::MakePrefixBatch({{&seq, t}});
        const float offline = model.GeneratorScoreTargets(batch)[0];
        EXPECT_EQ(Bits(online.p), Bits(offline))
            << "target " << t << " threads " << threads << ": online "
            << online.p << " vs offline " << offline;
      }
      ServeRequest update;
      update.op = Op::kUpdate;
      update.student = "s0";
      update.question = it.question;
      update.response = it.response;
      update.has_concepts = true;
      update.concepts = it.concepts;
      ASSERT_TRUE(engine.Execute(update).ok);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EngineParitySuite,
                         ::testing::Values(rckt::EncoderKind::kDKT,
                                           rckt::EncoderKind::kGRU,
                                           rckt::EncoderKind::kSAKT,
                                           rckt::EncoderKind::kAKT),
                         [](const auto& info) {
                           return std::string(
                               rckt::EncoderKindName(info.param));
                         });

// ---- Session store: LRU accounting and eviction ----

TEST(SessionStoreTest, EvictsColdStateButKeepsHistory) {
  SessionStore store(/*budget_bytes=*/100);
  Session& a = store.GetOrCreate("a");
  a.history.push_back({1, 1, {0}});
  store.SetStateBytes(a, 60);
  Session& b = store.GetOrCreate("b");
  store.SetStateBytes(b, 60);  // over budget -> a (older) evicted

  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.total_state_bytes(), 60u);
  Session* a_again = store.Find("a");
  ASSERT_NE(a_again, nullptr);
  EXPECT_EQ(a_again->stream, nullptr);
  EXPECT_EQ(a_again->state_bytes, 0u);
  EXPECT_EQ(a_again->history.size(), 1u);  // history survives eviction
}

TEST(SessionStoreTest, HistoryBytesCountAgainstBudget) {
  // Regression: history bytes used to be invisible to the budget, so a
  // store full of long histories never evicted anything. With history
  // charged, the same state load must now push cold neural state out.
  SessionStore store(/*budget_bytes=*/100);
  Session& a = store.GetOrCreate("a");
  store.SetHistoryBytes(a, 60);
  store.SetStateBytes(a, 30);
  EXPECT_EQ(store.evictions(), 0u);  // 60 + 30 fits
  Session& b = store.GetOrCreate("b");
  store.SetStateBytes(b, 30);  // 60 + 30 + 30 > 100 -> evict a's state
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(a.state_bytes, 0u);
  // The history itself is never reclaimed — only charged.
  EXPECT_EQ(a.history_bytes, 60u);
  EXPECT_EQ(store.total_state_bytes(), 30u);
  EXPECT_EQ(store.total_history_bytes(), 60u);
  // A store over budget on history alone settles at zero neural state
  // without spinning. The session being accounted keeps its own state
  // (same protection SetStateBytes grants); the next accounting pass on
  // any other session reclaims it.
  store.SetHistoryBytes(b, 200);
  EXPECT_EQ(b.history_bytes, 200u);
  EXPECT_EQ(b.state_bytes, 30u);
  store.SetStateBytes(a, 0);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_EQ(store.total_state_bytes(), 0u);
  // Erase returns the history bytes to the pool.
  store.Erase("b");
  EXPECT_EQ(store.total_history_bytes(), 60u);
  store.Erase("a");
  EXPECT_EQ(store.total_history_bytes(), 0u);
}

TEST(SessionStoreTest, NeverEvictsTheSessionBeingAccounted) {
  SessionStore store(/*budget_bytes=*/10);
  Session& a = store.GetOrCreate("a");
  store.SetStateBytes(a, 50);  // alone over budget: kept anyway
  EXPECT_EQ(store.total_state_bytes(), 50u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(SessionStoreTest, PinScopeBlocksEvictionUntilRelease) {
  SessionStore store(/*budget_bytes=*/100);
  Session& a = store.GetOrCreate("a");
  Session& b = store.GetOrCreate("b");
  {
    SessionStore::PinScope pins(store);
    pins.Pin(a);
    pins.Pin(b);
    store.SetStateBytes(a, 60);
    // Accounting b pushes the store over budget, but a is pinned: its
    // state must survive until the scope ends.
    store.SetStateBytes(b, 60);
    EXPECT_EQ(store.evictions(), 0u);
    EXPECT_EQ(store.total_state_bytes(), 120u);
    EXPECT_EQ(a.state_bytes, 60u);
  }
  // Releasing the pins settles the budget: the colder session (a) loses
  // its neural state.
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.total_state_bytes(), 60u);
  EXPECT_EQ(a.state_bytes, 0u);
  EXPECT_EQ(b.state_bytes, 60u);
}

TEST(EngineEvictionTest, ReplayAfterEvictionIsBitIdentical) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kSAKT));
  // A budget of one byte evicts every session as soon as another is touched.
  EngineOptions options;
  options.session_budget_bytes = 1;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);

  auto update = [&](const std::string& student, int64_t t) {
    const auto& it = ds.sequences[0].interactions[static_cast<size_t>(t)];
    ServeRequest request;
    request.op = Op::kUpdate;
    request.student = student;
    request.question = it.question;
    request.response = it.response;
    request.has_concepts = true;
    request.concepts = it.concepts;
    ASSERT_TRUE(engine.Execute(request).ok);
  };
  auto predict = [&](const std::string& student, int64_t t) -> float {
    const auto& it = ds.sequences[0].interactions[static_cast<size_t>(t)];
    ServeRequest request;
    request.op = Op::kPredict;
    request.student = student;
    request.question = it.question;
    request.has_concepts = true;
    request.concepts = it.concepts;
    const ServeResponse response = engine.Execute(request);
    EXPECT_TRUE(response.ok) << response.error;
    return response.p;
  };

  for (int64_t t = 0; t < 6; ++t) update("a", t);
  const float before = predict("a", 6);
  // Touching b evicts a's KV cache (budget is 1 byte).
  for (int64_t t = 0; t < 3; ++t) update("b", t);
  EXPECT_GT(engine.sessions().evictions(), 0u);
  ASSERT_NE(engine.sessions().size(), 0u);
  // a's next predict replays its kept history into a fresh stream: the
  // rebuilt state must reproduce the prediction bit for bit.
  const float after = predict("a", 6);
  EXPECT_EQ(Bits(before), Bits(after));
}

// ---- Cold start: 0-4 interactions of history (scenario-fleet regression) ----

TEST(EngineColdStartTest, ShortHistoriesPredictBitIdenticalToOffline) {
  // The cold_start scenario floods the server with sessions holding 0-4
  // interactions: the empty-history predict and the shortest replays.
  // Every one of them must match the offline generator bit for bit.
  // GeneratorScoreTargets refuses empty histories, so for h=0 the offline
  // reference is the generator forward computed from the model's own
  // layers with the zero encoder boundary at position 0.
  data::Dataset ds = TinyDataset();
  const auto& seq = ds.sequences[0];
  for (rckt::EncoderKind kind :
       {rckt::EncoderKind::kDKT, rckt::EncoderKind::kGRU,
        rckt::EncoderKind::kSAKT, rckt::EncoderKind::kAKT}) {
    const rckt::RcktConfig config = SmallConfig(kind);
    rckt::RCKT model(ds.num_questions, ds.num_concepts, config);
    EngineOptions options;
    options.num_questions = ds.num_questions;
    options.num_concepts = ds.num_concepts;
    InferenceEngine engine(model, options);
    for (int64_t h = 0; h <= 4; ++h) {
      const auto& it = seq.interactions[static_cast<size_t>(h)];
      ServeRequest predict;
      predict.op = Op::kPredict;
      predict.student = "cold";
      predict.question = it.question;
      predict.has_concepts = true;
      predict.concepts = it.concepts;
      const ServeResponse online = engine.Execute(predict);
      ASSERT_TRUE(online.ok) << online.error;

      float offline = 0.0f;
      if (h == 0) {
        ag::NoGradGuard no_grad;
        const ag::Variable e =
            model.embedder().QuestionEmbedRows({it.question}, {it.concepts});
        const int64_t dim = config.dim;
        Tensor x(Shape{1, 2 * dim});
        std::memset(x.data(), 0, static_cast<size_t>(dim) * sizeof(float));
        std::memcpy(x.data() + dim, e.value().data(),
                    static_cast<size_t>(dim) * sizeof(float));
        const ag::Variable mid =
            model.mlp_hidden().Forward(ag::Constant(x), ag::Act::kRelu);
        offline =
            model.mlp_out().Forward(mid, ag::Act::kSigmoid).value().flat(0);
      } else {
        data::Batch batch = rckt::MakePrefixBatch({{&seq, h}});
        offline = model.GeneratorScoreTargets(batch)[0];
      }
      EXPECT_EQ(Bits(online.p), Bits(offline))
          << rckt::EncoderKindName(kind) << " history " << h << ": online "
          << online.p << " vs offline " << offline;

      ServeRequest update = predict;
      update.op = Op::kUpdate;
      update.response = it.response;
      ASSERT_TRUE(engine.Execute(update).ok);
    }
  }
}

TEST(EngineColdStartTest, ShortHistoriesSurviveEvictionAndReplay) {
  // Cold-start floods churn the LRU session store; a 1-byte budget forces
  // an eviction on every session touch. Each short session's rebuilt
  // state must reproduce its prediction bit for bit — including the
  // zero-history session, whose replay is empty.
  data::Dataset ds = TinyDataset();
  const auto& seq = ds.sequences[0];
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kSAKT));
  EngineOptions options;
  options.session_budget_bytes = 1;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);

  auto predict_at = [&](const std::string& student, int64_t t) -> float {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    ServeRequest request;
    request.op = Op::kPredict;
    request.student = student;
    request.question = it.question;
    request.has_concepts = true;
    request.concepts = it.concepts;
    const ServeResponse response = engine.Execute(request);
    EXPECT_TRUE(response.ok) << response.error;
    return response.p;
  };

  // Five students with 0, 1, 2, 3, 4 interactions of history.
  std::vector<float> before(5);
  for (int64_t h = 0; h <= 4; ++h) {
    const std::string student = "cold" + std::to_string(h);
    for (int64_t t = 0; t < h; ++t) {
      const auto& it = seq.interactions[static_cast<size_t>(t)];
      ServeRequest update;
      update.op = Op::kUpdate;
      update.student = student;
      update.question = it.question;
      update.response = it.response;
      update.has_concepts = true;
      update.concepts = it.concepts;
      ASSERT_TRUE(engine.Execute(update).ok);
    }
    before[static_cast<size_t>(h)] = predict_at(student, h);
  }
  EXPECT_GT(engine.sessions().evictions(), 0u);
  // Re-predicting replays each session's kept history into fresh state.
  for (int64_t h = 0; h <= 4; ++h) {
    const std::string student = "cold" + std::to_string(h);
    EXPECT_EQ(Bits(predict_at(student, h)),
              Bits(before[static_cast<size_t>(h)]))
        << "history " << h;
  }
}

// ---- Batched execution == sequential execution ----

TEST(EngineBatchTest, ExecuteBatchMatchesSequentialExecution) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine batched_engine(model, options);
  InferenceEngine sequential_engine(model, options);

  // Mixed stream: coalescable predict runs, update runs with a repeated
  // student (forcing a run break), and interleaved ops.
  std::vector<ServeRequest> requests;
  auto add = [&](Op op, const std::string& student, int64_t t) {
    const auto& it = ds.sequences[1].interactions[static_cast<size_t>(t)];
    ServeRequest request;
    request.op = op;
    request.student = student;
    request.question = it.question;
    request.response = it.response;
    request.has_concepts = true;
    request.concepts = it.concepts;
    requests.push_back(request);
  };
  for (int64_t t = 0; t < 4; ++t) {
    add(Op::kUpdate, "x", t);
    add(Op::kUpdate, "y", t);
    add(Op::kUpdate, "x", t);  // same student twice in one run
  }
  add(Op::kPredict, "x", 4);
  add(Op::kPredict, "y", 4);
  add(Op::kPredict, "z", 4);  // empty history predict
  add(Op::kUpdate, "z", 0);
  add(Op::kPredict, "z", 1);

  const auto batched = batched_engine.ExecuteBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServeResponse expected = sequential_engine.Execute(requests[i]);
    EXPECT_EQ(batched[i].ok, expected.ok) << "request " << i;
    EXPECT_EQ(Bits(batched[i].p), Bits(expected.p)) << "request " << i;
    EXPECT_EQ(batched[i].history, expected.history) << "request " << i;
  }
}

TEST(EngineBatchTest, TightBudgetBatchedUpdatesMatchSequential) {
  // Regression test: a coalesced update run collects raw stream pointers
  // for several sessions before stepping them together. Under a tight
  // budget, EnsureStream for a later student used to evict an earlier
  // student's stream mid-run (use-after-free in StepForwardRun). The
  // one-byte budget plus SAKT's KV caches makes every accounting call an
  // eviction candidate.
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kSAKT));
  EngineOptions tight;
  tight.session_budget_bytes = 1;
  tight.num_questions = ds.num_questions;
  tight.num_concepts = ds.num_concepts;
  InferenceEngine batched_engine(model, tight);
  EngineOptions roomy = tight;
  roomy.session_budget_bytes = 0;  // unlimited
  InferenceEngine sequential_engine(model, roomy);

  const std::vector<std::string> students = {"a", "b", "c"};
  auto make = [&](Op op, const std::string& student, int64_t t) {
    const auto& it = ds.sequences[2].interactions[static_cast<size_t>(t)];
    ServeRequest request;
    request.op = op;
    request.student = student;
    request.question = it.question;
    request.response = it.response;
    request.has_concepts = true;
    request.concepts = it.concepts;
    return request;
  };
  // Several rounds so every later round replays evicted histories inside
  // the coalesced run before the batched encoder step.
  for (int64_t t = 0; t < 5; ++t) {
    std::vector<ServeRequest> round;
    for (const std::string& s : students) round.push_back(make(Op::kUpdate, s, t));
    for (const std::string& s : students) round.push_back(make(Op::kPredict, s, 5));
    const auto batched = batched_engine.ExecuteBatch(round);
    ASSERT_EQ(batched.size(), round.size());
    for (size_t i = 0; i < round.size(); ++i) {
      const ServeResponse expected = sequential_engine.Execute(round[i]);
      ASSERT_TRUE(batched[i].ok) << batched[i].error;
      ASSERT_TRUE(expected.ok) << expected.error;
      EXPECT_EQ(Bits(batched[i].p), Bits(expected.p))
          << "round " << t << " request " << i;
      EXPECT_EQ(batched[i].history, expected.history)
          << "round " << t << " request " << i;
    }
  }
  // The tight budget must be enforced once the runs complete (everything
  // evictable got evicted), while histories survive for replay.
  EXPECT_GT(batched_engine.sessions().evictions(), 0u);
}

// ---- Engine validation and explain ----

TEST(EngineTest, RejectsOutOfRangeIdsWithoutAborting) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);

  ServeRequest request;
  request.op = Op::kPredict;
  request.student = "s";
  request.question = ds.num_questions + 5;  // out of range
  ServeResponse response = engine.Execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());

  request.question = 0;
  request.has_concepts = true;
  request.concepts = {ds.num_concepts + 1};
  response = engine.Execute(request);
  EXPECT_FALSE(response.ok);

  request.student.clear();
  request.concepts.clear();
  response = engine.Execute(request);
  EXPECT_FALSE(response.ok);
}

TEST(EngineTest, ExplainMatchesOfflineExplainTargets) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);

  const auto& seq = ds.sequences[3];
  const int64_t target = 6;
  for (int64_t t = 0; t < target; ++t) {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    ServeRequest update;
    update.op = Op::kUpdate;
    update.student = "s";
    update.question = it.question;
    update.response = it.response;
    update.has_concepts = true;
    update.concepts = it.concepts;
    ASSERT_TRUE(engine.Execute(update).ok);
  }
  ServeRequest explain;
  explain.op = Op::kExplain;
  explain.student = "s";
  explain.question = seq.interactions[static_cast<size_t>(target)].question;
  explain.has_concepts = true;
  explain.concepts = seq.interactions[static_cast<size_t>(target)].concepts;
  const ServeResponse online = engine.Execute(explain);
  ASSERT_TRUE(online.ok) << online.error;

  data::Batch batch = rckt::MakePrefixBatch({{&seq, target}});
  const auto offline = model.ExplainTargets(batch).front();
  ASSERT_EQ(online.influence.size(), offline.influence.size());
  for (size_t i = 0; i < offline.influence.size(); ++i) {
    EXPECT_EQ(Bits(online.influence[i]), Bits(offline.influence[i]))
        << "influence " << i;
  }
  EXPECT_EQ(Bits(online.total_correct), Bits(offline.total_correct));
  EXPECT_EQ(Bits(online.total_incorrect), Bits(offline.total_incorrect));
  EXPECT_EQ(online.predicted_correct, offline.predicted_correct);
}

// ---- Recourse ----

namespace {

void FeedPrefix(InferenceEngine& engine, const data::ResponseSequence& seq,
                int64_t n, const std::string& student) {
  for (int64_t t = 0; t < n; ++t) {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    ServeRequest update;
    update.op = Op::kUpdate;
    update.student = student;
    update.question = it.question;
    update.response = it.response;
    update.has_concepts = true;
    update.concepts = it.concepts;
    ASSERT_TRUE(engine.Execute(update).ok);
  }
}

// Everything the recourse wire contract pins, flattened to one comparable
// string: base_p bits, candidate count, and per candidate the probability
// bits plus the full ordered intervention list.
std::string RecourseSignature(const ServeResponse& response) {
  std::string s = std::to_string(Bits(response.base_p)) + "|" +
                  std::to_string(response.evaluated);
  for (const Counterfactual& candidate : response.candidates) {
    s += ";" + std::to_string(Bits(candidate.p));
    for (const Intervention& intervention : candidate.interventions) {
      s += (intervention.kind == Intervention::Kind::kFlipResponse ? ",f"
                                                                   : ",i");
      s += std::to_string(intervention.position) + ":" +
           std::to_string(intervention.question);
    }
  }
  return s;
}

}  // namespace

TEST(EngineRecourseTest, ValidatesRequestRanges) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);
  FeedPrefix(engine, ds.sequences[0], 4, "s");

  ServeRequest base;
  base.op = Op::kRecourse;
  base.student = "s";
  base.question = ds.sequences[0].interactions[4].question;

  EXPECT_TRUE(engine.Execute(base).ok);
  auto rejects = [&](const std::function<void(ServeRequest&)>& mutate) {
    ServeRequest request = base;
    mutate(request);
    const ServeResponse response = engine.Execute(request);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.error.empty());
  };
  rejects([](ServeRequest& r) { r.k = 0; });
  rejects([](ServeRequest& r) { r.k = 5; });
  rejects([](ServeRequest& r) { r.top = 0; });
  rejects([](ServeRequest& r) { r.top = 17; });
  rejects([](ServeRequest& r) { r.target_p = 2.0; });
  rejects([](ServeRequest& r) { r.target_p = -0.5; });
  rejects([](ServeRequest& r) { r.student.clear(); });
  rejects([](ServeRequest& r) { r.question = -1; });
  rejects([&](ServeRequest& r) {
    r.has_insert_questions = true;
    r.insert_questions = {ds.num_questions + 2};
  });
  rejects([](ServeRequest& r) {
    r.has_insert_questions = true;
    r.insert_questions = {-3};
  });

  // An oversized insert list is capped (4 primitives), not rejected, and
  // duplicates collapse.
  ServeRequest many = base;
  many.k = 1;
  many.has_insert_questions = true;
  many.insert_questions = {0, 1, 2, 3, 4, 5, 0, 1};
  const ServeResponse response = engine.Execute(many);
  ASSERT_TRUE(response.ok) << response.error;
  for (const auto& candidate : response.candidates) {
    for (const auto& intervention : candidate.interventions) {
      if (intervention.kind == Intervention::Kind::kInsertPractice) {
        EXPECT_LE(intervention.question, 3);  // entries past the cap dropped
      }
    }
  }
  EXPECT_GT(response.evaluated, 0);
}

TEST(EngineRecourseTest, EmptyHistoryScoresInsertPracticeOnly) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kGRU));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);

  ServeRequest request;
  request.op = Op::kRecourse;
  request.student = "fresh";
  request.question = 3;
  request.k = 2;
  const ServeResponse fast = engine.Execute(request);
  ASSERT_TRUE(fast.ok) << fast.error;
  EXPECT_EQ(fast.history, 0);
  // No incorrect answers to flip; the default insert primitive (practice
  // the target itself) is the only candidate.
  ASSERT_EQ(fast.evaluated, 1);
  ASSERT_EQ(fast.candidates.size(), 1u);
  EXPECT_EQ(fast.candidates[0].interventions.size(), 1u);
  EXPECT_EQ(fast.candidates[0].interventions[0].kind,
            Intervention::Kind::kInsertPractice);
  EXPECT_EQ(fast.candidates[0].interventions[0].question, 3);
  EXPECT_EQ(Bits(fast.candidates[0].lift),
            Bits(fast.candidates[0].p - fast.base_p));

  ServeRequest brute = request;
  brute.brute = true;
  EXPECT_EQ(RecourseSignature(engine.Execute(brute)),
            RecourseSignature(fast));
}

TEST(EngineRecourseTest, TargetPMarksReachedCandidates) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);
  FeedPrefix(engine, ds.sequences[2], 8, "s");

  ServeRequest request;
  request.op = Op::kRecourse;
  request.student = "s";
  request.question = ds.sequences[2].interactions[8].question;
  request.top = 16;
  request.target_p = 0.0;  // every candidate reaches a zero goal
  ServeResponse response = engine.Execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_FALSE(response.candidates.empty());
  for (const auto& candidate : response.candidates) {
    EXPECT_TRUE(candidate.reaches_target);
  }
  request.target_p = 1.0;  // sigmoid output never reaches exactly 1
  response = engine.Execute(request);
  ASSERT_TRUE(response.ok);
  for (const auto& candidate : response.candidates) {
    EXPECT_FALSE(candidate.reaches_target);
  }
  // Without a goal the flag stays false.
  request.target_p = -1.0;
  response = engine.Execute(request);
  ASSERT_TRUE(response.ok);
  for (const auto& candidate : response.candidates) {
    EXPECT_FALSE(candidate.reaches_target);
  }
}

TEST_P(EngineParitySuite, RecourseFastMatchesBruteBitwiseAcrossThreads) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(GetParam()));
  const auto& seq = ds.sequences[3];

  // A short and the longest prefix, each on a cached stream and on one a
  // one-byte budget evicted, so the scorer starts from a replayed stream.
  for (const int64_t prefix : {int64_t{8}, seq.length() - 1}) {
    for (const bool evicted : {false, true}) {
      SCOPED_TRACE("prefix " + std::to_string(prefix) +
                   (evicted ? " evicted" : " cached"));
      std::string reference;
      for (int threads : {1, 2, 8}) {
        SetNumThreads(threads);
        EngineOptions options;
        options.num_questions = ds.num_questions;
        options.num_concepts = ds.num_concepts;
        if (evicted) options.session_budget_bytes = 1;
        InferenceEngine engine(model, options);
        FeedPrefix(engine, seq, prefix, "s0");
        // Touching another student evicts s0's stream; recourse replays it.
        if (evicted) FeedPrefix(engine, seq, 1, "other");

        ServeRequest request;
        request.op = Op::kRecourse;
        request.student = "s0";
        const auto& target = seq.interactions[static_cast<size_t>(prefix)];
        request.question = target.question;
        request.has_concepts = true;
        request.concepts = target.concepts;
        request.k = 2;
        request.top = 16;
        request.has_insert_questions = true;
        request.insert_questions = {request.question,
                                    (request.question + 1) % ds.num_questions};

        const int64_t replays_before = engine.replays();
        const ServeResponse fast = engine.Execute(request);
        ASSERT_TRUE(fast.ok) << fast.error;
        EXPECT_GT(fast.evaluated, 2);
        ASSERT_FALSE(fast.candidates.empty());
        EXPECT_EQ(engine.replays() - replays_before, evicted ? 1 : 0);

        // The fast path (stream clone + suffix replay) must be bitwise the
        // brute-force per-candidate offline re-encode...
        ServeRequest brute_request = request;
        brute_request.brute = true;
        const ServeResponse brute = engine.Execute(brute_request);
        ASSERT_TRUE(brute.ok) << brute.error;
        EXPECT_EQ(RecourseSignature(fast), RecourseSignature(brute))
            << "threads " << threads;

        // ...and identical at every thread count.
        if (reference.empty()) {
          reference = RecourseSignature(fast);
        } else {
          EXPECT_EQ(RecourseSignature(fast), reference)
              << "threads " << threads;
        }
      }
    }
  }
}

TEST(EngineRecourseTest, StatsChargeHistoryAgainstBudget) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kSAKT));
  // Pass 1, unlimited budget: measure what two students with real
  // histories actually occupy.
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  options.session_budget_bytes = 0;
  auto drive = [&](InferenceEngine& engine) {
    FeedPrefix(engine, ds.sequences[0], 9, "a");
    FeedPrefix(engine, ds.sequences[1], 9, "b");
  };
  size_t state_bytes = 0;
  size_t history_bytes = 0;
  {
    InferenceEngine engine(model, options);
    drive(engine);
    ServeRequest stats;
    stats.op = Op::kStats;
    const ServeResponse response = engine.Execute(stats);
    ASSERT_TRUE(response.ok);
    state_bytes = static_cast<size_t>(response.state_bytes);
    history_bytes = static_cast<size_t>(response.history_bytes);
    EXPECT_GT(state_bytes, 0u);
    EXPECT_GT(history_bytes, 0u);
    EXPECT_EQ(response.evictions, 0);
  }
  // Pass 2, regression: a budget that holds the neural state alone but
  // NOT state + history. The old accounting (neural only) never evicted
  // under this budget; charging history must.
  options.session_budget_bytes = state_bytes + history_bytes / 2;
  {
    InferenceEngine engine(model, options);
    drive(engine);
    ServeRequest stats;
    stats.op = Op::kStats;
    const ServeResponse response = engine.Execute(stats);
    ASSERT_TRUE(response.ok);
    EXPECT_GT(response.evictions, 0);
    EXPECT_GT(response.history_bytes, 0);
    // Evicted or not, predictions stay bit-identical (replay rebuild).
    ServeRequest predict;
    predict.op = Op::kPredict;
    predict.student = "a";
    predict.question = ds.sequences[0].interactions[9].question;
    predict.has_concepts = true;
    predict.concepts = ds.sequences[0].interactions[9].concepts;
    const ServeResponse online = engine.Execute(predict);
    ASSERT_TRUE(online.ok);
    data::Batch batch = rckt::MakePrefixBatch({{&ds.sequences[0], 9}});
    EXPECT_EQ(Bits(online.p), Bits(model.GeneratorScoreTargets(batch)[0]));
  }
}

// ---- KTW2 metadata chunk ----

TEST(ModelMetaTest, RoundTripsThroughSaveAndLoad) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kSAKT));
  const std::string path = ::testing::TempDir() + "/serve_meta.ktw";

  ASSERT_TRUE(
      nn::SaveModuleWithMeta(model, rckt::ArchitectureMeta(model), path).ok());

  bool present = false;
  nn::ModelMeta read;
  ASSERT_TRUE(nn::ReadModuleMeta(path, &present, &read).ok());
  ASSERT_TRUE(present);
  EXPECT_EQ(read.encoder_kind, static_cast<int32_t>(rckt::EncoderKind::kSAKT));
  EXPECT_EQ(read.dim, 16);
  EXPECT_EQ(read.num_layers, 2);
  EXPECT_EQ(read.num_heads, 2);
  EXPECT_EQ(read.num_questions, ds.num_questions);
  EXPECT_EQ(read.num_concepts, ds.num_concepts);
  EXPECT_EQ(read.weights_fnv64, 0u);
  EXPECT_EQ(read.weight_version, 0);

  // A model built from the metadata alone loads the weights (the chunk is
  // skipped transparently) and reproduces the source model bit for bit.
  int64_t num_questions = 0;
  int64_t num_concepts = 0;
  const rckt::RcktConfig config =
      rckt::ArchitectureFromMeta(read, &num_questions, &num_concepts);
  EXPECT_EQ(num_questions, ds.num_questions);
  EXPECT_EQ(num_concepts, ds.num_concepts);
  rckt::RCKT loaded(num_questions, num_concepts, config);
  ASSERT_TRUE(nn::LoadModule(loaded, path).ok());
  data::Batch batch = rckt::MakePrefixBatch({{&ds.sequences[0], 5}});
  const float a = model.GeneratorScoreTargets(batch)[0];
  const float b = loaded.GeneratorScoreTargets(batch)[0];
  EXPECT_EQ(Bits(a), Bits(b));
}

TEST(ModelMetaTest, PlainSavesReportNoMetadata) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  const std::string path = ::testing::TempDir() + "/serve_plain.ktw";
  ASSERT_TRUE(nn::SaveModule(model, path).ok());

  bool present = true;
  nn::ModelMeta meta;
  ASSERT_TRUE(nn::ReadModuleMeta(path, &present, &meta).ok());
  EXPECT_FALSE(present);
  rckt::RCKT loaded(ds.num_questions, ds.num_concepts,
                    SmallConfig(rckt::EncoderKind::kDKT));
  EXPECT_TRUE(nn::LoadModule(loaded, path).ok());
}

}  // namespace
}  // namespace serve
}  // namespace kt

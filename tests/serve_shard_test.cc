// Tests for the sharded serving engine (serve/shard.h) and the cold
// session tier (serve/coldtier.h).
//
// The contracts under test:
//   * routing is a pure function of the student id, so a student's whole
//     session lives on exactly one shard;
//   * `stats` summed across shards equals the single-shard numbers;
//   * predictions at any shard count are bitwise identical to one shard;
//   * a cold-tier reload is bitwise identical to the replay rebuild it
//     replaces (for every encoder), and a warm restart resumes sessions
//     from disk without replaying — including after an unflushed teardown
//     (the kill -9 case: eviction-time snapshots are atomic and durable).
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "data/simulator.h"
#include "rckt/encoders.h"
#include "rckt/rckt_model.h"
#include "serve/coldtier.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/shard.h"

namespace kt {
namespace serve {
namespace {

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
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

ServeRequest Predict(const std::string& student, int64_t question) {
  ServeRequest r;
  r.op = Op::kPredict;
  r.student = student;
  r.question = question;
  r.has_concepts = true;
  r.concepts = {question % 4};
  return r;
}

ServeRequest Update(const std::string& student, int64_t question,
                    int response) {
  ServeRequest r = Predict(student, question);
  r.op = Op::kUpdate;
  r.response = response;
  return r;
}

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "kt_cold_XXXXXX";
  EXPECT_NE(::mkdtemp(path.data()), nullptr);
  return path;
}

// Deterministic mixed traffic over `num_students` synthetic students:
// interleaved updates and predicts driven by a fixed LCG.
std::vector<ServeRequest> MixedTraffic(int num_students, int steps) {
  std::vector<ServeRequest> out;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (int i = 0; i < steps; ++i) {
    const std::string student =
        std::string("s").append(std::to_string(next() % num_students));
    const int64_t question = static_cast<int64_t>(next() % 25);
    if (next() % 3 == 0) {
      out.push_back(Predict(student, question));
    } else {
      out.push_back(Update(student, question, static_cast<int>(next() % 2)));
    }
  }
  return out;
}

// ---- routing ----

TEST(ShardRoutingTest, IsDeterministicAndInRange) {
  for (uint32_t shards : {1u, 2u, 8u, 13u}) {
    for (int i = 0; i < 100; ++i) {
      const std::string student = "student-" + std::to_string(i);
      const uint32_t shard = ShardSet::ShardFor(student, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, ShardSet::ShardFor(student, shards))
          << "routing must be a pure function of the id";
    }
  }
  // The hash must actually spread students (no degenerate constant).
  std::vector<int> hit(8, 0);
  for (int i = 0; i < 256; ++i) {
    ++hit[ShardSet::ShardFor(std::string("u").append(std::to_string(i)), 8)];
  }
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(hit[shard], 0) << "shard " << shard << " never selected";
  }
}

TEST(ShardSetTest, EachStudentLivesOnExactlyItsHashShard) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  ShardSetOptions options;
  options.shards = 4;
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  ShardSet shards(model, options, nullptr);
  for (int i = 0; i < 16; ++i) {
    const std::string student = "st" + std::to_string(i);
    ASSERT_TRUE(shards.SubmitSync(Update(student, i % 25, i % 2)).ok);
  }
  shards.Stop();
  for (int i = 0; i < 16; ++i) {
    const std::string student = "st" + std::to_string(i);
    const uint32_t owner = shards.shard_for(student);
    for (int shard = 0; shard < 4; ++shard) {
      // Find() is non-const (it does not touch LRU order, but the store
      // only hands out mutable sessions); tests may cast.
      Session* found =
          const_cast<SessionStore&>(shards.engine(shard).sessions())
              .Find(student);
      if (shard == static_cast<int>(owner)) {
        EXPECT_NE(found, nullptr)
            << student << " missing from its owning shard " << owner;
      } else {
        EXPECT_EQ(found, nullptr)
            << student << " leaked onto shard " << shard;
      }
    }
  }
}

// ---- cross-shard stats ----

TEST(ShardSetTest, StatsSumAcrossShardsMatchesSingleShard) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  const std::vector<ServeRequest> traffic = MixedTraffic(10, 120);

  auto run = [&](int num_shards) {
    ShardSetOptions options;
    options.shards = num_shards;
    options.engine.num_questions = ds.num_questions;
    options.engine.num_concepts = ds.num_concepts;
    ShardSet shards(model, options, nullptr);
    for (const ServeRequest& request : traffic) {
      EXPECT_TRUE(shards.SubmitSync(request).ok);
    }
    ServeRequest stats;
    stats.op = Op::kStats;
    const ServeResponse summed = shards.SubmitSync(stats);
    // The broadcast-and-sum payload must equal the counters read directly
    // off each shard's SessionStore — nothing dropped, nothing double
    // counted. (Stop first: engine access is only safe with no traffic.)
    shards.Stop();
    int64_t sessions = 0;
    int64_t state_bytes = 0;
    int64_t history_bytes = 0;
    int64_t evictions = 0;
    for (int shard = 0; shard < num_shards; ++shard) {
      const SessionStore& store = shards.engine(shard).sessions();
      sessions += static_cast<int64_t>(store.size());
      state_bytes += static_cast<int64_t>(store.total_state_bytes());
      history_bytes += static_cast<int64_t>(store.total_history_bytes());
      evictions += static_cast<int64_t>(store.evictions());
    }
    EXPECT_EQ(summed.sessions, sessions);
    EXPECT_EQ(summed.state_bytes, state_bytes);
    EXPECT_EQ(summed.history_bytes, history_bytes)
        << "stats sum dropped a shard's history bytes";
    EXPECT_EQ(summed.evictions, evictions);
    return summed;
  };

  const ServeResponse one = run(1);
  const ServeResponse four = run(4);
  EXPECT_TRUE(one.ok);
  EXPECT_TRUE(four.ok);
  EXPECT_EQ(one.sessions, four.sessions);
  EXPECT_EQ(one.state_bytes, four.state_bytes)
      << "per-session state bytes do not depend on the shard layout";
  EXPECT_EQ(one.history_bytes, four.history_bytes)
      << "history accounting must not depend on the shard layout";
  EXPECT_EQ(one.evictions, four.evictions);
  EXPECT_GT(one.sessions, 0);
  EXPECT_GT(one.history_bytes, 0) << "updates never charged history bytes";
}

// ---- concurrent producers ----

// Each client thread drives its own student through predicts and updates
// via SubmitSync; the shard workers coalesce arbitrary interleavings into
// engine batches. Every thread's predictions must match a sequential
// single-student run bit for bit, because session streams are independent
// and the engine's stacking is row-wise.
TEST(ShardSetTest, ConcurrentSubmissionsMatchSequentialPerStudent) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kGRU));
  ShardSetOptions options;
  options.shards = 2;
  options.batcher.max_batch = 8;
  options.batcher.max_wait_us = 2000;
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  ShardSet shards(model, options, nullptr);

  constexpr int kWorkers = 6;
  constexpr int kSteps = 8;
  const auto& seq = ds.sequences[2];
  auto predict_at = [&](const std::string& student, int step) {
    const auto& it = seq.interactions[static_cast<size_t>(step)];
    ServeRequest predict = Predict(student, it.question);
    predict.concepts = it.concepts;
    return predict;
  };
  auto update_at = [&](const std::string& student, int step) {
    ServeRequest update = predict_at(student, step);
    update.op = Op::kUpdate;
    update.response = seq.interactions[static_cast<size_t>(step)].response;
    return update;
  };

  std::vector<std::vector<uint32_t>> got(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const std::string student = "w" + std::to_string(w);
      for (int step = 0; step < kSteps; ++step) {
        const ServeResponse response =
            shards.SubmitSync(predict_at(student, step));
        ASSERT_TRUE(response.ok) << response.error;
        got[static_cast<size_t>(w)].push_back(Bits(response.p));
        ASSERT_TRUE(shards.SubmitSync(update_at(student, step)).ok);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  shards.Stop();

  // Every student saw the same interactions, so every worker must have
  // produced the sequential reference's exact bits.
  InferenceEngine reference(model, options.engine);
  std::vector<uint32_t> want;
  for (int step = 0; step < kSteps; ++step) {
    want.push_back(Bits(reference.Execute(predict_at("ref", step)).p));
    ASSERT_TRUE(reference.Execute(update_at("ref", step)).ok);
  }
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(got[static_cast<size_t>(w)], want) << "worker " << w;
  }
}

// ---- head-of-line blocking ----

// An O(T) counterfactual op must not convoy in front of O(1) predicts on
// the same shard. The light predict L opens the worker's straggler
// window; the heavy explain A and the light predict B both land inside
// it, so all three are queued when the worker takes its slice. The
// two-lane worker takes the light slice {L, B} plus at most ONE heavy op
// and runs the lights first => delivery L, B, A. The old single FIFO
// delivered L, A, B — B was serialized behind the full counterfactual
// pass, which is exactly the regression this test pins.
TEST(ShardSetTest, HeavyOpsDoNotHeadOfLineBlockPredicts) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  ShardSetOptions options;
  options.shards = 1;  // force every student onto the same worker
  options.batcher.max_batch = 8;
  options.batcher.max_wait_us = 100000;  // wide window: no enqueue races
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  ShardSet shards(model, options, nullptr);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint64_t> order;
  shards.set_sink([&](uint64_t tag, std::string /*line*/) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    cv.notify_all();
  });

  // Enough history that the explain is real O(T) work. Fed async so the
  // updates coalesce into full batches instead of each paying the wide
  // straggler window this test configures.
  uint64_t feed_tag = 100;
  for (const char* student : {"hl", "ha", "hb"}) {
    for (int i = 0; i < 30; ++i) {
      shards.SubmitAsync(Update(student, (i * 7) % 25, i % 2), feed_tag++);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return order.size() == 90; });
    order.clear();
  }

  ServeRequest explain_a = Predict("ha", 5);
  explain_a.op = Op::kExplain;

  shards.SubmitAsync(Predict("hl", 3), 1);
  shards.SubmitAsync(explain_a, 2);
  shards.SubmitAsync(Predict("hb", 4), 3);
  // Same student as the heavy explain: must stay ordered after it even
  // though the lanes split (heavy_pending routing).
  shards.SubmitAsync(Predict("ha", 6), 4);

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return order.size() == 4; });
  }
  auto pos = [&](uint64_t tag) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == tag) return i;
    }
    ADD_FAILURE() << "tag " << tag << " never delivered";
    return order.size();
  };
  EXPECT_LT(pos(3), pos(2))
      << "predict was head-of-line blocked behind another student's explain";
  EXPECT_LT(pos(2), pos(4))
      << "per-student order broken across the lane split";
  shards.Stop();
}

// The converse: a heavy op must not overtake the same student's light ops
// queued before it. With max_batch = 1 the worker takes one light op per
// iteration. While the sink holds the worker on a blocker's reply, N
// updates and then an explain for one student queue up. A worker that pops
// the heavy lane regardless runs the explain right after the first update
// and explains a history of 1 instead of N.
TEST(ShardSetTest, HeavyOpsDoNotOvertakeQueuedLightOps) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  ShardSetOptions options;
  options.shards = 1;
  options.batcher.max_batch = 1;
  options.batcher.max_wait_us = 0;
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  ShardSet shards(model, options, nullptr);

  constexpr uint64_t kBlockerTag = 0;
  constexpr uint64_t kExplainTag = 1000;
  constexpr int kUpdates = 5;
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  bool released = false;
  std::vector<std::pair<uint64_t, std::string>> replies;
  shards.set_sink([&](uint64_t tag, std::string line) {
    std::unique_lock<std::mutex> lock(mu);
    if (tag == kBlockerTag) {
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
    replies.emplace_back(tag, std::move(line));
    cv.notify_all();
  });

  shards.SubmitAsync(Predict("blocker", 1), kBlockerTag);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  for (int i = 0; i < kUpdates; ++i) {
    shards.SubmitAsync(Update("ov", (i * 7) % 25, i % 2), 1 + i);
  }
  ServeRequest explain = Predict("ov", 5);
  explain.op = Op::kExplain;
  shards.SubmitAsync(explain, kExplainTag);
  {
    std::unique_lock<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
    cv.wait(lock, [&] { return replies.size() == kUpdates + 2; });
  }
  shards.Stop();

  ASSERT_EQ(replies.back().first, kExplainTag)
      << "explain delivered before the updates queued ahead of it";
  EXPECT_NE(replies.back().second.find("\"history\":" +
                                       std::to_string(kUpdates) + ","),
            std::string::npos)
      << replies.back().second;
}

// ---- shutdown ----

// After Stop() every entry point still answers, at once and with the
// shutdown error: SubmitSync for a routed op and for the stats fan-out,
// and SubmitAsync through the sink under the caller's tag.
TEST(ShardSetTest, SubmitsAfterStopAnswerWithTheShutdownError) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  ShardSetOptions options;
  options.shards = 2;
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  ShardSet shards(model, options, nullptr);
  std::vector<std::pair<uint64_t, std::string>> lines;
  shards.set_sink([&](uint64_t tag, std::string line) {
    lines.emplace_back(tag, std::move(line));
  });
  shards.Stop();

  ServeRequest stats;
  stats.op = Op::kStats;
  for (const ServeRequest& request : {Predict("late", 3), stats}) {
    const ServeResponse response = shards.SubmitSync(request);
    EXPECT_FALSE(response.ok) << OpName(request.op);
    EXPECT_EQ(response.error, "server is shutting down");
  }
  shards.SubmitAsync(Predict("late", 3), 7);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, 7u);
  EXPECT_EQ(lines[0].second,
            "{\"ok\":false,\"error\":\"server is shutting down\"}");
}

// ---- bitwise parity across shard counts ----

TEST(ShardSetTest, PredictionsAreBitwiseIdenticalAcrossShardCounts) {
  data::Dataset ds = TinyDataset();
  for (const rckt::EncoderKind kind :
       {rckt::EncoderKind::kDKT, rckt::EncoderKind::kSAKT}) {
    rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig(kind));
    const std::vector<ServeRequest> traffic = MixedTraffic(8, 150);

    auto run = [&](int num_shards) {
      ShardSetOptions options;
      options.shards = num_shards;
      options.engine.num_questions = ds.num_questions;
      options.engine.num_concepts = ds.num_concepts;
      ShardSet shards(model, options, nullptr);
      std::vector<uint32_t> bits;
      for (const ServeRequest& request : traffic) {
        const ServeResponse response = shards.SubmitSync(request);
        EXPECT_TRUE(response.ok) << response.error;
        if (request.op == Op::kPredict) bits.push_back(Bits(response.p));
      }
      return bits;
    };

    const std::vector<uint32_t> one = run(1);
    const std::vector<uint32_t> eight = run(8);
    ASSERT_FALSE(one.empty());
    ASSERT_EQ(one.size(), eight.size());
    EXPECT_EQ(one, eight) << rckt::EncoderKindName(kind)
                          << ": sharded serving must be bitwise identical";
  }
}

ServeRequest Recourse(const std::string& student, int64_t question) {
  ServeRequest r = Predict(student, question);
  r.op = Op::kRecourse;
  r.k = 2;
  r.top = 8;
  r.has_insert_questions = true;
  r.insert_questions = {question, (question + 3) % 25};
  return r;
}

// Everything a recourse reply ranks on, flattened so two replies compare
// bitwise: base probability, candidate-set size, and each candidate's
// probability plus its exact intervention list.
std::string RecourseSignature(const ServeResponse& response) {
  std::string s = std::to_string(Bits(response.base_p)) + "|" +
                  std::to_string(response.evaluated);
  for (const Counterfactual& candidate : response.candidates) {
    s += ";" + std::to_string(Bits(candidate.p));
    for (const Intervention& intervention : candidate.interventions) {
      s += intervention.kind == Intervention::Kind::kFlipResponse ? ",f" : ",i";
      s += std::to_string(intervention.position) + ":" +
           std::to_string(intervention.question);
    }
  }
  return s;
}

TEST(ShardSetTest, RecourseIsBitwiseIdenticalAcrossShardCounts) {
  data::Dataset ds = TinyDataset();
  for (const rckt::EncoderKind kind :
       {rckt::EncoderKind::kDKT, rckt::EncoderKind::kSAKT}) {
    rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig(kind));

    // A mixed update/predict stream with a recourse every few steps, on
    // whichever student the stream just touched.
    const std::vector<ServeRequest> base = MixedTraffic(6, 90);
    std::vector<ServeRequest> traffic;
    for (size_t i = 0; i < base.size(); ++i) {
      traffic.push_back(base[i]);
      if (i % 9 == 8) {
        traffic.push_back(Recourse(base[i].student, base[i].question));
      }
    }

    auto run = [&](int num_shards) {
      ShardSetOptions options;
      options.shards = num_shards;
      options.engine.num_questions = ds.num_questions;
      options.engine.num_concepts = ds.num_concepts;
      ShardSet shards(model, options, nullptr);
      std::vector<std::string> signatures;
      for (const ServeRequest& request : traffic) {
        const ServeResponse response = shards.SubmitSync(request);
        EXPECT_TRUE(response.ok) << response.error;
        if (request.op == Op::kRecourse) {
          signatures.push_back(RecourseSignature(response));
        }
      }
      return signatures;
    };

    const std::vector<std::string> one = run(1);
    const std::vector<std::string> eight = run(8);
    ASSERT_FALSE(one.empty());
    ASSERT_EQ(one.size(), eight.size());
    EXPECT_EQ(one, eight)
        << rckt::EncoderKindName(kind)
        << ": recourse rankings must not depend on the shard layout";
  }
}

// ---- cold tier ----

class ColdTierSuite : public ::testing::TestWithParam<rckt::EncoderKind> {};

// Forcing the budget to one byte makes every AccountState evict all other
// sessions, so each touch of a second student demotes the first.
TEST_P(ColdTierSuite, ColdReloadIsBitIdenticalToReplayRebuild) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig(GetParam()));

  auto feed = [&](InferenceEngine& engine) {
    for (int step = 0; step < 6; ++step) {
      for (const char* student : {"a", "b"}) {
        ASSERT_TRUE(
            engine.Execute(Update(student, (step * 5) % 25, step % 2)).ok);
      }
    }
  };

  // Reference: roomy budget, nothing ever evicted.
  EngineOptions reference_options;
  reference_options.num_questions = ds.num_questions;
  reference_options.num_concepts = ds.num_concepts;
  InferenceEngine reference(model, reference_options);
  feed(reference);
  const ServeResponse want = reference.Execute(Predict("a", 7));
  ASSERT_TRUE(want.ok);

  // Replay path: 1-byte budget, no cold tier -> every touch rebuilds.
  EngineOptions replay_options = reference_options;
  replay_options.session_budget_bytes = 1;
  InferenceEngine replayer(model, replay_options);
  feed(replayer);
  const ServeResponse via_replay = replayer.Execute(Predict("a", 7));
  ASSERT_TRUE(via_replay.ok);
  EXPECT_GT(replayer.replays(), 0);
  EXPECT_EQ(replayer.cold_loads(), 0);

  // Cold path: same 1-byte budget, but eviction demotes to disk.
  EngineOptions cold_options = replay_options;
  cold_options.cold_dir = MakeTempDir();
  InferenceEngine cold(model, cold_options);
  feed(cold);
  const ServeResponse via_cold = cold.Execute(Predict("a", 7));
  ASSERT_TRUE(via_cold.ok);
  EXPECT_GT(cold.cold_loads(), 0) << "evictions never reloaded from disk";

  EXPECT_EQ(Bits(want.p), Bits(via_replay.p))
      << rckt::EncoderKindName(GetParam()) << ": replay rebuild diverged";
  EXPECT_EQ(Bits(want.p), Bits(via_cold.p))
      << rckt::EncoderKindName(GetParam())
      << ": cold-tier reload is not bit-identical to the replay rebuild";
}

TEST_P(ColdTierSuite, WarmRestartResumesSessionsWithoutReplay) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig(GetParam()));
  const std::string cold_dir = MakeTempDir();

  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  options.cold_dir = cold_dir;

  ServeRequest explain = Predict("y", 11);
  explain.op = Op::kExplain;

  ServeResponse want;
  ServeResponse want_explained;
  {
    InferenceEngine first(model, options);
    for (int step = 0; step < 5; ++step) {
      for (const char* student : {"x", "y", "z"}) {
        ASSERT_TRUE(
            first.Execute(Update(student, (step * 3) % 25, step % 2)).ok);
      }
    }
    want = first.Execute(Predict("y", 11));
    ASSERT_TRUE(want.ok);
    want_explained = first.Execute(explain);
    ASSERT_TRUE(want_explained.ok) << want_explained.error;
    // Graceful shutdown: persist the resident sessions.
    first.FlushColdSnapshots();
  }

  InferenceEngine second(model, options);
  const ServeResponse got = second.Execute(Predict("y", 11));
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(Bits(want.p), Bits(got.p))
      << rckt::EncoderKindName(GetParam())
      << ": restarted server diverged from the one that never stopped";
  EXPECT_EQ(got.history, want.history) << "history not restored";
  EXPECT_EQ(second.replays(), 0)
      << "warm restart must resume from snapshots, not replay";
  EXPECT_GT(second.cold_loads(), 0);

  // The adopted history also powers explain after the restart, and the
  // full influence breakdown matches the never-restarted engine bitwise.
  const ServeResponse explained = second.Execute(explain);
  ASSERT_TRUE(explained.ok) << explained.error;
  ASSERT_EQ(explained.influence.size(), want_explained.influence.size());
  for (size_t i = 0; i < explained.influence.size(); ++i) {
    EXPECT_EQ(Bits(explained.influence[i]), Bits(want_explained.influence[i]))
        << "influence[" << i << "] diverged after restart";
  }
}

// The kill -9 case: eviction-time snapshots commit atomically, so state
// demoted before the crash survives even though nothing was flushed.
TEST_P(ColdTierSuite, UnflushedTeardownStillRecoversEvictedSessions) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig(GetParam()));
  const std::string cold_dir = MakeTempDir();

  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  options.session_budget_bytes = 1;  // evict (= snapshot) on every touch
  options.cold_dir = cold_dir;

  ServeResponse want;
  {
    InferenceEngine first(model, options);
    for (int step = 0; step < 4; ++step) {
      ASSERT_TRUE(first.Execute(Update("victim", step * 2, 1)).ok);
      ASSERT_TRUE(first.Execute(Update("other", step * 2 + 1, 0)).ok);
    }
    want = first.Execute(Predict("victim", 9));
    ASSERT_TRUE(want.ok);
    // No FlushColdSnapshots: the engine just goes away, like a SIGKILL.
    // "victim"'s state was snapshotted when "other"'s updates evicted it.
  }

  EngineOptions fresh = options;
  fresh.session_budget_bytes = 0;  // roomy restart
  InferenceEngine second(model, fresh);
  const ServeResponse got = second.Execute(Predict("victim", 9));
  ASSERT_TRUE(got.ok);
  EXPECT_GT(second.cold_loads(), 0);
  EXPECT_EQ(second.replays(), 0);
  EXPECT_EQ(Bits(want.p), Bits(got.p))
      << rckt::EncoderKindName(GetParam())
      << ": post-crash recovery diverged from pre-crash state";
}

TEST_P(ColdTierSuite, ResetErasesTheSnapshotWithTheSession) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig(GetParam()));

  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  options.cold_dir = MakeTempDir();

  {
    InferenceEngine first(model, options);
    ASSERT_TRUE(first.Execute(Update("gone", 3, 1)).ok);
    first.FlushColdSnapshots();
    ServeRequest reset;
    reset.op = Op::kReset;
    reset.student = "gone";
    ASSERT_TRUE(first.Execute(reset).ok);
  }

  InferenceEngine second(model, options);
  const ServeResponse got = second.Execute(Predict("gone", 3));
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.history, 0)
      << "a reset student's snapshot must not resurrect its history";
  EXPECT_EQ(second.cold_loads(), 0);
}

// Updates charge only the interaction they append to the history; a full
// recount happens only where a cold load can replace the history. `stats`
// must still equal a full recount of every kept history after updates,
// evictions, cold loads, a weight swap and a warm restart (which adopts
// histories from fresh snapshots and from stale ones alike).
TEST(ColdTierTest, HistoryBytesEqualAFullRecount) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  options.session_budget_bytes = 1;  // evict (= snapshot) on every touch
  options.cold_dir = MakeTempDir();

  auto stats = [](InferenceEngine& engine) {
    ServeRequest request;
    request.op = Op::kStats;
    const ServeResponse response = engine.Execute(request);
    EXPECT_TRUE(response.ok);
    return response;
  };
  size_t want = 0;
  auto update = [&](InferenceEngine& engine, const std::string& student,
                    int64_t question, size_t bag_size) {
    ServeRequest request = Update(student, question, question % 2);
    request.concepts.clear();
    for (size_t c = 0; c < bag_size; ++c) {
      request.concepts.push_back(static_cast<int64_t>(c));
    }
    ASSERT_TRUE(engine.Execute(request).ok);
    want += sizeof(data::Interaction) + bag_size * sizeof(int64_t);
  };

  {
    InferenceEngine first(model, options);
    for (int64_t step = 0; step < 5; ++step) {
      for (const char* student : {"a", "b", "c"}) {
        update(first, student, step * 3 + student[0] % 3,
               static_cast<size_t>(step + student[0]) % 4);
        EXPECT_EQ(static_cast<size_t>(stats(first).history_bytes), want);
      }
    }
    EXPECT_GT(stats(first).evictions, 0);
    ASSERT_TRUE(first.Execute(Predict("a", 3)).ok);
    EXPECT_GT(first.cold_loads(), 0);
    EXPECT_EQ(static_cast<size_t>(stats(first).history_bytes), want);

    first.OnModelSwapped(first.model_fingerprint() + 1);
    EXPECT_EQ(static_cast<size_t>(stats(first).history_bytes), want);
    update(first, "b", 7, 2);  // replays against the swapped weights
    EXPECT_EQ(static_cast<size_t>(stats(first).history_bytes), want);
    first.FlushColdSnapshots();
  }

  // "a" and "c" were snapshotted before the swap and load whole; "b" was
  // flushed under the swapped fingerprint, so only its history is adopted.
  options.session_budget_bytes = 0;
  InferenceEngine second(model, options);
  for (const char* student : {"a", "b", "c"}) {
    ASSERT_TRUE(second.Execute(Predict(student, 4)).ok);
  }
  EXPECT_EQ(second.cold_loads(), 2);
  EXPECT_EQ(second.replays(), 1);
  EXPECT_EQ(static_cast<size_t>(stats(second).history_bytes), want);
}

TEST(ColdTierTest, StaleSnapshotWithDivergentHistoryIsDropped) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kDKT));
  const std::string cold_dir = MakeTempDir();
  ColdTier tier(cold_dir, model.bi_encoder(), model.config().encoder,
                model.config().dim, model.config().num_layers);

  // Build a real session through the engine so the stream is live.
  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);
  ASSERT_TRUE(engine.Execute(Update("s", 1, 1)).ok);
  Session* live = const_cast<SessionStore&>(engine.sessions()).Find("s");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(tier.Save(*live));

  // A session whose live history disagrees with the snapshot must miss,
  // and the stale file must be deleted so it cannot resurface.
  Session divergent;
  divergent.id = "s";
  divergent.history.push_back(data::Interaction{2, 0, {1}});
  EXPECT_FALSE(tier.Load(&divergent));
  EXPECT_EQ(divergent.stream, nullptr);

  Session empty;
  empty.id = "s";
  EXPECT_FALSE(tier.Load(&empty)) << "stale snapshot was not deleted";
}

TEST(ColdTierTest, SchemaMismatchIsAMissNotState) {
  data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts,
                   SmallConfig(rckt::EncoderKind::kGRU));
  const std::string cold_dir = MakeTempDir();

  EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  InferenceEngine engine(model, options);
  ASSERT_TRUE(engine.Execute(Update("s", 1, 1)).ok);
  Session* live = const_cast<SessionStore&>(engine.sessions()).Find("s");
  ASSERT_NE(live, nullptr);

  ColdTier writer(cold_dir, model.bi_encoder(), model.config().encoder,
                  model.config().dim, model.config().num_layers);
  ASSERT_TRUE(writer.Save(*live));

  // Same directory read back under a different declared shape.
  ColdTier wrong_kind(cold_dir, model.bi_encoder(), rckt::EncoderKind::kAKT,
                      model.config().dim, model.config().num_layers);
  Session restored;
  restored.id = "s";
  EXPECT_FALSE(wrong_kind.Load(&restored));

  ColdTier wrong_dim(cold_dir, model.bi_encoder(), model.config().encoder,
                     model.config().dim * 2, model.config().num_layers);
  EXPECT_FALSE(wrong_dim.Load(&restored));
}

uint64_t Fnv64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Cold-tier snapshots carry SerializeStream bytes verbatim, so those bytes
// are an on-disk format: a server upgraded over a cold dir must load what
// the previous build wrote. Each encoder (2 layers) steps a fixed history
// through stacked two-student updates, then rebuilds the stream by replay
// after a weight-swap notification; both streams must serialize to the
// pinned FNV-64.
TEST(ColdTierTest, StreamBytesMatchGoldenForEveryEncoder) {
  struct Golden {
    rckt::EncoderKind kind;
    uint64_t fnv64;
  };
  const Golden goldens[] = {
      {rckt::EncoderKind::kDKT, 0xb15d224182f615ceull},
      {rckt::EncoderKind::kGRU, 0xdaff2947489e1b75ull},
      {rckt::EncoderKind::kSAKT, 0xe1bb4d396c45f6e9ull},
      {rckt::EncoderKind::kAKT, 0xe319a9f1a743150dull},
  };
  data::Dataset ds = TinyDataset();
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(rckt::EncoderKindName(golden.kind));
    rckt::RCKT model(ds.num_questions, ds.num_concepts,
                     SmallConfig(golden.kind));
    EngineOptions options;
    options.num_questions = ds.num_questions;
    options.num_concepts = ds.num_concepts;
    InferenceEngine engine(model, options);
    for (int64_t step = 0; step < 9; ++step) {
      const auto out = engine.ExecuteBatch(
          {Update("a", (step * 7) % 25, step % 3 == 0 ? 0 : 1),
           Update("b", (step * 4 + 2) % 25, static_cast<int>(step % 2))});
      ASSERT_TRUE(out[0].ok && out[1].ok);
    }
    auto stream_bytes = [&] {
      Session* session =
          const_cast<SessionStore&>(engine.sessions()).Find("a");
      EXPECT_NE(session, nullptr);
      std::string bytes;
      if (session == nullptr || session->stream == nullptr) return bytes;
      model.bi_encoder().SerializeStream(*session->stream, &bytes);
      return bytes;
    };
    const std::string stepped = stream_bytes();

    engine.OnModelSwapped(engine.model_fingerprint());
    ASSERT_TRUE(engine.Execute(Predict("a", 5)).ok);
    EXPECT_EQ(engine.replays(), 1);
    const std::string replayed = stream_bytes();

    EXPECT_EQ(stepped, replayed) << "replay rebuild differs from stepping";
    EXPECT_EQ(Fnv64(replayed), golden.fnv64)
        << std::hex << "0x" << Fnv64(replayed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, ColdTierSuite,
                         ::testing::Values(rckt::EncoderKind::kDKT,
                                           rckt::EncoderKind::kGRU,
                                           rckt::EncoderKind::kSAKT,
                                           rckt::EncoderKind::kAKT),
                         [](const auto& info) {
                           return std::string(
                               rckt::EncoderKindName(info.param));
                         });

}  // namespace
}  // namespace serve
}  // namespace kt

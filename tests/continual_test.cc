// Tests for kt::continual (continual/reservoir.h, collector.h, trainer.h)
// and the serve-side hot-swap machinery it drives (ShardSet::SwapWeights,
// cold-tier fingerprint guard, stats model identity).
//
// The contracts under test:
//   * the replay reservoir is a pure function of the event multiset —
//     arrival order, partitioning across shards, and merge schedule never
//     change the selected set or its digest;
//   * the collector emits the same samples for any shard layout, and the
//     holdout split is hash-selected (layout-invariant);
//   * a mini-epoch over fixed traffic is deterministic, and a trainer
//     warm-restarted from its checkpoint continues bit-identically to one
//     that never stopped (weights AND optimizer moments);
//   * published weights are torn-write safe: any truncation of current.ktw
//     is rejected by the loader, never half-loaded;
//   * a hot weight swap rebuilds sessions bit-identically to a fresh
//     server that replayed the same history under the new weights;
//   * cold-tier snapshots taken under old weights read as misses after a
//     swap (history adopted, stream rebuilt) — the regression that would
//     silently serve stale-model state;
//   * `stats` reports the live fingerprint/version through swaps, and a
//     drifting stream drives an actual promotion end to end.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "continual/collector.h"
#include "continual/reservoir.h"
#include "continual/trainer.h"
#include "data/simulator.h"
#include "nn/serialize.h"
#include "rckt/rckt_model.h"
#include "serve/coldtier.h"
#include "serve/engine.h"
#include "serve/shard.h"

namespace kt {
namespace continual {
namespace {

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "kt_continual_XXXXXX";
  EXPECT_NE(::mkdtemp(path.data()), nullptr);
  return path;
}

data::Dataset TinyDataset(uint64_t seed = 11) {
  data::SimulatorConfig config;
  config.num_students = 16;
  config.num_questions = 25;
  config.num_concepts = 4;
  config.min_responses = 12;
  config.max_responses = 20;
  config.seed = seed;
  data::StudentSimulator sim(config);
  return sim.Generate();
}

rckt::RcktConfig SmallConfig() {
  rckt::RcktConfig config;
  config.encoder = rckt::EncoderKind::kDKT;
  config.dim = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.seed = 4;
  return config;
}

// Deterministic synthetic sample: the target plus `context_len` context
// interactions, all derived from (student, index).
TrainSample MakeSample(uint64_t student_fnv, int64_t index,
                       int64_t context_len = 3) {
  TrainSample sample;
  sample.student_fnv = student_fnv;
  sample.index = index;
  sample.target.question = (index * 7 + static_cast<int64_t>(student_fnv % 13));
  sample.target.response = static_cast<int>((student_fnv + index) % 2);
  sample.target.concepts = {index % 4};
  for (int64_t i = 0; i < context_len; ++i) {
    data::Interaction it;
    it.question = (index + i) % 19;
    it.response = static_cast<int>(i % 2);
    it.concepts = {(index + i) % 4};
    sample.context.push_back(std::move(it));
  }
  return sample;
}

// Feeds every interaction of `ds` into `trainer` as committed update
// events, routed to the shard that would own the student under `shards`.
void FeedDataset(ContinualTrainer* trainer, const data::Dataset& ds,
                 int shards) {
  for (const data::ResponseSequence& seq : ds.sequences) {
    const std::string student = "st" + std::to_string(seq.student);
    const int shard = static_cast<int>(serve::ShardSet::ShardFor(
        student, static_cast<uint32_t>(shards)));
    for (size_t i = 0; i < seq.interactions.size(); ++i) {
      const data::Interaction& it = seq.interactions[i];
      serve::UpdateEvent event;
      event.student = student;
      event.index = static_cast<int64_t>(i);
      event.question = it.question;
      event.response = it.response;
      event.concepts = &it.concepts;
      trainer->Record(shard, event);
    }
  }
}

// ---- reservoir ----

TEST(ReservoirTest, SelectionIsArrivalOrderInvariant) {
  std::vector<TrainSample> samples;
  for (int64_t s = 0; s < 20; ++s) {
    for (int64_t i = 0; i < 10; ++i) {
      samples.push_back(
          MakeSample(HashStudent(std::string("u").append(std::to_string(s))),
                     i));
    }
  }

  Reservoir forward(32, /*seed=*/7);
  for (const TrainSample& sample : samples) forward.Offer(sample);

  Reservoir backward(32, /*seed=*/7);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    backward.Offer(*it);
  }

  ASSERT_EQ(forward.size(), 32);
  EXPECT_EQ(forward.Digest(), backward.Digest())
      << "bottom-k selection must not depend on arrival order";
}

TEST(ReservoirTest, ShardPartitionAndMergeMatchGlobalFeed) {
  std::vector<TrainSample> samples;
  for (int64_t s = 0; s < 24; ++s) {
    for (int64_t i = 0; i < 8; ++i) {
      samples.push_back(
          MakeSample(HashStudent(std::string("p").append(std::to_string(s))),
                     i));
    }
  }

  Reservoir global(40, /*seed=*/3);
  for (const TrainSample& sample : samples) global.Offer(sample);

  // Four per-shard reservoirs fed the hash partition, merged pairwise in
  // an arbitrary schedule.
  std::vector<Reservoir> parts;
  for (int i = 0; i < 4; ++i) parts.emplace_back(40, /*seed=*/3);
  for (const TrainSample& sample : samples) {
    parts[sample.student_fnv % 4].Offer(sample);
  }
  parts[2].MergeFrom(&parts[3]);
  parts[0].MergeFrom(&parts[1]);
  parts[0].MergeFrom(&parts[2]);

  EXPECT_EQ(global.Digest(), parts[0].Digest())
      << "merged shard reservoirs must equal one global reservoir";
  EXPECT_EQ(parts[1].size(), 0) << "MergeFrom must drain the source";
}

TEST(ReservoirTest, SerializeRoundTripsAndRejectsTruncation) {
  Reservoir reservoir(16, /*seed=*/9);
  for (int64_t i = 0; i < 50; ++i) {
    reservoir.Offer(MakeSample(
        HashStudent(std::string("r").append(std::to_string(i % 5))), i));
  }
  std::string bytes;
  reservoir.Serialize(&bytes);

  Reservoir restored(16, /*seed=*/9);
  ASSERT_TRUE(restored.Deserialize(bytes.data(), bytes.size()));
  EXPECT_EQ(reservoir.Digest(), restored.Digest());
  EXPECT_EQ(reservoir.size(), restored.size());

  // Every truncation point must be rejected wholesale, never half-parsed.
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    Reservoir torn(16, /*seed=*/9);
    EXPECT_FALSE(torn.Deserialize(bytes.data(), cut))
        << "truncated at " << cut;
    EXPECT_EQ(torn.size(), 0) << "failed parse must leave it empty";
  }
}

TEST(ReservoirTest, CanonicalOrderIsSortedByPriority) {
  Reservoir reservoir(8, /*seed=*/1);
  for (int64_t i = 0; i < 30; ++i) {
    reservoir.Offer(MakeSample(HashStudent("o"), i));
  }
  uint64_t previous = 0;
  bool first = true;
  for (const TrainSample* sample : reservoir.Ordered()) {
    const uint64_t priority =
        SamplePriority(1, sample->student_fnv, sample->index);
    if (!first) {
      EXPECT_GE(priority, previous);
    }
    previous = priority;
    first = false;
  }
}

// ---- collector ----

// Hash digest of a drained sample list, order-independent (XOR of
// per-sample folds) so layouts that drain in different orders compare.
uint64_t SampleSetDigest(const std::vector<TrainSample>& samples) {
  uint64_t digest = 0;
  for (const TrainSample& sample : samples) {
    Reservoir one(1, 0);
    one.Offer(sample);
    digest ^= one.Digest();
  }
  return digest;
}

TEST(CollectorTest, SampleMultisetIsShardLayoutInvariant) {
  const data::Dataset ds = TinyDataset();

  auto run = [&](int shards) {
    CollectorOptions options;
    options.shards = shards;
    options.window = 8;
    options.min_history = 2;
    options.holdout_every = 4;
    options.seed = 5;
    EventCollector collector(options);
    for (const data::ResponseSequence& seq : ds.sequences) {
      const std::string student =
          std::string("c").append(std::to_string(seq.student));
      const int shard = static_cast<int>(serve::ShardSet::ShardFor(
          student, static_cast<uint32_t>(shards)));
      for (size_t i = 0; i < seq.interactions.size(); ++i) {
        serve::UpdateEvent event;
        event.student = student;
        event.index = static_cast<int64_t>(i);
        event.question = seq.interactions[i].question;
        event.response = seq.interactions[i].response;
        event.concepts = &seq.interactions[i].concepts;
        collector.Record(shard, event);
      }
    }
    std::vector<TrainSample> train, holdout;
    collector.Drain(&train, &holdout);
    EXPECT_GT(train.size(), 0u);
    EXPECT_GT(holdout.size(), 0u) << "holdout split never selected";
    return std::make_pair(SampleSetDigest(train), SampleSetDigest(holdout));
  };

  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one.first, four.first)
      << "train sample multiset depends on the shard layout";
  EXPECT_EQ(one.second, four.second)
      << "holdout membership depends on the shard layout";
}

TEST(CollectorTest, IndexDiscontinuityResetsTheContext) {
  CollectorOptions options;
  options.window = 8;
  options.min_history = 1;
  options.holdout_every = 0;  // no split: every sample trains
  EventCollector collector(options);

  std::vector<int64_t> concepts = {1};
  auto record = [&](int64_t index) {
    serve::UpdateEvent event;
    event.student = "d";
    event.index = index;
    event.question = index % 10;
    event.response = 1;
    event.concepts = &concepts;
    collector.Record(0, event);
  };
  record(0);
  record(1);  // 1 context interaction -> emits
  record(5);  // discontinuity: context must reset, not fabricate history
  record(6);  // 1 context interaction after the reset -> emits

  std::vector<TrainSample> train, holdout;
  collector.Drain(&train, &holdout);
  ASSERT_EQ(train.size(), 2u);
  EXPECT_EQ(train[0].index, 1);
  EXPECT_EQ(train[0].context.size(), 1u);
  EXPECT_EQ(train[1].index, 6);
  EXPECT_EQ(train[1].context.size(), 1u)
      << "context survived an index discontinuity";
}

// ---- trainer determinism + warm restart ----

TEST(TrainerTest, MiniEpochIsDeterministicAcrossShardLayouts) {
  const data::Dataset ds = TinyDataset();

  auto run = [&](int shards) {
    rckt::RCKT serving(ds.num_questions, ds.num_concepts, SmallConfig());
    TrainerOptions options;
    options.shards = shards;
    options.window = 8;
    options.min_history = 2;
    options.holdout_every = 4;
    options.reservoir_capacity = 64;
    options.tail_capacity = 0;  // tail ring order is drain-order dependent
    options.gate_min_samples = 1 << 30;  // gate off: pure training epoch
    options.seed = 5;
    ContinualTrainer trainer(serving, options);
    FeedDataset(&trainer, ds, shards);
    EXPECT_TRUE(trainer.RunMiniEpoch());
    return nn::FingerprintModule(trainer.candidate());
  };

  EXPECT_EQ(run(1), run(4))
      << "fine-tuned weights depend on the shard layout";
}

TEST(TrainerTest, CheckpointWarmRestartContinuesBitIdentically) {
  const data::Dataset phase1 = TinyDataset(21);
  const data::Dataset phase2 = TinyDataset(22);
  const std::string dir_a = MakeTempDir();

  TrainerOptions options;
  options.dir = dir_a;
  options.window = 8;
  options.min_history = 2;
  options.holdout_every = 4;
  options.reservoir_capacity = 64;
  options.tail_capacity = 0;
  options.gate_min_samples = 1 << 30;
  options.seed = 5;

  // Trainer A: phase 1, mini-epoch (checkpoints), then phase 2.
  rckt::RCKT serving_a(phase1.num_questions, phase1.num_concepts,
                       SmallConfig());
  ContinualTrainer a(serving_a, options);
  FeedDataset(&a, phase1, 1);
  ASSERT_TRUE(a.RunMiniEpoch());
  const uint64_t mid_fingerprint = nn::FingerprintModule(a.candidate());
  const ContinualTrainer::Stats mid = a.GetStats();

  // Trainer B: fresh process resuming A's checkpoint ("kill -9 between
  // mini-epochs"), then the same phase 2.
  rckt::RCKT serving_b(phase1.num_questions, phase1.num_concepts,
                       SmallConfig());
  ContinualTrainer b(serving_b, options);
  ASSERT_TRUE(b.LoadCheckpoint());
  EXPECT_EQ(nn::FingerprintModule(b.candidate()), mid_fingerprint)
      << "restored candidate weights differ from the checkpointed ones";
  ContinualTrainer::Stats resumed = b.GetStats();
  EXPECT_EQ(resumed.events, mid.events);
  EXPECT_EQ(resumed.mini_epochs, mid.mini_epochs);
  EXPECT_EQ(resumed.reservoir_fnv64, mid.reservoir_fnv64)
      << "restored reservoir diverged from the checkpointed one";

  FeedDataset(&a, phase2, 1);
  FeedDataset(&b, phase2, 1);
  EXPECT_EQ(a.GetStats().reservoir_fnv64, b.GetStats().reservoir_fnv64)
      << "reservoirs diverged after identical phase-2 traffic";
  EXPECT_EQ(nn::FingerprintModule(a.candidate()),
            nn::FingerprintModule(b.candidate()))
      << "weights diverged before the second mini-epoch even ran";
  {
    // The optimizer moments must round-trip bit-for-bit too — with equal
    // weights but diverged Adam state the second epoch would step apart.
    nn::Adam* oa = a.candidate().optimizer();
    nn::Adam* ob = b.candidate().optimizer();
    EXPECT_EQ(oa->step_count(), ob->step_count());
    auto digest = [](const std::vector<Tensor>& ts) {
      uint64_t h = 1469598103934665603ull;
      for (const Tensor& t : ts) {
        for (int64_t i = 0; i < t.numel(); ++i) {
          uint32_t bits;
          const float f = t.flat(i);
          std::memcpy(&bits, &f, 4);
          h = (h ^ bits) * 1099511628211ull;
        }
      }
      return h;
    };
    EXPECT_EQ(digest(oa->moment1()), digest(ob->moment1()))
        << "restored first moments differ";
    EXPECT_EQ(digest(oa->moment2()), digest(ob->moment2()))
        << "restored second moments differ";
  }
  ASSERT_TRUE(a.RunMiniEpoch());
  ASSERT_TRUE(b.RunMiniEpoch());
  // Equality here requires the optimizer moments round-tripped too: after
  // a restore with zeroed Adam state the same batch would step elsewhere.
  EXPECT_EQ(nn::FingerprintModule(a.candidate()),
            nn::FingerprintModule(b.candidate()))
      << "warm-restarted trainer diverged from the uninterrupted one";
}

// ---- publish-path crash safety ----

TEST(TrainerTest, TruncatedPublishedWeightsAreRejectedWholesale) {
  const data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig());
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/current.ktw";

  nn::ModelMeta meta;
  meta.encoder_kind = static_cast<int32_t>(rckt::EncoderKind::kDKT);
  meta.dim = 16;
  meta.num_layers = 2;
  meta.num_heads = 2;
  meta.num_questions = ds.num_questions;
  meta.num_concepts = ds.num_concepts;
  meta.weights_fnv64 = nn::FingerprintModule(model);
  meta.weight_version = 3;
  ASSERT_TRUE(nn::SaveModuleWithMeta(model, meta, path).ok());

  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char chunk[1 << 12];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.append(chunk, n);
    }
    std::fclose(f);
  }
  ASSERT_GT(bytes.size(), 16u);

  // A torn write truncates at an arbitrary byte; every prefix must fail
  // to load, leaving the target model untouched.
  const uint64_t before = nn::FingerprintModule(model);
  for (size_t cut = 1; cut < bytes.size(); cut += bytes.size() / 9 + 1) {
    const std::string torn_path = dir + "/torn.ktw";
    std::FILE* f = std::fopen(torn_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, f), cut);
    std::fclose(f);
    rckt::RCKT victim(ds.num_questions, ds.num_concepts, SmallConfig());
    EXPECT_FALSE(nn::LoadModule(victim, torn_path).ok())
        << "truncation at byte " << cut << " loaded anyway";
  }
  EXPECT_EQ(nn::FingerprintModule(model), before);

  // The intact file still carries its full meta (fingerprint + version).
  bool present = false;
  nn::ModelMeta read_back;
  ASSERT_TRUE(nn::ReadModuleMeta(path, &present, &read_back).ok());
  ASSERT_TRUE(present);
  EXPECT_EQ(read_back.weights_fnv64, meta.weights_fnv64);
  EXPECT_EQ(read_back.weight_version, 3);
}

// ---- hot swap on the shard set ----

serve::ServeRequest Predict(const std::string& student, int64_t question) {
  serve::ServeRequest r;
  r.op = serve::Op::kPredict;
  r.student = student;
  r.question = question;
  r.has_concepts = true;
  r.concepts = {question % 4};
  return r;
}

serve::ServeRequest Update(const std::string& student, int64_t question,
                           int response) {
  serve::ServeRequest r = Predict(student, question);
  r.op = serve::Op::kUpdate;
  r.response = response;
  return r;
}

TEST(SwapWeightsTest, RebuiltStreamsMatchFreshReplayUnderNewWeights) {
  const data::Dataset ds = TinyDataset();
  rckt::RcktConfig config_b = SmallConfig();
  config_b.seed = 99;  // genuinely different weights
  rckt::RCKT model_b(ds.num_questions, ds.num_concepts, config_b);
  const std::vector<Tensor> state_b = model_b.StateClone();
  const uint64_t fingerprint_b = nn::FingerprintModule(model_b);

  auto feed = [&](serve::ShardSet& shards) {
    for (int step = 0; step < 8; ++step) {
      for (const char* student : {"sa", "sb", "sc"}) {
        ASSERT_TRUE(
            shards.SubmitSync(Update(student, (step * 5) % 25, step % 2)).ok);
      }
    }
  };

  // Swapped server: history accumulated under A, then hot-swapped to B.
  rckt::RCKT model_a(ds.num_questions, ds.num_concepts, SmallConfig());
  serve::ShardSetOptions options;
  options.shards = 2;
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  serve::ShardSet swapped(model_a, options, nullptr);
  feed(swapped);
  ASSERT_TRUE(swapped.SwapWeights(state_b, fingerprint_b, 1));
  const serve::ServeResponse after = swapped.SubmitSync(Predict("sb", 7));
  ASSERT_TRUE(after.ok) << after.error;

  // Reference: a server that ran under B's weights from the start.
  rckt::RCKT model_fresh(ds.num_questions, ds.num_concepts, config_b);
  serve::ShardSet fresh(model_fresh, options, nullptr);
  feed(fresh);
  const serve::ServeResponse want = fresh.SubmitSync(Predict("sb", 7));
  ASSERT_TRUE(want.ok) << want.error;

  EXPECT_EQ(Bits(want.p), Bits(after.p))
      << "post-swap rebuild is not bit-identical to a fresh replay";
  EXPECT_EQ(after.history, want.history) << "swap dropped history";

  // stats reflects the new identity on every shard.
  serve::ServeRequest stats;
  stats.op = serve::Op::kStats;
  const serve::ServeResponse summed = swapped.SubmitSync(stats);
  ASSERT_TRUE(summed.ok);
  EXPECT_EQ(summed.model_fingerprint, fingerprint_b);
  EXPECT_EQ(summed.weight_version, 1);
  swapped.Stop();
  fresh.Stop();
}

TEST(SwapWeightsTest, StatsReportStartupIdentityBeforeAnySwap) {
  const data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig());
  serve::ShardSetOptions options;
  options.shards = 2;
  options.initial_weight_version = 7;
  options.engine.num_questions = ds.num_questions;
  options.engine.num_concepts = ds.num_concepts;
  options.engine.model_fingerprint = nn::FingerprintModule(model);
  serve::ShardSet shards(model, options, nullptr);
  serve::ServeRequest stats;
  stats.op = serve::Op::kStats;
  const serve::ServeResponse got = shards.SubmitSync(stats);
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.model_fingerprint, options.engine.model_fingerprint);
  EXPECT_EQ(got.weight_version, 7);
}

// ---- cold tier fingerprint guard ----

// A snapshot written under one model's weights must NOT resume as a
// stream under another model: the stream bytes are a function of the
// weights. Old code ignored the fingerprint and served the stale state.
TEST(ColdTierFingerprintTest, StaleModelSnapshotIsAMissWithHistoryAdopted) {
  const data::Dataset ds = TinyDataset();
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallConfig());
  const std::string cold_dir = MakeTempDir();

  serve::EngineOptions options;
  options.num_questions = ds.num_questions;
  options.num_concepts = ds.num_concepts;
  serve::InferenceEngine engine(model, options);
  ASSERT_TRUE(engine.Execute(Update("s", 1, 1)).ok);
  ASSERT_TRUE(engine.Execute(Update("s", 4, 0)).ok);
  serve::Session* live =
      const_cast<serve::SessionStore&>(engine.sessions()).Find("s");
  ASSERT_NE(live, nullptr);

  serve::ColdTier old_model_tier(cold_dir, model.bi_encoder(),
                                 model.config().encoder, model.config().dim,
                                 model.config().num_layers,
                                 /*model_fingerprint=*/0x1111);
  ASSERT_TRUE(old_model_tier.Save(*live));

  // Same directory, new weights fingerprint (post-swap server).
  serve::ColdTier new_model_tier(cold_dir, model.bi_encoder(),
                                 model.config().encoder, model.config().dim,
                                 model.config().num_layers,
                                 /*model_fingerprint=*/0x2222);
  serve::Session restored;
  restored.id = "s";
  EXPECT_FALSE(new_model_tier.Load(&restored))
      << "stale-model snapshot resumed as a live stream";
  EXPECT_EQ(restored.stream, nullptr);
  // History is model-independent ground truth: the warm-restart path
  // still adopts it so the replay rebuild has something to replay.
  ASSERT_EQ(restored.history.size(), live->history.size());
  EXPECT_EQ(restored.history[0].question, 1);
  EXPECT_EQ(restored.history[1].question, 4);

  // The stale snapshot was deleted; a second load is a clean miss.
  serve::Session again;
  again.id = "s";
  EXPECT_FALSE(new_model_tier.Load(&again));
  EXPECT_TRUE(again.history.empty()) << "deleted snapshot resurfaced";

  // Matching fingerprint still round-trips (the guard is not a tombstone).
  ASSERT_TRUE(old_model_tier.Save(*live));
  serve::Session same;
  same.id = "s";
  EXPECT_TRUE(old_model_tier.Load(&same));
  EXPECT_NE(same.stream, nullptr);
}

// ---- end-to-end drift -> promotion ----

TEST(TrainerTest, DriftingStreamDrivesAPromotionThroughTheShardSet) {
  const data::Dataset ds = TinyDataset(31);
  rckt::RCKT serving(ds.num_questions, ds.num_concepts, SmallConfig());
  const uint64_t offline_fingerprint = nn::FingerprintModule(serving);

  serve::ShardSetOptions shard_options;
  shard_options.shards = 2;
  shard_options.engine.num_questions = ds.num_questions;
  shard_options.engine.num_concepts = ds.num_concepts;
  shard_options.engine.model_fingerprint = offline_fingerprint;
  serve::ShardSet shards(serving, shard_options, nullptr);

  TrainerOptions options;
  options.dir = MakeTempDir();
  options.shards = 2;
  options.window = 8;
  options.min_history = 2;
  options.holdout_every = 4;
  options.reservoir_capacity = 128;
  options.tail_capacity = 32;
  options.gate_min_samples = 8;
  options.gate_eps = 0.05;
  options.lr = 1e-3f;
  options.seed = 5;
  ContinualTrainer trainer(serving, options);
  // No Start(): the loop is driven synchronously here, so a promotion
  // installs the candidate into `serving` directly; the explicit
  // SwapWeights below then exercises the live-shard propagation.
  FeedDataset(&trainer, ds, 2);

  // Promotion gate: the candidate trained on live traffic only has to
  // not lose to the frozen incumbent by more than gate_eps, which holds
  // with margin for an untrained incumbent. Run epochs until one lands.
  bool promoted = false;
  for (int epoch = 0; epoch < 3 && !promoted; ++epoch) {
    ASSERT_TRUE(trainer.RunMiniEpoch());
    promoted = trainer.GetStats().promotions > 0;
  }
  ASSERT_TRUE(promoted) << "no promotion after 3 mini-epochs";

  const ContinualTrainer::Stats stats = trainer.GetStats();
  EXPECT_GE(stats.weight_version, 1);
  EXPECT_GT(stats.events, 0);
  EXPECT_GT(stats.reservoir_size, 0);

  // Without a shard set the promotion updated the serving model in place.
  EXPECT_EQ(nn::FingerprintModule(serving),
            nn::FingerprintModule(trainer.candidate()))
      << "promotion did not install the candidate weights";

  // The published artifact carries the promoted identity.
  bool present = false;
  nn::ModelMeta meta;
  ASSERT_TRUE(nn::ReadModuleMeta(options.dir + "/current.ktw", &present,
                                 &meta)
                  .ok());
  ASSERT_TRUE(present);
  EXPECT_EQ(meta.weights_fnv64, nn::FingerprintModule(serving));
  EXPECT_EQ(meta.weight_version, stats.weight_version);

  // And a swap through the live shard set propagates the identity to
  // stats (what check_continual.sh reads via the loadgen windows).
  ASSERT_TRUE(shards.SwapWeights(trainer.candidate().StateClone(),
                                 meta.weights_fnv64, meta.weight_version));
  serve::ServeRequest stats_op;
  stats_op.op = serve::Op::kStats;
  const serve::ServeResponse reply = shards.SubmitSync(stats_op);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.model_fingerprint, meta.weights_fnv64);
  EXPECT_EQ(reply.weight_version, meta.weight_version);
  shards.Stop();
}

}  // namespace
}  // namespace continual
}  // namespace kt

// kt::obs tests: exact counters under kt::parallel, histograms, scoped
// timers, Chrome trace emission, the JSONL run log, flag wiring — and the
// subsystem's core contract: observability on or off never changes a loss,
// an influence score, or a serialized model byte, at any thread count.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "core/fileio.h"
#include "core/flags.h"
#include "core/parallel.h"
#include "data/simulator.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "obs/obs_flags.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"

namespace kt {
namespace obs {
namespace {

// Every test in this file leaves the obs runtime the way it found it:
// disabled, no tracing, no run log, zeroed metrics. The A/B test below
// depends on "off" really meaning off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = GetNumThreads();
    Cleanup();
  }
  void TearDown() override {
    Cleanup();
    SetNumThreads(saved_threads_);
  }
  static void Cleanup() {
    (void)StopTracing();
    ResetRunLog();
    SetEnabled(false);
    ResetAllMetrics();
  }
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "obs_test_" + name;
  }
  int saved_threads_ = 1;
};

TEST_F(ObsTest, CounterCountsExactlyUnderParallelFor) {
  SetEnabled(true);
  Counter* counter = Counter::Get("test.parallel_adds");
  counter->Reset();
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    counter->Reset();
    constexpr int64_t kN = 100000;
    ParallelForRange(0, kN, /*grain=*/128,
                     [&](int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) counter->Add(1);
                     });
    EXPECT_EQ(counter->Value(), kN) << "lost increments at threads=" << threads;
  }
}

TEST_F(ObsTest, CounterRegistryReturnsStablePointers) {
  Counter* a = Counter::Get("test.stable");
  Counter* b = Counter::Get("test.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "test.stable");
  a->Add(3);
  a->Add(4);
  EXPECT_EQ(b->Value(), 7);
  a->Reset();
  EXPECT_EQ(b->Value(), 0);
}

TEST_F(ObsTest, HistogramTracksExactCountSumMinMax) {
  Histogram* hist = Histogram::Get("test.hist");
  hist->Reset();
  hist->Record(3.0);
  hist->Record(100.0);
  hist->Record(0.25);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 103.25);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_NEAR(snap.Mean(), 103.25 / 3.0, 1e-12);
  // Bucket-resolution percentiles: p0 lands in the sub-1 bucket, p100 in
  // the bucket holding 100 (64 <= 100 < 128).
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 128.0);
}

TEST_F(ObsTest, HistogramExactUnderParallelRecording) {
  SetNumThreads(8);
  Histogram* hist = Histogram::Get("test.parallel_hist");
  hist->Reset();
  constexpr int64_t kN = 20000;
  ParallelForRange(0, kN, /*grain=*/64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hist->Record(2.0);
  });
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0 * static_cast<double>(kN));
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);
}

TEST_F(ObsTest, ScopedTimerRecordsOnlyWhenEnabled) {
  Histogram* hist = Histogram::Get("test/scope");
  hist->Reset();
  {  // disabled: no clock call, no record
    KT_OBS_SCOPE("test/scope");
  }
  EXPECT_EQ(hist->Snapshot().count, 0);
  SetEnabled(true);
  {
    KT_OBS_SCOPE("test/scope");
  }
  SetEnabled(false);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_GE(snap.min, 0.0);
}

TEST_F(ObsTest, SummaryStringListsNonEmptyMetrics) {
  SetEnabled(true);
  Counter::Get("test.summary_counter")->Add(5);
  Histogram::Get("test.summary_hist")->Record(10.0);
  const std::string summary = SummaryString();
  EXPECT_NE(summary.find("test.summary_counter = 5"), std::string::npos);
  EXPECT_NE(summary.find("test.summary_hist"), std::string::npos);
}

TEST_F(ObsTest, CurrentRssBytesIsPositiveOnLinux) {
#ifdef __linux__
  EXPECT_GT(CurrentRssBytes(), 0);
#endif
}

TEST_F(ObsTest, ResourceUsageCountsFaultsOfFreshMemory) {
#ifdef __linux__
  const ResourceUsage before = CurrentResourceUsage();
  // Fresh anonymous pages fault on first touch, whatever the allocator does.
  const size_t bytes = size_t{8} << 20;
  void* fresh = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(fresh, MAP_FAILED);
  std::memset(fresh, 1, bytes);
  ::munmap(fresh, bytes);
  const ResourceUsage after = CurrentResourceUsage();
  EXPECT_GE(after.minflt - before.minflt,
            static_cast<int64_t>(bytes / ::sysconf(_SC_PAGESIZE) / 2));
  EXPECT_GE(after.sys_ms, before.sys_ms);
#endif
}

// ---- Chrome trace emission ----

TEST_F(ObsTest, TraceFileIsValidChromeTraceJson) {
  const std::string path = TempPath("trace.json");
  StartTracing(path);
  EXPECT_TRUE(TracingActive());
  EXPECT_TRUE(Enabled()) << "tracing implies metric recording";
  {
    KT_OBS_SCOPE("trace/outer");
    SetNumThreads(4);
    ParallelForRange(0, 64, /*grain=*/4, [&](int64_t begin, int64_t end) {
      KT_OBS_SCOPE("trace/chunk");
      (void)begin;
      (void)end;
    });
  }
  ASSERT_TRUE(StopTracing().ok());
  EXPECT_FALSE(TracingActive());

  std::string json;
  ASSERT_TRUE(ReadFileToString(path, &json).ok());
  // Structural checks (tools/obs_check.cc runs the full validator): the
  // envelope, the metadata naming the main track, both scope names, and
  // complete-event slices.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"trace/outer\""), std::string::npos);
  EXPECT_NE(json.find("\"trace/chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces/brackets are a cheap proxy for well-formed JSON here.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(ObsTest, StopTracingWithoutStartIsOk) {
  EXPECT_TRUE(StopTracing().ok());
}

// ---- Run log ----

TEST_F(ObsTest, RunLogWritesOneJsonObjectPerEpoch) {
  const std::string path = TempPath("run.jsonl");
  SetRunLogPath(path);
  EXPECT_TRUE(RunLogActive());
  EXPECT_TRUE(Enabled()) << "run log implies metric recording";

  RunLogEntry entry;
  entry.run = "test-model";
  entry.epoch = 0;
  entry.train_loss = 0.693;
  entry.val_auc = 0.5;
  entry.val_acc = 0.5;
  entry.epoch_ms = 2000.0;
  entry.tokens = 1000;
  entry.gemm_flops = 123456;
  entry.ckpt_ms = 1.5;
  AppendRunLogEntry(entry);
  entry.epoch = 1;
  AppendRunLogEntry(entry);

  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  // Two newline-terminated lines, each a flat JSON object with the schema
  // keys; tokens_per_sec is derived (1000 tokens / 2s = 500/s).
  size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"run\":\"test-model\""), std::string::npos);
  EXPECT_NE(text.find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(text.find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(text.find("\"tokens_per_sec\":500.0"), std::string::npos);
  EXPECT_NE(text.find("\"gemm_flops\":123456"), std::string::npos);
  EXPECT_NE(text.find("\"rss_bytes\":"), std::string::npos);
  EXPECT_NE(text.find("\"peak_rss_bytes\":"), std::string::npos);
  EXPECT_NE(text.find("\"minflt\":"), std::string::npos);
  EXPECT_NE(text.find("\"sys_ms\":"), std::string::npos);
  EXPECT_NE(text.find("\"threads\":" + std::to_string(GetNumThreads()) +
                      "}"),
            std::string::npos);

  ResetRunLog();
  EXPECT_FALSE(RunLogActive());
}

TEST_F(ObsTest, RunLogEscapesRunTag) {
  const std::string path = TempPath("run_escape.jsonl");
  SetRunLogPath(path);
  RunLogEntry entry;
  entry.run = "model \"quoted\"\nline";
  AppendRunLogEntry(entry);
  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  EXPECT_NE(text.find("model \\\"quoted\\\"\\nline"), std::string::npos);
}

// ---- Flag wiring ----

TEST_F(ObsTest, ApplyCommonObsFlagsArmsRunLogAndRecording) {
  CommonFlagValues values;
  values.run_log_path = TempPath("flags_run.jsonl");
  ApplyCommonObsFlags(values);
  EXPECT_TRUE(RunLogActive());
  EXPECT_TRUE(Enabled());
}

TEST_F(ObsTest, ApplyCommonObsFlagsDefaultIsInert) {
  ApplyCommonObsFlags(CommonFlagValues{});
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(TracingActive());
  EXPECT_FALSE(RunLogActive());
}

// ---- The A/B contract ----

bool BitEqualFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

data::Dataset ObsTinyDataset() {
  data::SimulatorConfig config;
  config.num_students = 30;
  config.num_questions = 25;
  config.num_concepts = 4;
  config.min_responses = 8;
  config.max_responses = 16;
  config.seed = 9;
  data::StudentSimulator sim(config);
  return sim.Generate();
}

rckt::RcktConfig ObsSmallRckt() {
  rckt::RcktConfig config;
  config.encoder = rckt::EncoderKind::kDKT;
  config.dim = 16;
  config.num_layers = 1;
  config.dropout = 0.0f;
  config.lr = 3e-3f;
  config.lambda = 0.1f;
  config.seed = 4;
  return config;
}

// One short training trajectory: a few optimizer steps, the resulting
// influence scores, and the serialized model bytes.
struct Trajectory {
  std::vector<float> losses;
  std::vector<float> scores;
  std::string model_bytes;
};

Trajectory RunTrajectory(const data::Dataset& ds, const std::string& save_path) {
  rckt::RCKT model(ds.num_questions, ds.num_concepts, ObsSmallRckt());
  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 7) samples.push_back({&seq, 7});
    if (samples.size() == 4) break;
  }
  data::Batch batch = rckt::MakePrefixBatch(samples);
  Trajectory out;
  for (int step = 0; step < 3; ++step) {
    out.losses.push_back(model.TrainStep(batch));
  }
  out.scores = model.ScoreTargets(batch);
  KT_CHECK(nn::SaveModule(model, save_path).ok());
  KT_CHECK(ReadFileToString(save_path, &out.model_bytes).ok());
  return out;
}

// The acceptance contract: with observability off (the default) the
// instrumented build behaves exactly like the pre-instrumentation build,
// and turning every obs feature on (counters, tracing, run log) changes
// nothing about the computation — same losses, same influence scores, same
// serialized bytes — at 1, 2, and 8 threads.
TEST_F(ObsTest, TelemetryOnOffIsBitIdenticalAcrossThreadCounts) {
  data::Dataset ds = ObsTinyDataset();
  Trajectory reference;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);

    Cleanup();  // obs fully off
    Trajectory off = RunTrajectory(ds, TempPath("ab_off.ktw"));

    SetEnabled(true);
    StartTracing(TempPath("ab_trace.json"));
    SetRunLogPath(TempPath("ab_run.jsonl"));
    Trajectory on = RunTrajectory(ds, TempPath("ab_on.ktw"));
    ASSERT_TRUE(StopTracing().ok());
    ResetRunLog();
    SetEnabled(false);

    EXPECT_TRUE(BitEqualFloats(off.losses, on.losses))
        << "losses diverge at threads=" << threads;
    EXPECT_TRUE(BitEqualFloats(off.scores, on.scores))
        << "influence scores diverge at threads=" << threads;
    EXPECT_EQ(off.model_bytes, on.model_bytes)
        << "serialized model bytes diverge at threads=" << threads;

    // And the PR 1 invariant composes with obs: identical across threads.
    if (reference.losses.empty()) {
      reference = off;
    } else {
      EXPECT_TRUE(BitEqualFloats(off.losses, reference.losses));
      EXPECT_TRUE(BitEqualFloats(off.scores, reference.scores));
      EXPECT_EQ(off.model_bytes, reference.model_bytes);
    }
  }
}

// One train step times each of its phases exactly once, and timing them
// leaves the step's loss and the trained weights bit-identical.
TEST_F(ObsTest, TrainStepRecordsEachPhaseOnce) {
  data::Dataset ds = ObsTinyDataset();
  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 7) samples.push_back({&seq, 7});
    if (samples.size() == 4) break;
  }
  const data::Batch batch = rckt::MakePrefixBatch(samples);
  auto step = [&](const std::string& save_path, std::string* model_bytes) {
    rckt::RCKT model(ds.num_questions, ds.num_concepts, ObsSmallRckt());
    const float loss = model.TrainStep(batch);
    KT_CHECK(nn::SaveModule(model, save_path).ok());
    KT_CHECK(ReadFileToString(save_path, model_bytes).ok());
    return loss;
  };
  std::string off_bytes, on_bytes;
  const float off = step(TempPath("phase_off.ktw"), &off_bytes);
  SetEnabled(true);
  const float on = step(TempPath("phase_on.ktw"), &on_bytes);
  SetEnabled(false);
  for (const char* scope :
       {"rckt/train_step", "rckt/forward", "rckt/embed", "rckt/encode",
        "rckt/head", "rckt/loss", "rckt/backward", "rckt/adam"}) {
    EXPECT_EQ(Histogram::Get(scope)->Snapshot().count, 1) << scope;
  }
  EXPECT_TRUE(BitEqualFloats({off}, {on}));
  EXPECT_EQ(off_bytes, on_bytes);
}

// With telemetry on, the instrumented call sites actually fire: the GEMM
// counters count, the scope histograms fill, and the trace carries slices.
TEST_F(ObsTest, InstrumentationFiresWhenEnabled) {
  data::Dataset ds = ObsTinyDataset();
  SetEnabled(true);
  ResetAllMetrics();
  const std::string trace_path = TempPath("fire_trace.json");
  StartTracing(trace_path);
  (void)RunTrajectory(ds, TempPath("fire.ktw"));
  ASSERT_TRUE(StopTracing().ok());

  EXPECT_GT(Counter::Get("gemm.calls")->Value(), 0);
  EXPECT_GT(Counter::Get("gemm.flops")->Value(), 0);
  EXPECT_GT(Counter::Get("rckt.fanout_passes")->Value(), 0);
  EXPECT_GT(Counter::Get("rckt.fanout_eval_passes")->Value(), 0);
  EXPECT_GT(Histogram::Get("rckt/train_step")->Snapshot().count, 0);
  EXPECT_GT(Histogram::Get("rckt/score_targets")->Snapshot().count, 0);

  std::string json;
  ASSERT_TRUE(ReadFileToString(trace_path, &json).ok());
  EXPECT_NE(json.find("rckt/train_step"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace kt

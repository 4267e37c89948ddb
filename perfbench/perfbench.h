// Shared pieces of kt_perfbench, the repository benchmark's load generator.
//
// kt_perfbench is one load-generator process. It starts the programs under
// test (`ktcli serve`, `ktcli train`) as child processes, drives them, and
// checks their outputs against an in-process replay through the same
// libraries. perfbench/README.md describes the workloads and metrics.
#ifndef KT_PERFBENCH_PERFBENCH_H_
#define KT_PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/simulator.h"
#include "rckt/rckt_model.h"
#include "serve/engine.h"
#include "serve/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ settings --
// Every workload parameter, fixed here so runs differ only by --seed.

// Served models: `ktcli simulate --preset assist09` at this scale and the
// preset's own seed, then `ktcli train --threads 1 --epochs 1`.
inline constexpr double kServeDataScale = 0.2;
inline constexpr uint64_t kServeDataSeed = 109;
inline constexpr int kServeModelEpochs = 1;
// Server starts per run; setup_s is their median. On a shared host a start
// takes 9 or 14 ms depending on spells of outside load that last a few
// hundred ms, so the starts are spread over seconds to sample many spells.
inline constexpr int kSetupStarts = 21;
inline constexpr int kSetupGapMs = 150;
// serve_c1_light: untimed ops before the measured window.
inline constexpr size_t kWarmupOps = 200;
// Ops of the traced pass's probe stream (plus the long-session probe).
inline constexpr size_t kProbeOps = 2400;
inline constexpr size_t kDefaultBudgetBytes = size_t{64} << 20;
inline constexpr int kMaxBatch = 16;  // ktcli serve --max-batch default
// serve_open_mixed.
inline constexpr int kOpenStudents = 64;
inline constexpr int kOpenFutureSteps = 100;
inline constexpr int kOpenNewSessionSteps = 200;
inline constexpr size_t kHeavyEvery = 50;  // 2% explain/recourse
inline constexpr int kOpenConnections = 4;
inline constexpr int kOpenShards = 2;
inline constexpr int kOpenBudgetMb = 3;
// Offered rates (ops/s), in run order, and each one's share of --seconds;
// the last rate is beyond saturation.
const std::vector<double>& OpenRates();
const std::vector<double>& OpenShares();
inline constexpr double kOpenReferenceRate = 500.0;
// Capacity at the last rate is BinnedRate over its replies with these.
inline constexpr double kOpenBinSkipSeconds = 0.5;
inline constexpr double kOpenBinSeconds = 0.1;
inline constexpr size_t kOpenWarmupWindow = 64;
inline constexpr int kOpenDrainSeconds = 20;
// A rate point whose generator ran later than this at p99 is invalid.
inline constexpr double kOpenMaxLagUs = 5000.0;
// "No growing backlog": at the end of a point's window at most this many
// ops (or this share of the point's ops) are still unanswered.
inline constexpr double kOpenBacklogFloor = 16.0;
inline constexpr double kOpenBacklogShare = 0.05;
// The latency limit of max_rate_at_slo_ops_s: predict p99 from due time.
inline constexpr double kOpenSloP99Us = 100000.0;
// Serve spans (decode + shard submit + serialize) may exceed the client
// round trip by at most this share.
inline constexpr double kSpanTolerance = 0.25;
// train_sakt.
inline constexpr double kTrainDataScale = 0.1;
inline constexpr int kTrainEpochs = 1;
inline constexpr int kTrainMinRepeats = 5;
inline constexpr int kTrainMaxRepeats = 16;
// Zero-epoch runs per round; setup_s takes their median.
inline constexpr int kTrainZeroRuns = 3;

// ---------------------------------------------------------------- stats --

// Exact nearest-rank percentile of raw samples (p in [0, 1]): the smallest
// sample with at least p of all samples at or below it. Empty input -> 0.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// The highest of p99/p90/p50 that has at least ten samples beyond it
// (0.99 needs n >= 1000, 0.9 needs n >= 100). 0 when n < 20.
double TailQuantile(int64_t n);

// Median events/s over bins of `bin_s` seconds, counting the events at
// `times_s` (seconds from the start) from `skip_s` up to the last whole bin.
// A host stall of a fraction of a second moves it much less than
// events / duration.
double BinnedRate(const std::vector<double>& times_s, double skip_s,
                  double bin_s);

// Seeded open-loop arrival schedule: Poisson arrivals at `rate_per_s`
// over [0, duration_s), as offsets in seconds from the start.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

// splitmix64: derives independent seeds from (seed, stream).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

std::string Hex(uint64_t v);

// Order-independent reply digests. Each student's replies fold left to
// right from serve::kFnvOffset; students combine by XOR. `pred` folds only
// predict probabilities (kt_loadgen's pred_fnv64); `all` folds every reply
// field that carries model output (predict p, history lengths, explain
// influences, recourse rankings).
struct Digest {
  uint64_t pred = 0;
  uint64_t all = 0;
};
class DigestBuilder {
 public:
  explicit DigestBuilder(size_t students);
  // Folds one parsed reply of `student`. Returns false (and folds nothing)
  // when the reply is not ok or its op differs from `op`. Calls for
  // different students may run on different threads.
  bool Add(size_t student, kt::serve::Op op, const kt::serve::JsonValue& reply);
  Digest Finish() const;

 private:
  std::vector<uint64_t> pred_;
  std::vector<uint64_t> all_;
};

// In-memory spans (name, start, end, parent span, request id), written as
// JSON lines at the end of a traced run. Single-threaded.
class SpanLog {
 public:
  // Returns the new span's id (ids start at 1; parent 0 = root).
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, int64_t request);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    int64_t request;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Checks of the code above; returns the number of failures (printed).
int SelfTest();

// -------------------------------------------------------------- reports --

// Every number a run produces, printed as "metric <name> = <value> <unit>
// (n=<samples>)" lines and emitted in the run's result JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  // A check that must hold for the run to count as correct.
  void Check(bool ok, const std::string& what);
  void CountOps(int64_t attempted, int64_t failed);
  // Extra JSON member (already serialized) for the result.
  void Detail(const std::string& key, const std::string& json_value);

  // Prints the metric lines and returns the result JSON object.
  std::string Finish(const std::string& workload, uint64_t seed, bool trace,
                     const std::string& environment_json) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> details_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ------------------------------------------------------------ processes --

// A child process (argv[0] is a path), stdout+stderr to `log_path`.
// The destructor kills and reaps a child that is still running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Running();
  // Waits up to `timeout_s`, then SIGKILLs and reaps. Returns the exit
  // code, or -1 when the child was killed or died of a signal.
  int Wait(double timeout_s);
  // Peak RSS (VmHWM, from ru_maxrss) in MiB; valid once reaped.
  double peak_rss_mb() const { return peak_rss_mb_; }
  // User + system CPU seconds of the child; valid once reaped.
  double cpu_s() const { return cpu_s_; }
  Clock::time_point start_time() const { return start_; }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  bool reaped_ = false;
  double peak_rss_mb_ = 0.0;
  double cpu_s_ = 0.0;
  Clock::time_point start_;
};

struct RunResult {
  int exit_code = -1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
RunResult RunToCompletion(const std::vector<std::string>& argv,
                          const std::string& log_path, double timeout_s);

std::string ReadFile(const std::string& path);
bool MakeDirs(const std::string& path);
// A TCP port on 127.0.0.1 that was free a moment ago.
int PickFreePort();

// ----------------------------------------------------------- the model --

// Restores a `ktcli train --save` file (KTW2 metadata chunk required).
std::unique_ptr<kt::rckt::RCKT> LoadModel(const std::string& path,
                                          std::string* error);
// The windowed dataset `ktcli serve --data` / `ktcli train --data` build.
bool LoadWindows(const std::string& csv, kt::data::Dataset* out,
                 std::string* error);

// A model trained by `ktcli train`, with what it takes to replicate it.
struct ServedModel {
  std::string data;       // CSV it was trained on
  std::string model;      // .ktw
  std::string train_log;  // ktcli train's output (test AUC line)
  std::string encoder = "dkt";
  int epochs = kServeModelEpochs;
  uint64_t train_seed = 1;         // ktcli train --seed
  kt::data::SimulatorConfig bank;  // simulator config behind `data`
};

// ------------------------------------------------------------- traffic --

// explain and recourse: the O(T) ops ShardSet runs on its heavy lane.
inline bool IsHeavy(kt::serve::Op op) {
  return op == kt::serve::Op::kExplain || op == kt::serve::Op::kRecourse;
}

// One request of a workload's op stream. `student` indexes the traffic's
// student table; `step` is the interaction the op is about.
struct TrafficOp {
  kt::serve::Op op = kt::serve::Op::kPredict;
  int32_t student = 0;
  int32_t step = 0;
};

// Students drawn from the simulator bank a model was trained on, keyed by
// the workload seed. Interactions with ids the model does not know are
// dropped, so no request is refused.
class Traffic {
 public:
  Traffic(const kt::data::SimulatorConfig& bank, uint64_t seed,
          int64_t num_questions, int64_t num_concepts);

  // Appends a new student with up to `length` interactions.
  int32_t AddStudent(int64_t length);
  const kt::data::ResponseSequence& student(int32_t i) const {
    return students_[static_cast<size_t>(i)];
  }
  size_t students() const { return students_.size(); }
  uint64_t seed() const { return seed_; }

  std::string RequestLine(const TrafficOp& op) const;
  kt::serve::ServeRequest Request(const TrafficOp& op) const;

 private:
  uint64_t seed_;
  int64_t num_questions_;
  int64_t num_concepts_;
  std::unique_ptr<kt::data::StudentSimulator> simulator_;
  std::vector<kt::data::ResponseSequence> students_;
};

// The simulator config of every dataset of the benchmark.
kt::data::SimulatorConfig BenchPreset(double scale, uint64_t seed);

// Appends short sessions (predict-then-update over 20..50 interactions,
// one student after another) until `ops` holds at least `min_ops` ops.
void AppendShortSessions(Traffic& traffic, std::vector<TrafficOp>* ops,
                         size_t min_ops);

// A fixed long-session probe: three students fed to 160 interactions,
// with explain and recourse every 40 steps.
void AppendLongProbe(Traffic& traffic, std::vector<TrafficOp>* ops);

// -------------------------------------------------------------- servers --

struct ServerConfig {
  std::string model;               // --load
  std::string data;                // --data (concept map)
  std::vector<std::string> flags;  // anything beyond the defaults
  int shards = 1;                  // as passed in `flags`
};

// A `ktcli serve` on a fresh port.
class Server {
 public:
  // Starts the server and waits for its first good reply.
  bool Start(const std::string& ktcli, const ServerConfig& config,
             const std::string& log_path, std::string* error);
  // Reads `stats` into *stats (when given), sends `shutdown`, and reaps.
  bool Stop(kt::serve::JsonValue* stats);
  int port() const { return port_; }
  double setup_s() const { return setup_s_; }
  double peak_rss_mb() const;

 private:
  std::unique_ptr<Child> child_;
  int port_ = 0;
  double setup_s_ = 0.0;
};

// ------------------------------------------------------------- replays --

struct OpTiming {
  double decode_us = 0.0;
  double engine_us = 0.0;
  double serialize_us = 0.0;
  int64_t history = 0;  // session length after the op
};

struct ReplayResult {
  std::vector<OpTiming> ops;
  Digest digest;
  int64_t failed = 0;
};

// Feeds `ops` through one in-process InferenceEngine, timing DecodeLine,
// Execute and SerializeResponse per op.
ReplayResult EngineReplay(kt::rckt::RCKT& model,
                          const kt::data::Dataset& windows,
                          const Traffic& traffic,
                          const std::vector<TrafficOp>& ops,
                          size_t budget_bytes, SpanLog* spans);

struct TrainOutcome {
  uint64_t fingerprint = 0;
  std::string test_auc;  // as `ktcli train` prints it (%.4f)
  double wall_s = 0.0;
  int64_t tokens_per_epoch = 0;  // sum of batch_size * max_len
  std::vector<double> step_us;   // timed run only
  std::vector<double> score_us;  // timed run only
};

// The steps of `ktcli train --data <windows> --encoder <e> --epochs <n>
// --seed <s>`
// in-process: through rckt::TrainAndEvaluateRckt, or (timed) through the
// same calls made from here with each TrainStep / ScoreTargets timed.
TrainOutcome TrainLikeKtcli(const kt::data::Dataset& windows,
                            const std::string& encoder, int epochs,
                            uint64_t seed, bool timed, SpanLog* spans);

// Checks a `ktcli train` model file and log against a replica.
bool CheckAgainstKtcli(const TrainOutcome& replica,
                       const std::string& model_path,
                       const std::string& train_log, Report* report);

// ------------------------------------------------------------ workloads --

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ktcli;        // the built ktcli
  std::string work_dir;     // cache root (served models)
  std::string run_dir;      // this run's scratch files
  std::string results_dir;  // span files
};

// Trains (once per work_dir) the model `ktcli serve` loads.
bool PrepareServeModel(const Options& options, const std::string& encoder,
                       ServedModel* out, std::string* error);

struct ProbeSpec {
  ServedModel served;
  ServerConfig server;
  int connections = 1;
  size_t budget_bytes = kDefaultBudgetBytes;
};

// The traced pass shared by every workload (see trace.cc).
int RunTracePass(const Options& options, const ProbeSpec& spec,
                 kt::rckt::RCKT& model, const kt::data::Dataset& windows,
                 Traffic& traffic, std::vector<TrafficOp> ops, Report* report);

int RunServeC1Light(const Options& options, Report* report);
int RunServeOpenMixed(const Options& options, Report* report);
int RunTrainSakt(const Options& options, Report* report);

}  // namespace perfbench

#endif  // KT_PERFBENCH_PERFBENCH_H_

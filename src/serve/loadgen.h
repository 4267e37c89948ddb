// kt::serve load-generation support: the testable core of tools/kt_loadgen.
//
// tools/kt_loadgen.cc keeps only flag parsing and what each mode sends
// and folds; everything with a failure mode worth unit-testing lives here:
//   * LineClient        — blocking NDJSON round-trip client (TCP loopback),
//                         with explicit errors for refused connections and
//                         mid-stream server disconnects,
//   * Call              — one checked, timed round trip: every request of
//                         every mode goes through it, so a refused traffic
//                         request (update and reset included) fails the run,
//   * RunConnections    — the one connection driver all four modes share,
//   * ParseExpectedPredictions — the `ktcli evaluate --json` reader behind
//                         --expect, returning Status instead of dying on
//                         malformed input,
//   * CheckPredictions  — the online-vs-offline bitwise mismatch checker,
//   * SummarizeLatencies / summary-JSON builders for all four modes,
//   * RollingAuc        — bounded ring of (score, label) pairs for the
//                         scenario mode's rolling online AUC at scales
//                         where keeping every prediction is not an option.
//
// Everything here is deterministic given its inputs: the JSON builders
// format through kt::JsonWriter (shortest round-trip doubles), and
// RollingAuc::Auc delegates to eval::ComputeAuc, which is permutation-
// invariant — merging per-worker rings in any order yields one AUC.
#ifndef KT_SERVE_LOADGEN_H_
#define KT_SERVE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hash.h"
#include "core/json.h"
#include "core/status.h"

namespace kt {
namespace serve {

// Blocking line-oriented client connection to 127.0.0.1:port.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port, std::string* error);

  // Sends one request line and reads the one response line. On failure
  // (send error or server-side disconnect) fills *error and returns false.
  bool RoundTrip(const std::string& line, std::string* response,
                 std::string* error);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Sends `line`, reads the reply into *reply and requires it to parse with
// "ok":true. Returns the round-trip time in µs (send to reply, not the
// parse); on failure the error names the request and carries the reply.
Result<double> Call(LineClient& client, const std::string& line,
                     JsonValue* reply);

// The number of connections RunConnections opens for `units` units:
// clamp(connections, 1, units), and 1 when there are no units.
int ConnectionCount(int connections, int64_t units);

struct ConnectionRun {
  int connections = 0;              // connections opened (ConnectionCount)
  double elapsed_s = 0.0;           // first spawn to last join
  std::vector<std::string> errors;  // each failed worker's first error
};

// A RunConnections result: the driver's figures plus worker w's Local at
// locals[w].
template <typename Local>
struct ConnectionResults : ConnectionRun {
  std::vector<Local> locals;
};

namespace internal {
// The type-erased driver behind RunConnections: opens exactly `n`
// connections and runs body(client, worker, unit) on them.
void DriveConnections(
    int port, int n, int64_t units,
    const std::function<Status(LineClient&, int, int64_t)>& body,
    ConnectionRun* run);
}  // namespace internal

// Opens n = ConnectionCount(connections, units) connections to
// 127.0.0.1:port, one thread, one LineClient and one copy of `init` each;
// worker w calls body(client, local, unit) -> Status for units w, w + n,
// w + 2n, ... in order. A worker whose connect or body fails stops there;
// errors come back in worker order. Each mode folds `locals` after the
// call, in worker order, so no fold takes a lock.
template <typename Local, typename Body>
ConnectionResults<Local> RunConnections(int port, int connections,
                                        int64_t units, const Local& init,
                                        const Body& body) {
  ConnectionResults<Local> run;
  const int n = ConnectionCount(connections, units);
  run.locals.assign(static_cast<size_t>(n), init);
  internal::DriveConnections(
      port, n, units,
      [&](LineClient& client, int w, int64_t unit) -> Status {
        return body(client, run.locals[static_cast<size_t>(w)], unit);
      },
      &run);
  return run;
}

// NDJSON request lines understood by `ktcli serve`.
std::string PredictLine(const std::string& student, int64_t question,
                        const std::vector<int64_t>& concepts);
std::string UpdateLine(const std::string& student, int64_t question,
                       const std::vector<int64_t>& concepts, int response);
// Erases the student's session server-side. Recourse traffic sends this
// before (re)feeding a window so repeated runs against one warm server —
// the fast-vs-brute and shard-parity gates — see identical histories.
std::string ResetLine(const std::string& student);
// Recourse request: target_p < 0 and an empty insert list omit those
// fields (engine defaults apply); brute is only written when true.
std::string RecourseLine(const std::string& student, int64_t question,
                         const std::vector<int64_t>& concepts, int k, int top,
                         double target_p,
                         const std::vector<int64_t>& insert_questions,
                         bool brute);

uint32_t FloatBits(float f);

// (sequence, target) -> probability, the key space shared by the offline
// scorer (`ktcli evaluate --json`) and the replay client.
using PredictionMap = std::map<std::pair<int64_t, int64_t>, float>;

// The --expect file contents: offline generator scores plus the sampling
// parameters they were produced with (so online replay can never disagree
// with the offline scorer about which samples exist).
struct ExpectedPredictions {
  int64_t stride = 0;
  int64_t min_target = 0;
  PredictionMap scores;
};

// Parses the JSON object written by `ktcli evaluate --json`. The defaults
// seed stride/min_target for legacy files that omit them. Fails (rather
// than aborting) on malformed JSON or a missing predictions array.
Result<ExpectedPredictions> ParseExpectedPredictions(
    const std::string& json_text, int64_t default_stride,
    int64_t default_min_target);

// Comparison of online probabilities against offline scores: float BIT
// patterns must match (which also catches sign-of-zero and NaN divergences
// a numeric compare would miss). The largest deviation seen is reported as
// a diagnostic.
struct MismatchReport {
  int64_t compared = 0;    // expected entries examined
  int64_t mismatches = 0;  // bit patterns differ
  int64_t missing = 0;     // expected but never predicted online
  double max_abs_err = 0.0;  // largest |online - offline| over compared
  // Human-readable lines for the first few mismatches.
  std::vector<std::string> details;

  bool ok() const { return mismatches == 0 && missing == 0; }
};
MismatchReport CheckPredictions(const PredictionMap& expected,
                                const PredictionMap& got,
                                int64_t max_details = 5);

struct LatencyStats {
  double p50_us = 0.0, p99_us = 0.0, mean_us = 0.0;
  int64_t count = 0;
};

// The exact nearest-rank q-quantile of ascending `sorted`: the element at
// index round(q * (n - 1)). Empty input yields 0.
double Percentile(const std::vector<double>& sorted, double q);

// Sorts `us` in place. Empty input yields all-zero stats (the
// empty-dataset path: a replay of zero windows is a valid, passing run).
LatencyStats SummarizeLatencies(std::vector<double>& us);

// One-line JSON summaries (stdout contract of kt_loadgen, consumed by
// scripts/check_serve.sh, scripts/check_scenarios.sh and tools/obs_check).
//
// The keys the closed-loop modes (replay, bench, recourse) share: the
// connections actually opened, the driver's wall time, and the latency of
// the round trips the mode times.
struct RunSummary {
  int connections = 0;
  double elapsed_s = 0.0;
  LatencyStats latency;
};

struct ReplaySummary : RunSummary {
  int64_t predictions = 0;
  MismatchReport check;
  // Online AUC of the replayed predictions against the dataset's actual
  // responses (0.5 when no predictions fired). Bitwise replay already pins
  // every probability, so this restates the offline AUC.
  double auc = 0.5;
  int64_t auc_samples = 0;
};
std::string ReplaySummaryJson(const ReplaySummary& s);

using BenchSummary = RunSummary;
std::string BenchSummaryJson(const BenchSummary& s);

// Recourse-mode report (kt_loadgen --mode recourse). recourse_fnv64 is
// the XOR across students of each student's FnvMixRecourseReply fold —
// two servers given the same traffic agree iff every recourse reply
// (base probability, candidate ranking, every intervention) is bitwise
// identical. scripts/check_serve.sh gates fast-vs-brute and
// --shards 1 vs --shards 4 on exactly this digest. `latency` covers the
// recourse round trips only.
struct RecourseSummary : RunSummary {
  int64_t students = 0;
  int64_t updates = 0;     // history updates sent
  int64_t recourses = 0;   // recourse ops sent
  int64_t candidates = 0;  // candidate sets returned in total
  double mean_top_lift = 0.0;  // mean best-candidate lift over students
  bool brute = false;
  uint64_t recourse_fnv64 = 0;
};
std::string RecourseSummaryJson(const RecourseSummary& s);

// Folds one parsed recourse reply into h: the float bits of base_p, the
// evaluated count, then per candidate its probability bits plus every
// intervention (type, position, question) in rank order.
uint64_t FnvMixRecourseReply(uint64_t h, const JsonValue& reply);

// One drift-replay phase of a scenario run (kt_loadgen --mode scenario
// --windows W): a contiguous chunk of the student range replayed with a
// fresh rolling-AUC ring, plus the serving model's identity polled from
// the `stats` op right after the chunk finished. check_continual.sh
// compares first-vs-last window AUC and weight_version to prove the
// continual trainer promoted (and that the promotion helped).
struct ScenarioWindow {
  int64_t index = 0;      // 0-based phase index
  int64_t students = 0;   // students replayed in this window
  double auc = 0.5;       // merged rolling AUC over this window only
  int64_t auc_samples = 0;
  int64_t weight_version = 0;     // from the post-window stats poll
  std::string model_fingerprint;  // 16-hex-digit, ditto
};

// Scenario-mode report (schema documented in DESIGN.md §12; validated by
// `obs_check scenario`). Latency percentiles come from kt::obs histogram
// snapshots (bucket resolution), not sorted vectors, so the report stays
// O(1) in the number of requests.
struct ScenarioSummary {
  std::string scenario;
  int connections = 0;
  uint64_t seed = 0;
  double scale = 1.0;
  int64_t students = 0;
  int64_t interactions = 0;  // update ops sent
  int64_t predictions = 0;   // predict ops sent
  double elapsed_s = 0.0;
  double throughput_rps = 0.0;
  double auc = 0.5;          // rolling online AUC over the last auc_window
  int64_t auc_samples = 0;   // pairs inside the rolling window at the end
  int64_t auc_window = 0;
  double predict_p50_us = 0.0, predict_p99_us = 0.0, predict_mean_us = 0.0;
  double update_p50_us = 0.0, update_p99_us = 0.0, update_mean_us = 0.0;
  // Order-independent FNV-1a digest of the generated traffic (question,
  // concepts, response per interaction, XOR-combined across students):
  // equal across runs iff the scenario stream is bit-identical.
  uint64_t traffic_fnv64 = 0;
  // Same structure over the SERVER's replies: the float bits of every
  // predict probability, folded per student and XOR-combined. Two servers
  // given the same scenario agree on pred_fnv64 iff every prediction is
  // bitwise identical — the cross-configuration parity gate (e.g.
  // --shards 1 vs --shards 8 in scripts/check_scenarios.sh).
  uint64_t pred_fnv64 = 0;
  // Serving model identity from the final `stats` poll: the KTW2 weight
  // fingerprint (16 hex digits) and monotone weight version. Under
  // `serve --continual` the version advances on every promotion, so a
  // first-vs-last mismatch across drift windows proves a hot swap landed.
  std::string model_fingerprint;
  int64_t weight_version = 0;
  // Per-phase breakdown when --windows > 1 (empty for single-window runs).
  std::vector<ScenarioWindow> window_stats;
};
std::string ScenarioSummaryJson(const ScenarioSummary& s);

// Bounded ring of (score, label) pairs: the newest `window` predictions.
// Per-worker rings are Merge()d after the join; Auc() is then a single
// eval::ComputeAuc over the union, deterministic for a fixed worker count.
class RollingAuc {
 public:
  explicit RollingAuc(int64_t window);

  void Add(float score, int label);
  void Merge(const RollingAuc& other);

  // AUC over the ring contents (0.5 when one class is absent or empty).
  double Auc() const;
  int64_t count() const { return static_cast<int64_t>(scores_.size()); }
  int64_t window() const { return window_; }

 private:
  int64_t window_;
  size_t next_ = 0;  // overwrite cursor once the ring is full
  std::vector<float> scores_;
  std::vector<int> labels_;
};

// FNV-1a over one interaction, for ScenarioSummary::traffic_fnv64. Fold
// each student's interactions left-to-right starting from `h` (pass
// kFnvOffset for the first), then XOR the per-student digests together.
using ::kt::FnvMixU64;
using ::kt::kFnvOffset;
uint64_t FnvMixInteraction(uint64_t h, int64_t question,
                           const std::vector<int64_t>& concepts,
                           int response);

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_LOADGEN_H_

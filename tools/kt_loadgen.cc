// kt_loadgen — load generator / replay client for `ktcli serve`.
//
// Modes (--mode):
//   replay  (default) Replays a CSV dataset against a running server: every
//           student's interactions become update ops on session "s<i>", and
//           at every offline evaluation target (the same positions `ktcli
//           evaluate --json` scores: MakePrefixSamples(stride, min_target))
//           a predict op fires BEFORE the update, so the server sees exactly
//           the history the offline scorer saw. With --expect FILE (the
//           JSON object written by `ktcli evaluate --json`) every online
//           probability is compared BIT-FOR-BIT against the offline
//           generator_score; any mismatch fails the run (exit 1). The
//           stride/min_target are read from the expect file so the two
//           sides can never disagree about which samples exist.
//   bench   Closed-loop throughput/latency benchmark: --connections threads
//           each drive their own session with alternating update/predict
//           ops on random questions for --requests requests.
//   scenario Open-loop scenario traffic from the workload registry
//           (data/scenarios.h; DESIGN.md §12). Students are generated
//           STREAMING, one at a time per worker via GenerateStudentAuto —
//           never materializing the dataset — so --students can go to a
//           million and beyond in constant memory. The traffic content is
//           open-loop: the simulator decides every response from its latent
//           student model, independent of what the server predicts. Each
//           interaction fires predict-then-update; predict probabilities
//           against the simulated outcomes feed a rolling online AUC
//           (last --auc-window pairs per worker), and per-op latencies feed
//           kt::obs histograms (loadgen.predict_us / loadgen.update_us), so
//           the JSON report carries p50/p99 at bucket resolution without
//           per-request storage. The report's traffic_fnv64 digests the
//           generated stream: equal across runs iff the scenario is
//           seed-deterministic. pred_fnv64 digests the server's predict
//           probabilities the same way, so two servers (e.g. --shards 1
//           vs --shards 8) can be compared for bitwise parity. With
//           --windows W the student range splits into W contiguous
//           drift phases replayed back-to-back: each gets a fresh
//           rolling-AUC ring and a post-phase `stats` poll recording the
//           serving model's weight fingerprint + version, so a server
//           running `ktcli serve --continual` shows the hot swap (and
//           its AUC effect) directly in the report's windows array.
//   recourse Counterfactual-recourse traffic: per CSV sequence, every
//           interaction but the last becomes a history update, then one
//           recourse op fires on the final question. The summary carries
//           recourse latency percentiles, the mean best-candidate lift,
//           and recourse_fnv64 — a digest of every reply's base_p bits,
//           candidate ranking and intervention list. Two servers given
//           the same traffic agree on the digest iff every recourse
//           reply is bitwise identical, which is how check_serve.sh
//           gates the stacked fast path against --brute and --shards 1
//           against --shards 4.
//
// All modes print a one-line JSON summary to stdout (schemas in
// src/serve/loadgen.h; `obs_check scenario` validates and gates the
// scenario one). The server must be listening on 127.0.0.1:--port (start it
// with `ktcli serve --load m.ktw --port P`).
//
// Flags:
//   --port P            server TCP port (required)
//   --mode replay|bench|scenario|recourse
//   --connections N     concurrent client connections (default 1)
//   replay:   --data data.csv [--expect eval.json] [--window 50]
//             [--min-length 5] [--stride 4] [--min-target 4]
//   bench:    [--requests 200 per connection] [--questions 100] [--seed 1]
//   scenario: --scenario NAME [--students N] [--scale S] [--seed N]
//             [--auc-window 50000] [--windows 1  drift phases]
//   recourse: --data data.csv [--window 50] [--min-length 5] [--k 2]
//             [--top 3] [--target-p -1] [--brute]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/fileio.h"
#include "core/flags.h"
#include "core/json.h"
#include "core/rng.h"
#include "data/io.h"
#include "data/scenarios.h"
#include "data/simulator.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "rckt/samples.h"
#include "serve/loadgen.h"

namespace kt {
namespace {

using serve::LineClient;

// Prints the run's errors under the mode's name; true when there were any.
bool Failed(const char* mode, const serve::ConnectionRun& run) {
  for (const auto& error : run.errors) {
    std::fprintf(stderr, "%s: %s\n", mode, error.c_str());
  }
  return !run.errors.empty();
}

// Copies the driver's figures and the timed round trips into a summary.
void SetRun(const serve::ConnectionRun& run, std::vector<double>& us,
            serve::RunSummary* summary) {
  summary->connections = run.connections;
  summary->elapsed_s = run.elapsed_s;
  summary->latency = serve::SummarizeLatencies(us);
}

// Loads --data and cuts it into --window/--min-length windows. Returns 0,
// or the exit code after printing why: 2 without --data, 1 on a bad file.
int LoadWindows(const FlagParser& flags, const char* mode,
                data::Dataset* windows) {
  const std::string data_path = flags.GetString("data", "");
  if (data_path.empty()) {
    std::fprintf(stderr, "%s: --data is required\n", mode);
    return 2;
  }
  auto dataset = data::LoadCsv(data_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  *windows = data::SplitIntoWindows(dataset.value(),
                                    flags.GetInt("window", 50),
                                    flags.GetInt("min-length", 5));
  return 0;
}

int CmdReplay(const FlagParser& flags, int port, int connections) {
  data::Dataset windows;
  if (const int rc = LoadWindows(flags, "replay", &windows)) return rc;

  // Expected probabilities keyed by (sequence, target), as float bits.
  serve::ExpectedPredictions expected;
  expected.stride = flags.GetInt("stride", 4);
  expected.min_target = flags.GetInt("min-target", 4);
  const std::string expect_path = flags.GetString("expect", "");
  if (!expect_path.empty()) {
    std::string text;
    const Status read = ReadFileToString(expect_path, &text);
    if (!read.ok()) {
      std::fprintf(stderr, "replay: %s\n", read.ToString().c_str());
      return 1;
    }
    auto parsed = serve::ParseExpectedPredictions(text, expected.stride,
                                                  expected.min_target);
    if (!parsed.ok()) {
      std::fprintf(stderr, "replay: %s: %s\n", expect_path.c_str(),
                   parsed.status().message().c_str());
      return 1;
    }
    expected = std::move(parsed).value();
  }

  // The same samples the offline scorer enumerates; grouped per sequence.
  const auto samples =
      rckt::MakePrefixSamples(windows, expected.stride, expected.min_target);
  std::vector<std::vector<int64_t>> targets(windows.sequences.size());
  for (const auto& sample : samples) {
    const int64_t seq = sample.sequence - windows.sequences.data();
    targets[static_cast<size_t>(seq)].push_back(sample.target);
  }
  for (auto& t : targets) std::sort(t.begin(), t.end());

  struct Local {
    serve::PredictionMap got;
    std::vector<float> scores;
    std::vector<int> labels;
    std::vector<double> us;
  };
  const auto run = serve::RunConnections(
      port, connections, static_cast<int64_t>(windows.sequences.size()),
      Local{}, [&](LineClient& client, Local& local, int64_t i) -> Status {
        const auto& seq = windows.sequences[static_cast<size_t>(i)];
        const std::string student =
            std::string("s").append(std::to_string(i));
        const auto& seq_targets = targets[static_cast<size_t>(i)];
        size_t next_target = 0;
        JsonValue reply;
        for (int64_t t = 0; t < seq.length(); ++t) {
          const auto& it = seq.interactions[static_cast<size_t>(t)];
          if (next_target < seq_targets.size() &&
              seq_targets[next_target] == t) {
            ++next_target;
            const Result<double> us = serve::Call(
                client, serve::PredictLine(student, it.question, it.concepts),
                &reply);
            if (!us.ok()) return us.status();
            local.us.push_back(us.value());
            const float p = static_cast<float>(reply.GetNumber("p", NAN));
            local.got[{i, t}] = p;
            local.scores.push_back(p);
            local.labels.push_back(it.response);
          }
          const Result<double> update = serve::Call(
              client,
              serve::UpdateLine(student, it.question, it.concepts,
                                it.response),
              &reply);
          if (!update.ok()) return update.status();
        }
        return Status::Ok();
      });
  if (Failed("replay", run)) return 1;

  serve::PredictionMap got;
  std::vector<float> auc_scores;
  std::vector<int> auc_labels;
  std::vector<double> latencies_us;
  for (const Local& local : run.locals) {
    got.insert(local.got.begin(), local.got.end());
    auc_scores.insert(auc_scores.end(), local.scores.begin(),
                      local.scores.end());
    auc_labels.insert(auc_labels.end(), local.labels.begin(),
                      local.labels.end());
    latencies_us.insert(latencies_us.end(), local.us.begin(), local.us.end());
  }

  // Comparison against the offline scorer's generator_score, bit for bit.
  serve::ReplaySummary summary;
  summary.check =
      serve::CheckPredictions(expected.scores, got, /*max_details=*/5);
  for (const auto& d : summary.check.details) {
    std::fprintf(stderr, "replay: %s\n", d.c_str());
  }
  SetRun(run, latencies_us, &summary);
  summary.predictions = static_cast<int64_t>(got.size());
  summary.auc_samples = static_cast<int64_t>(auc_scores.size());
  summary.auc =
      auc_scores.empty() ? 0.5 : eval::ComputeAuc(auc_scores, auc_labels);
  std::printf("%s\n", serve::ReplaySummaryJson(summary).c_str());
  return summary.check.ok() ? 0 : 1;
}

// Recourse traffic: per CSV sequence, reset the student (so reruns
// against one warm server see identical histories), feed every
// interaction but the last as history updates, then ask for
// counterfactual recourse on the final question. Reports recourse
// latency, the mean best-candidate lift, and an order-independent digest
// of every reply (base_p bits, candidate ranking, every intervention) —
// the parity key scripts/check_serve.sh compares fast-vs---brute and
// across --shards.
int CmdRecourse(const FlagParser& flags, int port, int connections) {
  data::Dataset windows;
  if (const int rc = LoadWindows(flags, "recourse", &windows)) return rc;
  const int k = static_cast<int>(flags.GetInt("k", 2));
  const int top = static_cast<int>(flags.GetInt("top", 3));
  const double target_p = flags.GetDouble("target-p", -1.0);
  const bool brute = flags.GetBool("brute", false);

  struct Local {
    std::vector<double> us;
    uint64_t fnv = 0;
    int64_t updates = 0, recourses = 0, candidates = 0, lift_count = 0;
    double lift_sum = 0.0;
  };
  const auto units = static_cast<int64_t>(windows.sequences.size());
  const auto run = serve::RunConnections(
      port, connections, units, Local{},
      [&](LineClient& client, Local& local, int64_t i) -> Status {
        const auto& seq = windows.sequences[static_cast<size_t>(i)];
        if (seq.length() < 2) return Status::Ok();
        const std::string student =
            std::string("r").append(std::to_string(i));
        JsonValue reply;
        const Result<double> reset =
            serve::Call(client, serve::ResetLine(student), &reply);
        if (!reset.ok()) return reset.status();
        for (int64_t t = 0; t + 1 < seq.length(); ++t) {
          const auto& it = seq.interactions[static_cast<size_t>(t)];
          const Result<double> update = serve::Call(
              client,
              serve::UpdateLine(student, it.question, it.concepts,
                                it.response),
              &reply);
          if (!update.ok()) return update.status();
          ++local.updates;
        }
        const auto& last =
            seq.interactions[static_cast<size_t>(seq.length() - 1)];
        const Result<double> us = serve::Call(
            client,
            serve::RecourseLine(student, last.question, last.concepts, k,
                                top, target_p, {}, brute),
            &reply);
        if (!us.ok()) return us.status();
        local.us.push_back(us.value());
        ++local.recourses;
        local.fnv ^= serve::FnvMixRecourseReply(serve::kFnvOffset, reply);
        if (const JsonValue* cands = reply.Find("candidates")) {
          if (cands->IsArray() && !cands->array.empty()) {
            local.candidates += static_cast<int64_t>(cands->array.size());
            local.lift_sum += cands->array[0].GetNumber("lift", 0.0);
            ++local.lift_count;
          }
        }
        return Status::Ok();
      });
  if (Failed("recourse", run)) return 1;

  serve::RecourseSummary summary;
  std::vector<double> latencies_us;
  double lift_sum = 0.0;
  int64_t lift_count = 0;
  for (const Local& local : run.locals) {
    latencies_us.insert(latencies_us.end(), local.us.begin(), local.us.end());
    summary.recourse_fnv64 ^= local.fnv;
    summary.updates += local.updates;
    summary.recourses += local.recourses;
    summary.candidates += local.candidates;
    lift_sum += local.lift_sum;
    lift_count += local.lift_count;
  }
  SetRun(run, latencies_us, &summary);
  summary.students = units;
  summary.mean_top_lift =
      lift_count > 0 ? lift_sum / static_cast<double>(lift_count) : 0.0;
  summary.brute = brute;
  std::printf("%s\n", serve::RecourseSummaryJson(summary).c_str());
  return 0;
}

// Closed-loop bench: one unit per connection, each its own session of
// --requests alternating predict/update ops on random questions.
int CmdBench(const FlagParser& flags, int port, int connections) {
  const int64_t requests = flags.GetInt("requests", 200);
  const int64_t questions = flags.GetInt("questions", 100);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  const auto run = serve::RunConnections(
      port, connections, std::max(1, connections), std::vector<double>{},
      [&](LineClient& client, std::vector<double>& us, int64_t session) {
        Rng rng(seed + static_cast<uint64_t>(session) * 7919);
        const std::string student = "load-" + std::to_string(session);
        const std::vector<int64_t> no_concepts;
        JsonValue reply;
        for (int64_t r = 0; r < requests; ++r) {
          const int64_t question =
              rng.UniformInt(std::max<int64_t>(1, questions));
          const bool predict = (r % 2) == 0;
          const std::string line =
              predict ? serve::PredictLine(student, question, no_concepts)
                      : serve::UpdateLine(student, question, no_concepts,
                                          static_cast<int>(rng.NextU64() & 1));
          const Result<double> call = serve::Call(client, line, &reply);
          if (!call.ok()) return call.status();
          us.push_back(call.value());
        }
        return Status::Ok();
      });
  if (Failed("bench", run)) return 1;

  std::vector<double> latencies_us;
  for (const auto& local : run.locals) {
    latencies_us.insert(latencies_us.end(), local.begin(), local.end());
  }
  serve::BenchSummary summary;
  SetRun(run, latencies_us, &summary);
  std::printf("%s\n", serve::BenchSummaryJson(summary).c_str());
  return 0;
}

// Polls {"op":"stats"} once and extracts the serving model identity from
// the reply's "model" section. Returns false (leaving outputs untouched)
// when the server is unreachable or predates the section.
bool PollModelIdentity(int port, std::string* fingerprint, int64_t* version) {
  LineClient client;
  std::string error;
  JsonValue reply;
  if (!client.Connect(port, &error) ||
      !serve::Call(client, "{\"op\":\"stats\"}", &reply).ok()) {
    return false;
  }
  const JsonValue* model = reply.Find("model");
  if (model == nullptr || !model->IsObject()) return false;
  *fingerprint = model->GetString("fingerprint", "");
  *version = model->GetInt("weight_version", 0);
  return true;
}

int CmdScenario(const FlagParser& flags, int port, int connections) {
  const std::string name = flags.GetString("scenario", "");
  auto resolved = data::ScenarioByName(name, flags.GetDouble("scale", 1.0));
  if (!resolved.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 resolved.status().message().c_str());
    return 2;
  }
  data::SimulatorConfig config = std::move(resolved).value();
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", config.seed));
  const int64_t students = flags.GetInt("students", config.num_students);
  const int64_t auc_window = flags.GetInt("auc-window", 50000);
  if (students <= 0) {
    std::fprintf(stderr, "scenario: --students must be positive\n");
    return 2;
  }
  // Drift-replay phases: the student range splits into --windows contiguous
  // chunks replayed back-to-back, each scored with a fresh rolling-AUC ring
  // and followed by a stats poll recording the serving model's identity.
  // The per-student traffic is identical for any --windows value, and the
  // XOR-combined digests are order-independent, so traffic_fnv64 is
  // invariant across --windows (and --connections) for a fixed seed.
  const int64_t num_windows = std::max<int64_t>(
      1, std::min<int64_t>(flags.GetInt("windows", 1), students));

  // The simulator builds its question bank once; per-student sequences are
  // then generated on demand inside each worker (streaming, O(1) memory in
  // --students), bit-identical to what `ktcli simulate --scenario` writes.
  const data::StudentSimulator simulator(config);

  // Latency histograms: bucket-resolution percentiles at any request count.
  obs::SetEnabled(true);
  obs::Histogram* predict_hist = obs::Histogram::Get("loadgen.predict_us");
  obs::Histogram* update_hist = obs::Histogram::Get("loadgen.update_us");
  predict_hist->Reset();
  update_hist->Reset();

  // Per-worker ring and digests. Worker w owns students lo+w, lo+w+n, ...
  // (the driver's partition), so the merged AUC is reproducible for a
  // fixed --connections and the XORed digests for any --connections.
  struct Local {
    serve::RollingAuc auc;
    uint64_t traffic_fnv = 0, pred_fnv = 0;
    int64_t interactions = 0, predictions = 0;
  };
  serve::ScenarioSummary summary;
  serve::RollingAuc merged_auc(auc_window);
  for (int64_t win = 0; win < num_windows; ++win) {
    const int64_t lo = win * students / num_windows;
    const int64_t hi = (win + 1) * students / num_windows;
    if (hi <= lo) continue;
    const auto run = serve::RunConnections(
        port, connections, hi - lo, Local{serve::RollingAuc(auc_window)},
        [&](LineClient& client, Local& local, int64_t unit) -> Status {
          const int64_t s = lo + unit;
          const data::ResponseSequence seq =
              simulator.GenerateStudentAuto(static_cast<uint64_t>(s));
          const std::string student =
              config.name + "-s" + std::to_string(s);
          uint64_t h = serve::kFnvOffset;
          uint64_t ph = serve::kFnvOffset;  // this student's prediction bits
          JsonValue reply;
          for (const auto& it : seq.interactions) {
            const Result<double> predict_us = serve::Call(
                client, serve::PredictLine(student, it.question, it.concepts),
                &reply);
            if (!predict_us.ok()) return predict_us.status();
            predict_hist->Record(predict_us.value());
            ++local.predictions;
            const float p = static_cast<float>(reply.GetNumber("p", NAN));
            local.auc.Add(p, it.response);
            ph = serve::FnvMixU64(ph, serve::FloatBits(p));

            const Result<double> update_us = serve::Call(
                client,
                serve::UpdateLine(student, it.question, it.concepts,
                                  it.response),
                &reply);
            if (!update_us.ok()) return update_us.status();
            update_hist->Record(update_us.value());
            ++local.interactions;
            h = serve::FnvMixInteraction(h, it.question, it.concepts,
                                         it.response);
          }
          local.traffic_fnv ^= h;
          local.pred_fnv ^= ph;
          return Status::Ok();
        });
    if (Failed("scenario", run)) return 1;
    summary.elapsed_s += run.elapsed_s;
    serve::RollingAuc window_auc(auc_window);
    for (const Local& local : run.locals) {
      window_auc.Merge(local.auc);
      summary.traffic_fnv64 ^= local.traffic_fnv;
      summary.pred_fnv64 ^= local.pred_fnv;
      summary.interactions += local.interactions;
      summary.predictions += local.predictions;
    }
    merged_auc.Merge(window_auc);
    if (num_windows > 1) {
      serve::ScenarioWindow ws;
      ws.index = win;
      ws.students = hi - lo;
      ws.auc = window_auc.Auc();
      ws.auc_samples = window_auc.count();
      if (!PollModelIdentity(port, &ws.model_fingerprint,
                             &ws.weight_version)) {
        std::fprintf(stderr,
                     "scenario: warning: stats poll failed after window %lld\n",
                     static_cast<long long>(win));
      }
      summary.window_stats.push_back(std::move(ws));
    }
  }

  if (!summary.window_stats.empty()) {
    // Reuse the last window's poll; the run just ended, so it IS current.
    summary.model_fingerprint = summary.window_stats.back().model_fingerprint;
    summary.weight_version = summary.window_stats.back().weight_version;
  } else {
    PollModelIdentity(port, &summary.model_fingerprint,
                      &summary.weight_version);
  }
  summary.scenario = config.name;
  summary.connections = serve::ConnectionCount(connections, students);
  summary.seed = config.seed;
  summary.scale = flags.GetDouble("scale", 1.0);
  summary.students = students;
  summary.throughput_rps =
      summary.elapsed_s > 0.0
          ? static_cast<double>(summary.interactions + summary.predictions) /
                summary.elapsed_s
          : 0.0;
  summary.auc = merged_auc.Auc();
  summary.auc_samples = merged_auc.count();
  summary.auc_window = auc_window;
  const obs::HistogramSnapshot predict_snap = predict_hist->Snapshot();
  const obs::HistogramSnapshot update_snap = update_hist->Snapshot();
  summary.predict_p50_us = predict_snap.Percentile(0.50);
  summary.predict_p99_us = predict_snap.Percentile(0.99);
  summary.predict_mean_us = predict_snap.Mean();
  summary.update_p50_us = update_snap.Percentile(0.50);
  summary.update_p99_us = update_snap.Percentile(0.99);
  summary.update_mean_us = update_snap.Mean();
  std::printf("%s\n", serve::ScenarioSummaryJson(summary).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  // Parse consumes argv[1..argc) — no subcommand word to skip here.
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port <= 0) {
    std::fprintf(stderr, "kt_loadgen: --port is required\n");
    return 2;
  }
  const int connections = static_cast<int>(flags.GetInt("connections", 1));
  const std::string mode = flags.GetString("mode", "replay");
  if (mode == "replay") return CmdReplay(flags, port, connections);
  if (mode == "bench") return CmdBench(flags, port, connections);
  if (mode == "scenario") return CmdScenario(flags, port, connections);
  if (mode == "recourse") return CmdRecourse(flags, port, connections);
  std::fprintf(
      stderr,
      "kt_loadgen: unknown --mode '%s' (replay|bench|scenario|recourse)\n",
      mode.c_str());
  return 2;
}

}  // namespace
}  // namespace kt

int main(int argc, char** argv) { return kt::Main(argc, argv); }

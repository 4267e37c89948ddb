#include "serve/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/json.h"
#include "eval/metrics.h"

namespace kt {
namespace serve {

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::Connect(int port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = "socket() failed";
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect() to 127.0.0.1:" + std::to_string(port) + " failed";
    return false;
  }
  return true;
}

bool LineClient::RoundTrip(const std::string& line, std::string* response,
                           std::string* error) {
  std::string out = line;
  out.push_back('\n');
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      *error = "send() failed";
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  response->clear();
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *error = "server closed the connection";
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<double> Call(LineClient& client, const std::string& line,
                     JsonValue* reply) {
  std::string response, error;
  const auto start = std::chrono::steady_clock::now();
  if (!client.RoundTrip(line, &response, &error)) {
    return Status::IoError(error);
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!ParseJson(response, reply, &error) || !reply->GetBool("ok", false)) {
    return Status::Internal("bad reply to " + line + ": " + response);
  }
  return us;
}

int ConnectionCount(int connections, int64_t units) {
  return static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(connections, units)));
}

namespace internal {

void DriveConnections(
    int port, int n, int64_t units,
    const std::function<Status(LineClient&, int, int64_t)>& body,
    ConnectionRun* run) {
  run->connections = n;
  std::vector<std::string> errors(static_cast<size_t>(n));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      std::string& error = errors[static_cast<size_t>(w)];
      LineClient client;
      if (!client.Connect(port, &error)) return;
      for (int64_t unit = w; unit < units; unit += n) {
        const Status status = body(client, w, unit);
        if (!status.ok()) {
          error = status.message();
          return;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  run->elapsed_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (auto& error : errors) {
    if (!error.empty()) run->errors.push_back(std::move(error));
  }
}

}  // namespace internal

std::string PredictLine(const std::string& student, int64_t question,
                        const std::vector<int64_t>& concepts) {
  JsonWriter w;
  w.BeginObject();
  w.Key("op").String("predict");
  w.Key("student").String(student);
  w.Key("question").Int(question);
  w.Key("concepts").BeginArray();
  for (int64_t c : concepts) w.Int(c);
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string UpdateLine(const std::string& student, int64_t question,
                       const std::vector<int64_t>& concepts, int response) {
  JsonWriter w;
  w.BeginObject();
  w.Key("op").String("update");
  w.Key("student").String(student);
  w.Key("question").Int(question);
  w.Key("concepts").BeginArray();
  for (int64_t c : concepts) w.Int(c);
  w.EndArray();
  w.Key("response").Int(response);
  w.EndObject();
  return w.str();
}

std::string ResetLine(const std::string& student) {
  JsonWriter w;
  w.BeginObject();
  w.Key("op").String("reset");
  w.Key("student").String(student);
  w.EndObject();
  return w.str();
}

std::string RecourseLine(const std::string& student, int64_t question,
                         const std::vector<int64_t>& concepts, int k, int top,
                         double target_p,
                         const std::vector<int64_t>& insert_questions,
                         bool brute) {
  JsonWriter w;
  w.BeginObject();
  w.Key("op").String("recourse");
  w.Key("student").String(student);
  w.Key("question").Int(question);
  w.Key("concepts").BeginArray();
  for (int64_t c : concepts) w.Int(c);
  w.EndArray();
  w.Key("k").Int(k);
  w.Key("top").Int(top);
  if (target_p >= 0.0) w.Key("target_p").Double(target_p);
  if (!insert_questions.empty()) {
    w.Key("insert_questions").BeginArray();
    for (int64_t q : insert_questions) w.Int(q);
    w.EndArray();
  }
  if (brute) w.Key("brute").Bool(true);
  w.EndObject();
  return w.str();
}

uint32_t FloatBits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

Result<ExpectedPredictions> ParseExpectedPredictions(
    const std::string& json_text, int64_t default_stride,
    int64_t default_min_target) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(json_text, &doc, &error)) {
    return Status::InvalidArgument("expect file: " + error);
  }
  ExpectedPredictions out;
  out.stride = doc.GetInt("stride", default_stride);
  out.min_target = doc.GetInt("min_target", default_min_target);
  const JsonValue* preds = doc.Find("predictions");
  if (preds == nullptr || !preds->IsArray()) {
    return Status::InvalidArgument("expect file has no predictions array");
  }
  for (const auto& p : preds->array) {
    out.scores[{p.GetInt("sequence", -1), p.GetInt("target", -1)}] =
        static_cast<float>(p.GetNumber("generator_score", 0.0));
  }
  return out;
}

MismatchReport CheckPredictions(const PredictionMap& expected,
                                const PredictionMap& got,
                                int64_t max_details) {
  MismatchReport report;
  report.compared = static_cast<int64_t>(expected.size());
  for (const auto& [key, want] : expected) {
    const auto found = got.find(key);
    if (found == got.end()) {
      ++report.missing;
      continue;
    }
    const double err = std::fabs(static_cast<double>(found->second) -
                                 static_cast<double>(want));
    if (std::isfinite(err)) report.max_abs_err =
        std::max(report.max_abs_err, err);
    if (FloatBits(found->second) != FloatBits(want)) {
      if (++report.mismatches <= max_details) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "MISMATCH seq=%lld target=%lld online=%.9g "
                      "offline=%.9g",
                      static_cast<long long>(key.first),
                      static_cast<long long>(key.second), found->second,
                      want);
        report.details.push_back(line);
      }
    }
  }
  return report;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

LatencyStats SummarizeLatencies(std::vector<double>& us) {
  LatencyStats stats;
  stats.count = static_cast<int64_t>(us.size());
  if (us.empty()) return stats;
  std::sort(us.begin(), us.end());
  double total = 0.0;
  for (double v : us) total += v;
  stats.mean_us = total / static_cast<double>(us.size());
  stats.p50_us = Percentile(us, 0.50);
  stats.p99_us = Percentile(us, 0.99);
  return stats;
}

namespace {

// The RunSummary keys, where every closed-loop summary has them: "mode"
// and "connections" open the object; the timing keys follow the mode's
// own, with bench's throughput between elapsed_s and the latencies.
void OpenRunSummary(JsonWriter& w, const char* mode, const RunSummary& s) {
  w.BeginObject();
  w.Key("mode").String(mode);
  w.Key("connections").Int(s.connections);
}

void WriteRunTiming(JsonWriter& w, const RunSummary& s, bool throughput) {
  w.Key("elapsed_s").Double(s.elapsed_s);
  if (throughput) {
    w.Key("throughput_rps")
        .Double(s.elapsed_s > 0.0
                    ? static_cast<double>(s.latency.count) / s.elapsed_s
                    : 0.0);
  }
  w.Key("latency_p50_us").Double(s.latency.p50_us);
  w.Key("latency_p99_us").Double(s.latency.p99_us);
  w.Key("latency_mean_us").Double(s.latency.mean_us);
}

}  // namespace

std::string ReplaySummaryJson(const ReplaySummary& s) {
  JsonWriter w;
  OpenRunSummary(w, "replay", s);
  w.Key("predictions").Int(s.predictions);
  w.Key("compared").Int(s.check.compared);
  w.Key("mismatches").Int(s.check.mismatches);
  w.Key("missing").Int(s.check.missing);
  w.Key("max_abs_err").Double(s.check.max_abs_err);
  w.Key("auc").Double(s.auc);
  w.Key("auc_samples").Int(s.auc_samples);
  WriteRunTiming(w, s, /*throughput=*/false);
  w.EndObject();
  return w.str();
}

std::string BenchSummaryJson(const BenchSummary& s) {
  JsonWriter w;
  OpenRunSummary(w, "bench", s);
  w.Key("requests").Int(s.latency.count);
  WriteRunTiming(w, s, /*throughput=*/true);
  w.EndObject();
  return w.str();
}

std::string RecourseSummaryJson(const RecourseSummary& s) {
  JsonWriter w;
  OpenRunSummary(w, "recourse", s);
  w.Key("students").Int(s.students);
  w.Key("updates").Int(s.updates);
  w.Key("recourses").Int(s.recourses);
  w.Key("candidates").Int(s.candidates);
  w.Key("mean_top_lift").Double(s.mean_top_lift);
  w.Key("brute").Bool(s.brute);
  WriteRunTiming(w, s, /*throughput=*/false);
  // Hex keeps the digest readable and avoids int64 overflow in parsers.
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(s.recourse_fnv64));
  w.Key("recourse_fnv64").String(hex);
  w.EndObject();
  return w.str();
}

uint64_t FnvMixRecourseReply(uint64_t h, const JsonValue& reply) {
  h = FnvMixU64(
      h, FloatBits(static_cast<float>(reply.GetNumber("base_p", 0.0))));
  h = FnvMixU64(h, static_cast<uint64_t>(reply.GetInt("evaluated", -1)));
  const JsonValue* candidates = reply.Find("candidates");
  if (candidates == nullptr || !candidates->IsArray()) return h;
  for (const JsonValue& candidate : candidates->array) {
    h = FnvMixU64(
        h, FloatBits(static_cast<float>(candidate.GetNumber("p", 0.0))));
    const JsonValue* interventions = candidate.Find("interventions");
    if (interventions == nullptr || !interventions->IsArray()) continue;
    for (const JsonValue& intervention : interventions->array) {
      h = FnvMixU64(h,
                    intervention.GetString("type", "") == "flip" ? 1u : 2u);
      h = FnvMixU64(
          h, static_cast<uint64_t>(intervention.GetInt("position", -1)));
      h = FnvMixU64(
          h, static_cast<uint64_t>(intervention.GetInt("question", -1)));
    }
  }
  return h;
}

std::string ScenarioSummaryJson(const ScenarioSummary& s) {
  JsonWriter w;
  w.BeginObject();
  w.Key("mode").String("scenario");
  w.Key("scenario").String(s.scenario);
  w.Key("connections").Int(s.connections);
  w.Key("seed").Int(static_cast<int64_t>(s.seed));
  w.Key("scale").Double(s.scale);
  w.Key("students").Int(s.students);
  w.Key("interactions").Int(s.interactions);
  w.Key("predictions").Int(s.predictions);
  w.Key("elapsed_s").Double(s.elapsed_s);
  w.Key("throughput_rps").Double(s.throughput_rps);
  w.Key("auc").Double(s.auc);
  w.Key("auc_samples").Int(s.auc_samples);
  w.Key("auc_window").Int(s.auc_window);
  w.Key("predict_p50_us").Double(s.predict_p50_us);
  w.Key("predict_p99_us").Double(s.predict_p99_us);
  w.Key("predict_mean_us").Double(s.predict_mean_us);
  w.Key("update_p50_us").Double(s.update_p50_us);
  w.Key("update_p99_us").Double(s.update_p99_us);
  w.Key("update_mean_us").Double(s.update_mean_us);
  // Hex keeps the digest readable and avoids int64 overflow in parsers.
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(s.traffic_fnv64));
  w.Key("traffic_fnv64").String(hex);
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(s.pred_fnv64));
  w.Key("pred_fnv64").String(hex);
  // Model identity from the final stats poll (empty fingerprint when the
  // server predates the `model` stats section or the poll failed).
  w.Key("model_fingerprint").String(s.model_fingerprint);
  w.Key("weight_version").Int(s.weight_version);
  if (!s.window_stats.empty()) {
    w.Key("windows").BeginArray();
    for (const auto& win : s.window_stats) {
      w.BeginObject();
      w.Key("index").Int(win.index);
      w.Key("students").Int(win.students);
      w.Key("auc").Double(win.auc);
      w.Key("auc_samples").Int(win.auc_samples);
      w.Key("weight_version").Int(win.weight_version);
      w.Key("model_fingerprint").String(win.model_fingerprint);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

RollingAuc::RollingAuc(int64_t window) : window_(std::max<int64_t>(1, window)) {
  scores_.reserve(static_cast<size_t>(std::min<int64_t>(window_, 1 << 20)));
}

void RollingAuc::Add(float score, int label) {
  if (count() < window_) {
    scores_.push_back(score);
    labels_.push_back(label);
    return;
  }
  scores_[next_] = score;
  labels_[next_] = label;
  next_ = (next_ + 1) % scores_.size();
}

void RollingAuc::Merge(const RollingAuc& other) {
  scores_.insert(scores_.end(), other.scores_.begin(), other.scores_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

double RollingAuc::Auc() const {
  if (scores_.empty()) return 0.5;
  return eval::ComputeAuc(scores_, labels_);
}

uint64_t FnvMixInteraction(uint64_t h, int64_t question,
                           const std::vector<int64_t>& concepts,
                           int response) {
  h = FnvMixU64(h, static_cast<uint64_t>(question));
  for (int64_t c : concepts) h = FnvMixU64(h, static_cast<uint64_t>(c));
  h = FnvMixU64(h, static_cast<uint64_t>(response));
  return h;
}

}  // namespace serve
}  // namespace kt

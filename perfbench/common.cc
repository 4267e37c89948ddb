// Statistics, digests, spans, reports, child processes and traffic for
// kt_perfbench (declarations in perfbench.h).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "data/io.h"
#include "data/presets.h"
#include "nn/serialize.h"
#include "perfbench/perfbench.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace perfbench {

namespace serve = kt::serve;

// ---------------------------------------------------------------- stats --

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double TailQuantile(int64_t n) {
  if (n >= 1000) return 0.99;
  if (n >= 100) return 0.9;
  if (n >= 20) return 0.5;
  return 0.0;
}

double BinnedRate(const std::vector<double>& times_s, double skip_s,
                  double bin_s) {
  std::vector<int64_t> bins;
  for (const double t : times_s) {
    if (t < skip_s) continue;
    const auto bin = static_cast<size_t>((t - skip_s) / bin_s);
    if (bins.size() <= bin) bins.resize(bin + 1, 0);
    ++bins[bin];
  }
  if (!bins.empty()) bins.pop_back();  // the last bin is partial
  std::vector<double> rates;
  for (const int64_t n : bins) rates.push_back(static_cast<double>(n) / bin_s);
  return Median(rates);
}

const std::vector<double>& OpenRates() {
  static const std::vector<double> rates = {250, 500, 1000, 2000, 12000};
  return rates;
}

const std::vector<double>& OpenShares() {
  static const std::vector<double> shares = {0.05, 0.45, 0.15, 0.2, 0.15};
  return shares;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> due;
  uint64_t state = MixSeed(seed, 0x5eed);
  double t = 0.0;
  while (true) {
    state = MixSeed(state, 1);
    // 53 random bits -> u in (0, 1].
    const double u = (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

// -------------------------------------------------------------- digests --

DigestBuilder::DigestBuilder(size_t students)
    : pred_(students, serve::kFnvOffset), all_(students, serve::kFnvOffset) {}

bool DigestBuilder::Add(size_t student, serve::Op op,
                        const serve::JsonValue& reply) {
  if (student >= all_.size() || !reply.GetBool("ok", false) ||
      reply.GetString("op", "") != serve::OpName(op)) {
    return false;
  }
  uint64_t& h = all_[student];
  h = serve::FnvMixU64(h, static_cast<uint64_t>(op));
  h = serve::FnvMixU64(h, static_cast<uint64_t>(reply.GetInt("history", -1)));
  switch (op) {
    case serve::Op::kPredict: {
      const uint64_t bits = serve::FloatBits(
          static_cast<float>(reply.GetNumber("p", -1.0)));
      pred_[student] = serve::FnvMixU64(pred_[student], bits);
      h = serve::FnvMixU64(h, bits);
      break;
    }
    case serve::Op::kExplain: {
      const serve::JsonValue* influence = reply.Find("influence");
      if (influence != nullptr && influence->IsArray()) {
        for (const serve::JsonValue& v : influence->array) {
          h = serve::FnvMixU64(
              h, serve::FloatBits(static_cast<float>(v.number)));
        }
      }
      h = serve::FnvMixU64(h, serve::FloatBits(static_cast<float>(
                                  reply.GetNumber("score", 0.0))));
      break;
    }
    case serve::Op::kRecourse:
      h = serve::FnvMixRecourseReply(h, reply);
      break;
    default:
      break;
  }
  return true;
}

Digest DigestBuilder::Finish() const {
  Digest d;
  for (uint64_t v : pred_) d.pred ^= v;
  for (uint64_t v : all_) d.all ^= v;
  return d;
}

// ---------------------------------------------------------------- spans --

int64_t SpanLog::Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, int64_t request) {
  spans_.push_back({name, MicrosBetween(origin_, start),
                    MicrosBetween(origin_, end), parent, request});
  return static_cast<int64_t>(spans_.size());
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    serve::JsonWriter w;
    w.BeginObject();
    w.Key("id").Int(static_cast<int64_t>(i + 1));
    w.Key("name").String(s.name);
    w.Key("start_us").Double(s.start_us);
    w.Key("end_us").Double(s.end_us);
    w.Key("parent").Int(s.parent);
    w.Key("request").Int(s.request);
    w.EndObject();
    out << w.str() << "\n";
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ self-test --

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::printf("self-test FAILED: %s\n", what);
    }
  };
  // Nearest-rank percentiles on 1..100.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(Percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  expect(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  expect(Percentile(hundred, 0.9) == 90, "p90 of 1..100 is 90");
  expect(Percentile(hundred, 1.0) == 100, "p100 is the max");
  expect(Percentile(hundred, 0.0) == 1, "p0 is the min");
  expect(Percentile({7.0}, 0.99) == 7.0, "one sample");
  expect(Percentile({}, 0.5) == 0.0, "empty input");
  expect(Median({3, 1, 2}) == 2, "odd median");
  // Ten samples beyond the reported tail.
  expect(TailQuantile(999) == 0.9 && TailQuantile(1000) == 0.99,
         "p99 needs 1000 samples");
  expect(TailQuantile(99) == 0.5 && TailQuantile(100) == 0.9,
         "p90 needs 100 samples");
  // Schedules: deterministic, increasing, inside the window, near the rate.
  const std::vector<double> a = PoissonSchedule(5, 2000.0, 5.0);
  const std::vector<double> b = PoissonSchedule(5, 2000.0, 5.0);
  const std::vector<double> c = PoissonSchedule(6, 2000.0, 5.0);
  expect(a == b, "same seed, same schedule");
  expect(a != c, "another seed, another schedule");
  expect(std::is_sorted(a.begin(), a.end()) && !a.empty() && a.front() >= 0 &&
             a.back() < 5.0,
         "schedule sorted and inside the window");
  expect(std::fabs(static_cast<double>(a.size()) / 10000.0 - 1.0) < 0.05,
         "schedule mean rate within 5% over 10000 arrivals");
  // Binned rates: 100 events/s for 2 s, then a 0.3 s stall, then 100/s.
  std::vector<double> times;
  for (int i = 0; i < 200; ++i) times.push_back(0.005 + 0.01 * i);
  for (int i = 0; i < 100; ++i) times.push_back(2.305 + 0.01 * i);
  expect(std::fabs(BinnedRate(times, 0.5, 0.1) - 100.0) < 1e-9,
         "binned rate ignores a short stall");
  expect(BinnedRate({}, 0.5, 0.1) == 0.0, "binned rate of nothing is 0");
  // Digests: order-independent across students, order-sensitive within one,
  // bit-sensitive, and refuse failed or mismatched replies.
  auto parse = [](const std::string& text) {
    serve::JsonValue v;
    std::string error;
    serve::ParseJson(text, &v, &error);
    return v;
  };
  const serve::JsonValue p1 =
      parse(R"({"ok":true,"op":"predict","p":0.25,"history":1})");
  const serve::JsonValue p2 =
      parse(R"({"ok":true,"op":"predict","p":0.75,"history":1})");
  const serve::JsonValue p2b =
      parse(R"({"ok":true,"op":"predict","p":0.75000006,"history":1})");
  const serve::JsonValue bad = parse(R"({"ok":false,"error":"x"})");
  DigestBuilder d1(2), d2(2), d3(2), d4(2);
  d1.Add(0, serve::Op::kPredict, p1);
  d1.Add(1, serve::Op::kPredict, p2);
  d2.Add(1, serve::Op::kPredict, p2);
  d2.Add(0, serve::Op::kPredict, p1);
  d3.Add(0, serve::Op::kPredict, p2);
  d3.Add(0, serve::Op::kPredict, p1);
  d4.Add(0, serve::Op::kPredict, p1);
  d4.Add(1, serve::Op::kPredict, p2b);
  expect(d1.Finish().pred == d2.Finish().pred &&
             d1.Finish().all == d2.Finish().all,
         "digest ignores interleaving across students");
  DigestBuilder d5(2);
  d5.Add(0, serve::Op::kPredict, p1);
  d5.Add(0, serve::Op::kPredict, p2);
  expect(d3.Finish().pred != d5.Finish().pred,
         "digest follows order within a student");
  expect(d1.Finish().pred != d4.Finish().pred, "digest sees one float ulp");
  expect(!d1.Add(0, serve::Op::kPredict, bad), "failed reply refused");
  expect(!d1.Add(0, serve::Op::kUpdate, p1), "op mismatch refused");
  if (failures == 0) std::printf("self-test ok\n");
  return failures;
}

// -------------------------------------------------------------- reports --

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  entries_.push_back({name, value, unit, samples});
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct_ = false;
}

void Report::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  details_.emplace_back(key, json_value);
}

std::string Report::Finish(const std::string& workload, uint64_t seed,
                           bool trace,
                           const std::string& environment_json) const {
  for (const Entry& e : entries_) {
    std::printf("metric %-34s = %.6g %s (n=%lld)\n", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.samples));
  }
  std::printf("ops attempted=%lld failed=%lld failed_ratio=%.6g\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  serve::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(workload);
  w.Key("seed").Int(static_cast<int64_t>(seed));
  w.Key("trace").Bool(trace);
  w.Key("correct").Bool(correct_ && failed_ == 0 && attempted_ > 0);
  w.Key("attempted").Int(attempted_);
  w.Key("failed").Int(failed_);
  w.Key("metrics").BeginObject();
  for (const Entry& e : entries_) {
    w.Key(e.name).BeginObject();
    w.Key("value").Double(e.value);
    w.Key("unit").String(e.unit);
    w.Key("samples").Int(e.samples);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::string out = w.str();
  out.pop_back();  // reopen the object for raw members
  out += ",\"environment\":" + environment_json;
  for (const auto& [key, value] : details_) {
    out += ",";
    serve::AppendJsonString(&out, key);
    out += ":" + value;
  }
  out += "}";
  return out;
}

// ------------------------------------------------------------ processes --

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path) {
  start_ = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, 0);
      ::close(null_fd);
    }
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
}

Child::~Child() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    Wait(10.0);
  }
}

bool Child::Running() {
  if (pid_ <= 0 || reaped_) return false;
  int status = 0;
  rusage usage;
  const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
  if (r == pid_) {
    reaped_ = true;
    status_ = status;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    cpu_s_ = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                 1e-6;
    return false;
  }
  return true;
}

int Child::Wait(double timeout_s) {
  if (pid_ <= 0) return -1;
  const Clock::time_point t0 = Clock::now();
  bool killed = false;
  while (!reaped_) {
    if (!Running()) break;
    if (!killed && SecondsSince(t0) > timeout_s) {
      ::kill(pid_, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (killed) return -1;
  return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
}

RunResult RunToCompletion(const std::vector<std::string>& argv,
                          const std::string& log_path, double timeout_s) {
  RunResult result;
  Child child(argv, log_path);
  result.exit_code = child.Wait(timeout_s);
  result.wall_s = SecondsSince(child.start_time());
  result.peak_rss_mb = child.peak_rss_mb();
  result.cpu_s = child.cpu_s();
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

int PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  int port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

// ----------------------------------------------------------- the model --

std::unique_ptr<kt::rckt::RCKT> LoadModel(const std::string& path,
                                          std::string* error) {
  bool has_meta = false;
  kt::nn::ModelMeta meta;
  kt::Status status = kt::nn::ReadModuleMeta(path, &has_meta, &meta);
  if (!status.ok() || !has_meta) {
    *error = "cannot read model metadata of " + path;
    return nullptr;
  }
  kt::rckt::RcktConfig config;
  config.encoder = static_cast<kt::rckt::EncoderKind>(meta.encoder_kind);
  config.dim = meta.dim;
  config.num_layers = meta.num_layers;
  config.num_heads = meta.num_heads;
  auto model = std::make_unique<kt::rckt::RCKT>(meta.num_questions,
                                                meta.num_concepts, config);
  status = kt::nn::LoadModule(*model, path);
  if (!status.ok()) {
    *error = "cannot load " + path + ": " + status.ToString();
    return nullptr;
  }
  return model;
}

bool LoadWindows(const std::string& csv, kt::data::Dataset* out,
                 std::string* error) {
  auto dataset = kt::data::LoadCsv(csv);
  if (!dataset.ok()) {
    *error = dataset.status().ToString();
    return false;
  }
  *out = kt::data::SplitIntoWindows(dataset.value(), 50, 5);
  return true;
}

// ------------------------------------------------------------- traffic --

kt::data::SimulatorConfig BenchPreset(double scale, uint64_t seed) {
  kt::data::SimulatorConfig config = kt::data::Assist09Preset(scale);
  config.seed = seed;
  return config;
}

Traffic::Traffic(const kt::data::SimulatorConfig& bank, uint64_t seed,
                 int64_t num_questions, int64_t num_concepts)
    : seed_(seed),
      num_questions_(num_questions),
      num_concepts_(num_concepts),
      simulator_(std::make_unique<kt::data::StudentSimulator>(bank)) {}

int32_t Traffic::AddStudent(int64_t length) {
  const int32_t index = static_cast<int32_t>(students_.size());
  // Student seeds far above the training population's 0..N-1.
  kt::data::ResponseSequence seq = simulator_->GenerateStudent(
      length, (1ull << 40) + (MixSeed(seed_, static_cast<uint64_t>(index)) >> 24));
  kt::data::ResponseSequence kept;
  kept.student = seq.student;
  for (auto& interaction : seq.interactions) {
    bool known = interaction.question >= 0 &&
                 interaction.question < num_questions_;
    for (int64_t c : interaction.concepts) {
      known = known && c >= 0 && c < num_concepts_;
    }
    if (known) kept.interactions.push_back(std::move(interaction));
  }
  students_.push_back(std::move(kept));
  return index;
}

std::string Traffic::RequestLine(const TrafficOp& op) const {
  const auto& it = student(op.student).interactions[static_cast<size_t>(op.step)];
  const std::string id = "u" + std::to_string(op.student);
  switch (op.op) {
    case serve::Op::kPredict:
      return serve::PredictLine(id, it.question, it.concepts);
    case serve::Op::kUpdate:
      return serve::UpdateLine(id, it.question, it.concepts, it.response);
    case serve::Op::kRecourse:
      return serve::RecourseLine(id, it.question, it.concepts, /*k=*/1,
                                 /*top=*/3, -1.0, {}, false);
    default: {
      serve::JsonWriter w;
      w.BeginObject();
      w.Key("op").String(serve::OpName(op.op));
      w.Key("student").String(id);
      w.Key("question").Int(it.question);
      w.Key("concepts").BeginArray();
      for (int64_t c : it.concepts) w.Int(c);
      w.EndArray();
      w.EndObject();
      return w.str();
    }
  }
}

serve::ServeRequest Traffic::Request(const TrafficOp& op) const {
  const kt::serve::DecodedLine decoded = serve::DecodeLine(RequestLine(op));
  return decoded.request;
}

void AppendShortSessions(Traffic& traffic, std::vector<TrafficOp>* ops,
                         size_t min_ops) {
  while (ops->size() < min_ops) {
    const uint64_t r = MixSeed(traffic.seed(), 7000000 + traffic.students());
    const int64_t length = 20 + static_cast<int64_t>(r % 31);  // 20..50
    const int32_t s = traffic.AddStudent(length);
    const int32_t n =
        static_cast<int32_t>(traffic.student(s).interactions.size());
    for (int32_t t = 0; t < n; ++t) {
      ops->push_back({serve::Op::kPredict, s, t});
      ops->push_back({serve::Op::kUpdate, s, t});
    }
  }
}

void AppendLongProbe(Traffic& traffic, std::vector<TrafficOp>* ops) {
  constexpr int kStudents = 3;
  constexpr int kLength = 160;
  for (int k = 0; k < kStudents; ++k) {
    const int32_t s = traffic.AddStudent(kLength);
    const int32_t n =
        static_cast<int32_t>(traffic.student(s).interactions.size());
    for (int32_t t = 0; t < n; ++t) {
      if (t > 0 && t % 40 == 0) {
        ops->push_back({serve::Op::kExplain, s, t});
        ops->push_back({serve::Op::kRecourse, s, t});
      }
      ops->push_back({serve::Op::kPredict, s, t});
      ops->push_back({serve::Op::kUpdate, s, t});
    }
  }
}

}  // namespace perfbench

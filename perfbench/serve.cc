// The two serving workloads: serve_c1_light (closed loop, one connection,
// DKT, all-default flags) and serve_open_mixed (open loop over four
// pipelined connections at fixed rates, SAKT, --shards 2, a small session
// budget, with explain/recourse mixed in).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <thread>

#include "nn/serialize.h"
#include "perfbench/perfbench.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace perfbench {

namespace serve = kt::serve;

// ------------------------------------------------------------ servers --

bool Server::Start(const std::string& ktcli, const ServerConfig& config,
                   const std::string& log_path, std::string* error) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    port_ = PickFreePort();
    std::vector<std::string> argv = {ktcli,         "serve",
                                     "--load",      config.model,
                                     "--data",      config.data,
                                     "--port",      std::to_string(port_)};
    argv.insert(argv.end(), config.flags.begin(), config.flags.end());
    child_ = std::make_unique<Child>(argv, log_path);
    const std::string probe = serve::PredictLine("probe", 0, {});
    while (SecondsSince(child_->start_time()) < 60.0 && child_->Running()) {
      serve::LineClient client;
      std::string reply, err;
      serve::JsonValue json;
      if (client.Connect(port_, &err) && client.RoundTrip(probe, &reply, &err) &&
          serve::ParseJson(reply, &json, &err) && json.GetBool("ok", false)) {
        setup_s_ = SecondsSince(child_->start_time());
        return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    child_.reset();  // kills and reaps; retry on another port
  }
  *error = "ktcli serve did not answer (see " + log_path + ")";
  return false;
}

bool Server::Stop(serve::JsonValue* stats) {
  if (child_ == nullptr) return false;
  bool ok = true;
  {
    serve::LineClient client;
    std::string reply, err;
    if (client.Connect(port_, &err)) {
      if (stats != nullptr) {
        ok = client.RoundTrip("{\"op\":\"stats\"}", &reply, &err) &&
             serve::ParseJson(reply, stats, &err);
      }
      client.RoundTrip("{\"op\":\"shutdown\"}", &reply, &err);
    } else {
      ok = false;
    }
  }
  ok = child_->Wait(60.0) == 0 && ok;
  return ok;
}

double Server::peak_rss_mb() const {
  return child_ != nullptr ? child_->peak_rss_mb() : 0.0;
}

// Starts `count` servers one after another and keeps the last one running;
// returns the median start-to-first-reply time.
static bool StartMeasured(const Options& options, const ServerConfig& config,
                          int count, Server* server, double* setup_s,
                          std::string* error) {
  std::vector<double> setups;
  for (int i = 0; i < count; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSetupGapMs));
    }
    const std::string log =
        options.run_dir + "/server-start" + std::to_string(i) + ".log";
    if (i + 1 < count) {
      Server probe;
      if (!probe.Start(options.ktcli, config, log, error)) return false;
      setups.push_back(probe.setup_s());
      probe.Stop(nullptr);
    } else {
      if (!server->Start(options.ktcli, config, log, error)) return false;
      setups.push_back(server->setup_s());
    }
  }
  std::printf("server starts (ms):");
  for (const double s : setups) std::printf(" %.2f", s * 1e3);
  std::printf("\n");
  *setup_s = Median(setups);
  return true;
}

// ------------------------------------------------------- served models --

bool PrepareServeModel(const Options& options, const std::string& encoder,
                       ServedModel* out, std::string* error) {
  const std::string dir = options.work_dir + "/models";
  MakeDirs(dir);
  out->data = dir + "/assist09.csv";
  out->model = dir + "/" + encoder + ".ktw";
  out->train_log = dir + "/" + encoder + ".train.log";
  out->encoder = encoder;
  out->epochs = kServeModelEpochs;
  out->bank = BenchPreset(kServeDataScale, kServeDataSeed);
  namespace fs = std::filesystem;
  if (!fs::exists(out->data)) {
    const std::string tmp = out->data + ".tmp";
    const RunResult r = RunToCompletion(
        {options.ktcli, "simulate", "--preset", "assist09", "--scale",
         std::to_string(kServeDataScale), "--seed",
         std::to_string(kServeDataSeed), "--out", tmp},
        dir + "/simulate.log", 120.0);
    if (r.exit_code != 0) {
      *error = "ktcli simulate failed";
      return false;
    }
    fs::rename(tmp, out->data);
  }
  if (!fs::exists(out->model)) {
    const std::string tmp = dir + "/" + encoder + ".tmp.ktw";
    const RunResult r = RunToCompletion(
        {options.ktcli, "train", "--threads", "1", "--data", out->data,
         "--encoder", encoder, "--epochs", std::to_string(kServeModelEpochs),
         "--save", tmp},
        out->train_log + ".tmp", 600.0);
    if (r.exit_code != 0) {
      *error = "ktcli train of the served " + encoder + " model failed";
      return false;
    }
    fs::rename(out->train_log + ".tmp", out->train_log);
    fs::rename(tmp, out->model);
  }
  return true;
}

namespace {

struct LatencySet {
  std::vector<double> predict, update, heavy;
  void Add(serve::Op op, double us) {
    if (op == serve::Op::kPredict) {
      predict.push_back(us);
    } else if (op == serve::Op::kUpdate) {
      update.push_back(us);
    } else {
      heavy.push_back(us);
    }
  }
};

// Adds a tail percentile, noting when fewer than ten samples lie beyond it.
void AddTail(Report* report, const std::string& name,
             const std::vector<double>& samples, double q) {
  const auto n = static_cast<int64_t>(samples.size());
  if (TailQuantile(n) < q) {
    std::printf("note: %s rests on %lld samples, fewer than ten beyond it\n",
                name.c_str(), static_cast<long long>(n));
  }
  report->Add(name, Percentile(samples, q), "us", n);
}

void AddLatencyMetrics(Report* report, const LatencySet& lat) {
  report->Add("predict_p50_us", Median(lat.predict), "us",
              static_cast<int64_t>(lat.predict.size()));
  AddTail(report, "predict_p99_us", lat.predict, 0.99);
  report->Add("update_p50_us", Median(lat.update), "us",
              static_cast<int64_t>(lat.update.size()));
  AddTail(report, "update_p99_us", lat.update, 0.99);
}

}  // namespace

// ------------------------------------------------------- serve_c1_light --

int RunServeC1Light(const Options& options, Report* report) {
  std::string error;
  ServedModel served;
  if (!PrepareServeModel(options, "dkt", &served, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::unique_ptr<kt::rckt::RCKT> model = LoadModel(served.model, &error);
  kt::data::Dataset windows;
  if (model == nullptr || !LoadWindows(served.data, &windows, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  ServerConfig config;
  config.model = served.model;
  config.data = served.data;
  Traffic traffic(served.bank, options.seed,
                  model->num_questions(), model->num_concepts());

  if (options.trace) {
    std::vector<TrafficOp> ops;
    AppendShortSessions(traffic, &ops, kProbeOps);
    ProbeSpec spec;
    spec.served = served;
    spec.server = config;
    spec.connections = 1;
    return RunTracePass(options, spec, *model, windows, traffic, ops, report);
  }

  Server server;
  double setup_s = 0.0;
  if (!StartMeasured(options, config, kSetupStarts, &server, &setup_s,
                     &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // Closed loop: untimed warm-up, then as many ops as fit in the window.
  std::vector<TrafficOp> ops;
  AppendShortSessions(traffic, &ops, kWarmupOps);
  LatencySet lat;
  int64_t failed = 0;
  serve::LineClient client;
  if (!client.Connect(server.port(), &error)) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  std::vector<std::string> raw;
  size_t timed_begin = kWarmupOps;
  Clock::time_point window_start;
  double elapsed_s = 0.0;
  for (size_t i = 0;; ++i) {
    if (i == timed_begin) window_start = Clock::now();
    if (i >= timed_begin) {
      elapsed_s = SecondsSince(window_start);
      if (elapsed_s >= options.seconds) {
        ops.resize(i);
        break;
      }
    }
    if (i >= ops.size()) AppendShortSessions(traffic, &ops, ops.size() + 1024);
    const std::string line = traffic.RequestLine(ops[i]);
    std::string reply;
    const Clock::time_point t0 = Clock::now();
    const bool ok = client.RoundTrip(line, &reply, &error);
    const Clock::time_point t1 = Clock::now();
    if (!ok) {
      failed += 1;
      ops.resize(i + 1);
      break;
    }
    if (i >= timed_begin) lat.Add(ops[i].op, MicrosBetween(t0, t1));
    raw.push_back(std::move(reply));
  }
  const size_t timed_ops = ops.size() - std::min(ops.size(), timed_begin);
  serve::JsonValue stats;
  const bool stopped = server.Stop(&stats);

  // Digest the server's replies, then replay the same ops in-process.
  DigestBuilder server_digest(traffic.students());
  for (size_t i = 0; i < raw.size(); ++i) {
    serve::JsonValue json;
    std::string err;
    if (!serve::ParseJson(raw[i], &json, &err) ||
        !server_digest.Add(static_cast<size_t>(ops[i].student), ops[i].op,
                           json)) {
      ++failed;
    }
  }
  const Digest got = server_digest.Finish();
  const ReplayResult want = EngineReplay(*model, windows, traffic, ops,
                                        kDefaultBudgetBytes, nullptr);
  report->Check(stopped, "server answered stats and shut down cleanly");
  report->Check(want.failed == 0, "in-process replay served every op");
  report->Check(got.pred == want.digest.pred,
                "pred_fnv64 " + Hex(got.pred) + " equals in-process replay " +
                    Hex(want.digest.pred));
  report->Check(got.all == want.digest.all,
                "reply_fnv64 " + Hex(got.all) + " equals in-process replay " +
                    Hex(want.digest.all));
  report->CountOps(static_cast<int64_t>(ops.size()), failed);

  const double throughput = static_cast<double>(timed_ops) / elapsed_s;
  report->Add("setup_s", setup_s, "s", kSetupStarts);
  report->Add("throughput_ops_s", throughput, "1/s",
              static_cast<int64_t>(timed_ops));
  AddLatencyMetrics(report, lat);
  report->Add("peak_rss_mb", server.peak_rss_mb(), "MiB", 1);
  report->Add("failed_ratio",
              static_cast<double>(failed) / static_cast<double>(ops.size()),
              "ratio", static_cast<int64_t>(ops.size()));
  // The workload-independent names BENCHMARK.json gates on.
  report->Add("throughput_per_s", throughput, "1/s",
              static_cast<int64_t>(timed_ops));
  report->Add("latency_p50_us", Median(lat.predict), "us",
              static_cast<int64_t>(lat.predict.size()));
  report->Add("latency_tail_us", Percentile(lat.predict, 0.99), "us",
              static_cast<int64_t>(lat.predict.size()));
  report->Detail("digests", "{\"pred_fnv64\":\"" + Hex(got.pred) +
                                "\",\"reply_fnv64\":\"" + Hex(got.all) + "\"}");
  return 0;
}

// ----------------------------------------------------- serve_open_mixed --

namespace {

// The open-loop op stream over kOpenStudents slots. Each slot starts with a
// returning student whose history prefix (50..150 interactions, spread
// evenly, the same for every seed) is fed as warm-up updates and who then
// stays for kOpenFutureSteps more interactions; a student who is done is
// replaced by a new one with a kOpenNewSessionSteps-interaction session.
// Arrivals pick a slot at random and send its student's next op: predict,
// then update. Every kHeavyEvery-th arrival is an explain or recourse
// (alternating) for a student that is between ops.
struct OpenStream {
  std::vector<TrafficOp> warmup;
  std::vector<TrafficOp> stream;
};

OpenStream BuildOpenStream(Traffic& traffic, size_t arrivals) {
  OpenStream out;
  struct Slot {
    int32_t student = 0;
    int32_t next_step = 0;
    bool predicted = false;
  };
  std::vector<Slot> slots(kOpenStudents);
  for (int k = 0; k < kOpenStudents; ++k) {
    const int32_t prefix = 50 + k * 100 / (kOpenStudents - 1);
    Slot& slot = slots[static_cast<size_t>(k)];
    slot.student = traffic.AddStudent(prefix + kOpenFutureSteps);
    const int32_t n = static_cast<int32_t>(
        traffic.student(slot.student).interactions.size());
    slot.next_step = std::min(prefix, n);
    for (int32_t t = 0; t < slot.next_step; ++t) {
      out.warmup.push_back({serve::Op::kUpdate, slot.student, t});
    }
  }
  uint64_t state = MixSeed(traffic.seed(), 0x0be17);
  int64_t heavy_count = 0;
  while (out.stream.size() < arrivals) {
    state = MixSeed(state, 3);
    Slot& slot = slots[state % kOpenStudents];
    if (slot.next_step >= static_cast<int32_t>(
                              traffic.student(slot.student).interactions.size())) {
      slot = Slot{traffic.AddStudent(kOpenNewSessionSteps), 0, false};
    }
    const bool heavy_due = (out.stream.size() + 1) % kHeavyEvery == 0;
    // Explain/recourse need a student between ops, with some history.
    if (heavy_due && (slot.predicted || slot.next_step == 0)) continue;
    if (heavy_due) {
      const serve::Op heavy =
          (heavy_count++ % 2 == 0) ? serve::Op::kExplain : serve::Op::kRecourse;
      out.stream.push_back({heavy, slot.student, slot.next_step});
    } else if (!slot.predicted) {
      out.stream.push_back({serve::Op::kPredict, slot.student, slot.next_step});
      slot.predicted = true;
    } else {
      out.stream.push_back({serve::Op::kUpdate, slot.student, slot.next_step});
      slot.predicted = false;
      ++slot.next_step;
    }
  }
  return out;
}

struct Pending {
  size_t op;
  Clock::time_point due;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
};

// Single-threaded pipelined client over kOpenConnections sockets. A
// student's ops always use the same connection, in stream order. An
// explain/recourse is sent only once the student has no reply outstanding
// (a client asks for an explanation of what it has seen), and the
// student's later ops queue behind it; the wait counts as its latency.
// Replies are stored raw and checked after the run.
class OpenClient {
 public:
  OpenClient(const std::vector<TrafficOp>& ops, const Traffic& traffic)
      : traffic_(traffic),
        ops_(ops),
        replies_(ops.size()),
        student_outstanding_(traffic.students(), 0),
        deferred_(traffic.students()) {}
  ~OpenClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  OpenClient(const OpenClient&) = delete;
  OpenClient& operator=(const OpenClient&) = delete;

  bool Connect(int port) {
    conns_.resize(kOpenConnections);
    for (Conn& c : conns_) {
      c.fd = ConnectRaw(port);
      if (c.fd < 0) return false;
    }
    return true;
  }

  // Issues op `i`, due at `due`.
  void Send(size_t i, Clock::time_point due) {
    const size_t s = static_cast<size_t>(ops_[i].student);
    ++outstanding_;
    if (!deferred_[s].empty() ||
        (IsHeavy(ops_[i].op) && student_outstanding_[s] > 0)) {
      deferred_[s].push_back({i, due});
      return;
    }
    Transmit(i, due);
  }

  // Services the sockets until `deadline`.
  bool Pump(Clock::time_point deadline) {
    while (true) {
      std::vector<pollfd> fds;
      for (Conn& c : conns_) {
        short events = POLLIN;
        if (c.out_off < c.out.size()) events |= POLLOUT;
        fds.push_back({c.fd, events, 0});
      }
      const double wait_us =
          std::max(0.0, MicrosBetween(Clock::now(), deadline));
      timespec ts;
      ts.tv_sec = static_cast<time_t>(wait_us / 1e6);
      ts.tv_nsec = static_cast<long>(std::fmod(wait_us, 1e6) * 1000.0);
      const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n < 0 && errno != EINTR) return false;
      for (size_t k = 0; k < fds.size() && n > 0; ++k) {
        if (fds[k].revents & POLLOUT) Flush(conns_[k]);
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (!Read(conns_[k])) return false;
        }
      }
      if (Clock::now() >= deadline) return true;
    }
  }

  // Ops issued and not answered yet (deferred ones included).
  size_t outstanding() const { return outstanding_; }
  const std::vector<std::string>& replies() const { return replies_; }
  // Latencies (from due time) of the ops answered since ResetWindow.
  const LatencySet& latencies() const { return lat_; }
  int64_t completed() const { return completed_; }
  Clock::time_point last_reply() const { return last_reply_; }
  // When each reply answered since ResetWindow arrived.
  const std::vector<Clock::time_point>& reply_times() const {
    return reply_times_;
  }
  void ResetWindow() {
    lat_ = LatencySet();
    completed_ = 0;
    reply_times_.clear();
  }

 private:
  static int ConnectRaw(int port);

  void Transmit(size_t i, Clock::time_point due) {
    const size_t s = static_cast<size_t>(ops_[i].student);
    Conn& c = conns_[s % conns_.size()];
    c.out += traffic_.RequestLine(ops_[i]);
    c.out.push_back('\n');
    c.pending.push_back({i, due});
    ++student_outstanding_[s];
    Flush(c);
  }

  // After a reply of student `s`: release its deferred ops, up to the next
  // explain/recourse that has to wait again.
  void Release(size_t s) {
    std::deque<Pending>& queue = deferred_[s];
    while (!queue.empty()) {
      const Pending p = queue.front();
      if (IsHeavy(ops_[p.op].op) && student_outstanding_[s] > 0) return;
      queue.pop_front();
      Transmit(p.op, p.due);
    }
  }

  void Flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = serve::SendNoSignal(c.fd, c.out.data() + c.out_off,
                                            c.out.size() - c.out_off);
      if (n <= 0) break;
      c.out_off += static_cast<size_t>(n);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  bool Read(Conn& c) {
    char buf[65536];
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    // ACK at once; Linux clears TCP_QUICKACK by itself, so set it after
    // every read. The server does not set TCP_NODELAY, so a delayed ACK
    // would hold its next pipelined reply (Nagle) until this connection's
    // next request or a 40 ms timer, and latency would follow the gaps
    // between arrivals instead of the server.
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    const Clock::time_point now = Clock::now();
    c.in.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    while (true) {
      const size_t nl = c.in.find('\n', start);
      if (nl == std::string::npos) break;
      if (c.pending.empty()) return false;  // a reply nobody asked for
      const Pending p = c.pending.front();
      c.pending.pop_front();
      replies_[p.op] = c.in.substr(start, nl - start);
      lat_.Add(ops_[p.op].op, MicrosBetween(p.due, now));
      ++completed_;
      --outstanding_;
      last_reply_ = now;
      reply_times_.push_back(now);
      start = nl + 1;
      const size_t s = static_cast<size_t>(ops_[p.op].student);
      --student_outstanding_[s];
      Release(s);
    }
    c.in.erase(0, start);
    return true;
  }

  const Traffic& traffic_;
  const std::vector<TrafficOp>& ops_;
  std::vector<std::string> replies_;
  std::vector<int64_t> student_outstanding_;
  std::vector<std::deque<Pending>> deferred_;
  std::vector<Conn> conns_;
  size_t outstanding_ = 0;
  int64_t completed_ = 0;
  LatencySet lat_;
  Clock::time_point last_reply_;
  std::vector<Clock::time_point> reply_times_;
};

int OpenClient::ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Never block the generator on a full socket: Flush resumes on POLLOUT.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

int RunServeOpenMixed(const Options& options, Report* report) {
  std::string error;
  ServedModel served;
  if (!PrepareServeModel(options, "sakt", &served, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::unique_ptr<kt::rckt::RCKT> model = LoadModel(served.model, &error);
  kt::data::Dataset windows;
  if (model == nullptr || !LoadWindows(served.data, &windows, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  ServerConfig config;
  config.model = served.model;
  config.data = served.data;
  config.flags = {"--shards", std::to_string(kOpenShards), "--memory-budget-mb",
                  std::to_string(kOpenBudgetMb)};
  config.shards = kOpenShards;
  Traffic traffic(served.bank, options.seed,
                  model->num_questions(), model->num_concepts());
  const size_t budget_bytes = static_cast<size_t>(kOpenBudgetMb) << 20;

  // Rate points: each gets its seeded schedule and its share of the window;
  // the reference rate gets the most, so its percentiles have the samples.
  const std::vector<double>& rates = OpenRates();
  const std::vector<double>& share = OpenShares();
  std::vector<std::vector<double>> schedules;
  size_t arrivals = 0;
  for (size_t k = 0; k < rates.size(); ++k) {
    schedules.push_back(PoissonSchedule(MixSeed(options.seed, 77 + k),
                                        rates[k], options.seconds * share[k]));
    arrivals += schedules.back().size();
  }
  OpenStream open = BuildOpenStream(traffic, arrivals);

  if (options.trace) {
    std::vector<TrafficOp> ops = open.warmup;
    const size_t probe = std::min(open.stream.size(), kProbeOps);
    ops.insert(ops.end(), open.stream.begin(), open.stream.begin() + probe);
    ProbeSpec spec;
    spec.served = served;
    spec.server = config;
    spec.connections = kOpenConnections;
    spec.budget_bytes = budget_bytes;
    return RunTracePass(options, spec, *model, windows, traffic, ops, report);
  }

  Server server;
  double setup_s = 0.0;
  if (!StartMeasured(options, config, kSetupStarts, &server, &setup_s,
                     &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // Replies are checked in send order: warm-up ops, then the stream.
  std::vector<TrafficOp> ops = open.warmup;
  ops.insert(ops.end(), open.stream.begin(), open.stream.end());
  OpenClient client(ops, traffic);
  // Keep the generator on schedule while the server saturates the cores.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  if (::setpriority(PRIO_PROCESS, 0, -10) != 0) {
    std::printf("note: generator runs at normal priority\n");
  }
  if (!client.Connect(server.port())) {
    std::fprintf(stderr, "open-loop connect failed\n");
    return 1;
  }
  // Warm-up: feed every student's history prefix, kOpenWarmupWindow in
  // flight at a time.
  const Clock::time_point warmup_start = Clock::now();
  size_t next = 0;
  while (next < open.warmup.size() || client.outstanding() > 0) {
    while (next < open.warmup.size() &&
           client.outstanding() < kOpenWarmupWindow) {
      client.Send(next++, Clock::now());
    }
    if (!client.Pump(Clock::now() + std::chrono::milliseconds(2))) break;
  }
  std::printf("warm-up: %zu updates in %.2f s\n", open.warmup.size(),
              SecondsSince(warmup_start));

  struct Point {
    size_t begin = 0, end = 0;  // op range
    LatencySet lat;
    std::vector<double> lag_us;
    size_t backlog = 0;
    size_t unanswered = 0;
    double achieved = 0.0;
    double capacity = 0.0;  // BinnedRate of the replies
  };
  std::vector<Point> points(rates.size());
  for (size_t k = 0; k < rates.size(); ++k) {
    Point& point = points[k];
    client.ResetWindow();
    point.begin = next;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    for (const double offset : schedules[k]) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset));
      if (!client.Pump(due)) break;
      point.lag_us.push_back(MicrosBetween(due, Clock::now()));
      client.Send(next++, due);
    }
    point.end = next;
    point.backlog = client.outstanding();
    const Clock::time_point drain_deadline =
        Clock::now() + std::chrono::seconds(kOpenDrainSeconds);
    while (client.outstanding() > 0 && Clock::now() < drain_deadline) {
      if (!client.Pump(std::min(drain_deadline,
                                Clock::now() + std::chrono::milliseconds(5)))) {
        break;
      }
    }
    point.unanswered = client.outstanding();
    point.lat = client.latencies();
    point.achieved =
        static_cast<double>(client.completed()) /
        std::max(1e-9, std::chrono::duration<double>(client.last_reply() - start)
                           .count());
    std::vector<double> reply_s;
    for (const Clock::time_point t : client.reply_times()) {
      reply_s.push_back(std::chrono::duration<double>(t - start).count());
    }
    point.capacity = BinnedRate(reply_s, kOpenBinSkipSeconds, kOpenBinSeconds);
    if (point.unanswered > 0) break;  // later replies would be misattributed
  }
  ops.resize(next);
  serve::JsonValue stats;
  const bool stopped = server.Stop(&stats);

  // Check every reply, then judge each rate point.
  DigestBuilder digest(traffic.students());
  std::vector<bool> op_ok(ops.size(), false);
  for (size_t i = 0; i < ops.size(); ++i) {
    serve::JsonValue json;
    std::string err;
    op_ok[i] = serve::ParseJson(client.replies()[i], &json, &err) &&
               digest.Add(static_cast<size_t>(ops[i].student), ops[i].op, json);
  }
  int64_t failed = 0;
  for (bool ok : op_ok) failed += ok ? 0 : 1;
  std::string curve = "[";
  double max_rate_at_slo = 0.0;
  int64_t invalid_points = 0;
  const Point* reference = nullptr;
  for (size_t k = 0; k < points.size(); ++k) {
    const Point& point = points[k];
    int64_t point_failed = 0;
    for (size_t i = point.begin; i < point.end; ++i) point_failed += op_ok[i] ? 0 : 1;
    const int64_t sent = static_cast<int64_t>(point.end - point.begin);
    const double lag_p99 = Percentile(point.lag_us, 0.99);
    const bool valid = sent > 0 && lag_p99 <= kOpenMaxLagUs;
    const double p99 = Percentile(point.lat.predict, 0.99);
    const bool no_backlog =
        static_cast<double>(point.backlog) <=
        std::max(kOpenBacklogFloor, kOpenBacklogShare * static_cast<double>(sent));
    const bool meets =
        valid && point_failed == 0 && no_backlog && p99 <= kOpenSloP99Us;
    if (!valid) ++invalid_points;
    if (meets) max_rate_at_slo = std::max(max_rate_at_slo, point.achieved);
    if (rates[k] == kOpenReferenceRate) reference = &point;
    char line[1024];
    std::snprintf(
        line, sizeof(line),
        "%s{\"rate\":%g,\"seconds\":%.3f,\"valid\":%s,\"meets_slo\":%s,"
        "\"sent\":%lld,\"succeeded\":%lld,\"failed\":%lld,"
        "\"backlog_at_window_end\":%zu,\"achieved_ops_s\":%.6g,"
        "\"lag_p50_us\":%.6g,\"lag_p99_us\":%.6g,\"lag_max_us\":%.6g,"
        "\"predict_n\":%zu,\"predict_p50_us\":%.6g,\"predict_p99_us\":%.6g,"
        "\"update_n\":%zu,\"update_p50_us\":%.6g,\"update_p99_us\":%.6g,"
        "\"heavy_n\":%zu,\"heavy_p50_us\":%.6g,\"heavy_p90_us\":%.6g}",
        k == 0 ? "" : ",", rates[k], options.seconds * share[k],
        valid ? "true" : "false", meets ? "true" : "false",
        static_cast<long long>(sent),
        static_cast<long long>(sent - point_failed),
        static_cast<long long>(point_failed), point.backlog, point.achieved,
        Median(point.lag_us), lag_p99, Percentile(point.lag_us, 1.0),
        point.lat.predict.size(), Median(point.lat.predict), p99,
        point.lat.update.size(), Median(point.lat.update),
        Percentile(point.lat.update, 0.99), point.lat.heavy.size(),
        Median(point.lat.heavy), Percentile(point.lat.heavy, 0.9));
    curve += line;
    std::printf("rate %6g/s: %s sent=%lld ok=%lld failed=%lld backlog=%zu "
                "achieved=%.1f/s lag_p99=%.0fus predict p50=%.0fus "
                "p90=%.0fus p95=%.0fus p99=%.0fus "
                "(n=%zu) heavy p50=%.0fus (n=%zu)%s\n",
                rates[k], valid ? "valid" : "INVALID",
                static_cast<long long>(sent),
                static_cast<long long>(sent - point_failed),
                static_cast<long long>(point_failed), point.backlog,
                point.achieved, lag_p99, Median(point.lat.predict),
                Percentile(point.lat.predict, 0.9),
                Percentile(point.lat.predict, 0.95), p99,
                point.lat.predict.size(), Median(point.lat.heavy),
                point.lat.heavy.size(), meets ? " meets SLO" : "");
  }
  curve += "]";

  const Digest got = digest.Finish();
  const Clock::time_point replay_start = Clock::now();
  // Eviction changes when a state is rebuilt, never the rebuilt bits, so
  // the check replays with room for every session (the traced pass runs
  // the server's budget in-process).
  const ReplayResult want = EngineReplay(*model, windows, traffic, ops,
                                        kDefaultBudgetBytes, nullptr);
  std::printf("in-process replay: %zu ops in %.2f s\n", ops.size(),
              SecondsSince(replay_start));
  report->Check(stopped, "server answered stats and shut down cleanly");
  report->Check(want.failed == 0, "in-process replay served every op");
  report->Check(got.pred == want.digest.pred,
                "pred_fnv64 " + Hex(got.pred) + " equals in-process replay " +
                    Hex(want.digest.pred));
  report->Check(got.all == want.digest.all,
                "reply_fnv64 (incl. explain/recourse) " + Hex(got.all) +
                    " equals in-process replay " + Hex(want.digest.all));
  report->Check(stats.GetInt("evictions", 0) > 0,
                "sessions were evicted and rebuilt during the run");
  if (invalid_points > 0) {
    std::printf("note: %lld rate point(s) invalid (generator lag p99 over "
                "%.0f us); not counted toward max_rate_at_slo_ops_s\n",
                static_cast<long long>(invalid_points), kOpenMaxLagUs);
  }
  report->Check(reference != nullptr, "the reference rate point ran");
  report->CountOps(static_cast<int64_t>(ops.size()), failed);
  if (reference == nullptr) return 1;

  report->Add("setup_s", setup_s, "s", kSetupStarts);
  const LatencySet& lat = reference->lat;
  AddLatencyMetrics(report, lat);
  report->Add("heavy_p50_us", Median(lat.heavy), "us",
              static_cast<int64_t>(lat.heavy.size()));
  AddTail(report, "heavy_p90_us", lat.heavy, 0.9);
  report->Add("generator_lag_p99_us", Percentile(reference->lag_us, 0.99),
              "us", static_cast<int64_t>(reference->lag_us.size()));
  report->Add("max_rate_at_slo_ops_s", max_rate_at_slo, "1/s",
              static_cast<int64_t>(rates.size()));
  report->Add("peak_rss_mb", server.peak_rss_mb(), "MiB", 1);
  report->Add("failed_ratio",
              static_cast<double>(failed) / static_cast<double>(ops.size()),
              "ratio", static_cast<int64_t>(ops.size()));
  report->Add("session.evictions_server",
              static_cast<double>(stats.GetInt("evictions", 0)), "count", 1);
  // The last rate is beyond saturation: what it achieved is the capacity.
  const Point& overload = points.back();
  const auto overload_ops = static_cast<int64_t>(overload.end - overload.begin);
  report->Add("saturation_ops_s", overload.achieved, "1/s", overload_ops);
  report->Add("throughput_per_s", overload.capacity, "1/s", overload_ops);
  report->Add("latency_p50_us", Median(lat.predict), "us",
              static_cast<int64_t>(lat.predict.size()));
  report->Add("latency_tail_us", Percentile(lat.predict, 0.99), "us",
              static_cast<int64_t>(lat.predict.size()));
  report->Detail("rate_curve", curve);
  report->Detail("digests", "{\"pred_fnv64\":\"" + Hex(got.pred) +
                                "\",\"reply_fnv64\":\"" + Hex(got.all) + "\"}");
  return 0;
}

}  // namespace perfbench

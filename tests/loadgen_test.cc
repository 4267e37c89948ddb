// Unit tests for the extracted load-generator core (serve/loadgen.h): the
// --expect parser, the bit-exact mismatch checker, the summary JSON
// builders, the rolling-AUC ring, the line client's disconnect paths, and
// the connection driver with its checked round trip.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "serve/loadgen.h"

namespace kt {
namespace serve {
namespace {

TEST(ParseExpectedPredictionsTest, ReadsScoresAndSamplingParams) {
  const std::string text =
      "{\"stride\":3,\"min_target\":2,\"predictions\":["
      "{\"sequence\":0,\"target\":4,\"generator_score\":0.625},"
      "{\"sequence\":1,\"target\":7,\"generator_score\":0.25}]}";
  const auto parsed = ParseExpectedPredictions(text, 4, 4);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().stride, 3);
  EXPECT_EQ(parsed.value().min_target, 2);
  ASSERT_EQ(parsed.value().scores.size(), 2u);
  EXPECT_FLOAT_EQ(parsed.value().scores.at({0, 4}), 0.625f);
  EXPECT_FLOAT_EQ(parsed.value().scores.at({1, 7}), 0.25f);
}

TEST(ParseExpectedPredictionsTest, DefaultsSamplingParamsForLegacyFiles) {
  const auto parsed = ParseExpectedPredictions("{\"predictions\":[]}", 4, 2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().stride, 4);
  EXPECT_EQ(parsed.value().min_target, 2);
  EXPECT_TRUE(parsed.value().scores.empty());
}

TEST(ParseExpectedPredictionsTest, FailsOnMalformedJson) {
  const auto parsed = ParseExpectedPredictions("{\"predictions\":[", 4, 4);
  ASSERT_FALSE(parsed.ok());
}

TEST(ParseExpectedPredictionsTest, FailsWithoutPredictionsArray) {
  const auto parsed = ParseExpectedPredictions("{\"stride\":4}", 4, 4);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("predictions"),
            std::string::npos);
}

TEST(CheckPredictionsTest, PassesOnBitIdenticalScores) {
  PredictionMap expected{{{0, 4}, 0.5f}, {{1, 8}, 0.75f}};
  const MismatchReport report = CheckPredictions(expected, expected);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 2);
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_EQ(report.missing, 0);
}

TEST(CheckPredictionsTest, DetectsSingleBitDifference) {
  PredictionMap expected{{{0, 4}, 0.5f}};
  float nudged = 0.5f;
  uint32_t bits = FloatBits(nudged);
  bits ^= 1;  // flip the lowest mantissa bit
  std::memcpy(&nudged, &bits, sizeof(nudged));
  PredictionMap got{{{0, 4}, nudged}};
  const MismatchReport report = CheckPredictions(expected, got);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.mismatches, 1);
  ASSERT_EQ(report.details.size(), 1u);
  EXPECT_NE(report.details[0].find("MISMATCH"), std::string::npos);
}

TEST(CheckPredictionsTest, CountsMissingAndCapsDetails) {
  PredictionMap expected, got;
  for (int64_t t = 0; t < 10; ++t) {
    expected[{0, t}] = 0.5f;
    if (t < 8) got[{0, t}] = 0.25f;  // 8 mismatches, 2 missing
  }
  const MismatchReport report = CheckPredictions(expected, got,
                                                 /*max_details=*/3);
  EXPECT_EQ(report.mismatches, 8);
  EXPECT_EQ(report.missing, 2);
  EXPECT_EQ(report.details.size(), 3u);
}

TEST(CheckPredictionsTest, EmptyDatasetPasses) {
  // A dataset yielding zero windows produces zero expectations and zero
  // predictions — a valid, passing replay.
  const MismatchReport report = CheckPredictions({}, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 0);
}

TEST(SummarizeLatenciesTest, EmptyYieldsZeros) {
  std::vector<double> empty;
  const LatencyStats stats = SummarizeLatencies(empty);
  EXPECT_EQ(stats.count, 0);
  EXPECT_EQ(stats.p50_us, 0.0);
  EXPECT_EQ(stats.p99_us, 0.0);
  EXPECT_EQ(stats.mean_us, 0.0);
}

TEST(SummarizeLatenciesTest, PercentilesOrdered) {
  std::vector<double> us;
  for (int i = 100; i >= 1; --i) us.push_back(static_cast<double>(i));
  const LatencyStats stats = SummarizeLatencies(us);
  EXPECT_EQ(stats.count, 100);
  EXPECT_NEAR(stats.mean_us, 50.5, 1e-9);
  EXPECT_LE(stats.p50_us, stats.p99_us);
  EXPECT_NEAR(stats.p50_us, 50.0, 1.0);
  EXPECT_NEAR(stats.p99_us, 99.0, 1.0);
}

// Each builder's output must parse back as JSON and carry its key fields —
// the contract scripts/check_*.sh and obs_check rely on.
TEST(SummaryJsonTest, ReplaySummaryRoundTrips) {
  ReplaySummary s;
  s.connections = 4;
  s.predictions = 7;
  s.check.compared = 7;
  s.check.mismatches = 1;
  s.check.missing = 2;
  s.elapsed_s = 0.5;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(ReplaySummaryJson(s), &doc, &error)) << error;
  EXPECT_EQ(doc.GetString("mode", ""), "replay");
  EXPECT_EQ(doc.GetInt("predictions", -1), 7);
  EXPECT_EQ(doc.GetInt("mismatches", -1), 1);
  EXPECT_EQ(doc.GetInt("missing", -1), 2);
}

TEST(SummaryJsonTest, ScenarioSummaryRoundTrips) {
  ScenarioSummary s;
  s.scenario = "cold_start";
  s.connections = 2;
  s.seed = 6010;
  s.students = 40;
  s.interactions = 100;
  s.predictions = 100;
  s.auc = 0.625;
  s.auc_samples = 100;
  s.auc_window = 50000;
  s.traffic_fnv64 = 0xdeadbeefcafef00dull;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(ScenarioSummaryJson(s), &doc, &error)) << error;
  EXPECT_EQ(doc.GetString("mode", ""), "scenario");
  EXPECT_EQ(doc.GetString("scenario", ""), "cold_start");
  EXPECT_EQ(doc.GetInt("students", -1), 40);
  EXPECT_EQ(doc.GetNumber("auc", -1.0), 0.625);
  EXPECT_EQ(doc.GetString("traffic_fnv64", ""), "deadbeefcafef00d");
}

TEST(RollingAucTest, SeparableScoresGivePerfectAuc) {
  RollingAuc auc(100);
  for (int i = 0; i < 50; ++i) {
    auc.Add(0.9f, 1);
    auc.Add(0.1f, 0);
  }
  EXPECT_EQ(auc.count(), 100);
  EXPECT_DOUBLE_EQ(auc.Auc(), 1.0);
}

TEST(RollingAucTest, EmptyAndOneClassFallBackToHalf) {
  RollingAuc auc(10);
  EXPECT_DOUBLE_EQ(auc.Auc(), 0.5);
  auc.Add(0.7f, 1);
  EXPECT_DOUBLE_EQ(auc.Auc(), 0.5);
}

TEST(RollingAucTest, WindowEvictsOldestPairs) {
  RollingAuc auc(10);
  // 10 anti-correlated pairs first; then 10 perfectly-correlated pairs
  // that must fully displace them.
  for (int i = 0; i < 5; ++i) {
    auc.Add(0.9f, 0);
    auc.Add(0.1f, 1);
  }
  EXPECT_DOUBLE_EQ(auc.Auc(), 0.0);
  for (int i = 0; i < 5; ++i) {
    auc.Add(0.9f, 1);
    auc.Add(0.1f, 0);
  }
  EXPECT_EQ(auc.count(), 10);
  EXPECT_DOUBLE_EQ(auc.Auc(), 1.0);
}

TEST(RollingAucTest, MergeIsOrderInvariant) {
  RollingAuc a(100), b(100), ab(100), ba(100);
  for (int i = 0; i < 20; ++i) {
    const float score = 0.05f * static_cast<float>(i % 10) + 0.1f;
    const int label = i % 3 == 0 ? 1 : 0;
    (i % 2 == 0 ? a : b).Add(score, label);
  }
  ab.Merge(a);
  ab.Merge(b);
  ba.Merge(b);
  ba.Merge(a);
  EXPECT_DOUBLE_EQ(ab.Auc(), ba.Auc());
  EXPECT_EQ(ab.count(), ba.count());
}

TEST(FnvDigestTest, OrderIndependentAcrossStudentsSensitiveWithin) {
  const std::vector<int64_t> c1{2}, c2{3, 4};
  uint64_t s1 = FnvMixInteraction(kFnvOffset, 7, c1, 1);
  s1 = FnvMixInteraction(s1, 9, c2, 0);
  uint64_t s2 = FnvMixInteraction(kFnvOffset, 11, c1, 0);
  // XOR combination: student order must not matter.
  EXPECT_EQ(s1 ^ s2, s2 ^ s1);
  // Within a student, order matters (left-fold).
  uint64_t s1_swapped = FnvMixInteraction(kFnvOffset, 9, c2, 0);
  s1_swapped = FnvMixInteraction(s1_swapped, 7, c1, 1);
  EXPECT_NE(s1, s1_swapped);
  // And every field is load-bearing.
  EXPECT_NE(FnvMixInteraction(kFnvOffset, 7, c1, 1),
            FnvMixInteraction(kFnvOffset, 7, c1, 0));
  EXPECT_NE(FnvMixInteraction(kFnvOffset, 7, c1, 1),
            FnvMixInteraction(kFnvOffset, 8, c1, 1));
  EXPECT_NE(FnvMixInteraction(kFnvOffset, 7, c1, 1),
            FnvMixInteraction(kFnvOffset, 7, c2, 1));
}

TEST(LineClientTest, ConnectFailsOnClosedPort) {
  LineClient client;
  std::string error;
  // Port 1 on loopback: privileged and unbound — connect must fail with a
  // diagnostic, not hang or crash.
  EXPECT_FALSE(client.Connect(1, &error));
  EXPECT_NE(error.find("connect()"), std::string::npos);
}

TEST(LineClientTest, ReportsServerDisconnectMidStream) {
  // A one-shot server that accepts, reads a little, and slams the
  // connection shut without replying.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  std::thread server([listener] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn >= 0) {
      char buffer[256];
      (void)::recv(conn, buffer, sizeof(buffer), 0);
      ::close(conn);  // disconnect without ever answering
    }
  });

  LineClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(port, &error)) << error;
  std::string response;
  EXPECT_FALSE(client.RoundTrip("{\"op\":\"stats\"}", &response, &error));
  EXPECT_EQ(error, "server closed the connection");

  server.join();
  ::close(listener);
}

// Loopback NDJSON server for driver tests: answers every request line
// with {"ok":false,"error":"x"} when it contains "fail", and with
// {"ok":true} otherwise. One thread per accepted connection.
class StubServer {
 public:
  StubServer() {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    ok_ = listener_ >= 0 &&
          ::bind(listener_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) == 0 &&
          ::listen(listener_, 16) == 0;
    socklen_t len = sizeof(addr);
    ok_ = ok_ && ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr),
                               &len) == 0;
    port_ = ntohs(addr.sin_port);
    if (ok_) acceptor_ = std::thread([this] { AcceptLoop(); });
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  ~StubServer() {
    // shutdown() wakes the blocked accept(); connection threads end when
    // their client closes.
    ::shutdown(listener_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    for (auto& connection : connections_) connection.join();
    ::close(listener_);
  }

  bool ok() const { return ok_; }
  int port() const { return port_; }

 private:
  void AcceptLoop() {
    while (true) {
      const int conn = ::accept(listener_, nullptr, nullptr);
      if (conn < 0) return;
      connections_.emplace_back([conn] { Serve(conn); });
    }
  }

  static void Serve(int conn) {
    std::string buffer;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        const std::string reply = line.find("fail") != std::string::npos
                                      ? "{\"ok\":false,\"error\":\"x\"}\n"
                                      : "{\"ok\":true}\n";
        if (::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL) <= 0) {
          break;
        }
      }
    }
    ::close(conn);
  }

  int listener_ = -1;
  int port_ = 0;
  bool ok_ = false;
  std::vector<std::thread> connections_;  // touched by acceptor_ only
  std::thread acceptor_;
};

TEST(RunConnectionsTest, RunsEveryUnitOnceOnClampedConnections) {
  StubServer server;
  ASSERT_TRUE(server.ok());
  constexpr int64_t kUnits = 7;
  for (const int connections : {1, 2, 3, 10}) {
    SCOPED_TRACE(connections);
    std::unique_ptr<std::atomic<int>[]> runs(new std::atomic<int>[kUnits]);
    for (int64_t u = 0; u < kUnits; ++u) runs[u] = 0;
    // Each worker's Local records the units it ran.
    const auto run = RunConnections(
        server.port(), connections, kUnits, std::vector<int64_t>{},
        [&](LineClient& client, std::vector<int64_t>& seen,
            int64_t unit) -> Status {
          JsonValue reply;
          const Result<double> us = Call(
              client, "{\"op\":\"stats\",\"unit\":" + std::to_string(unit) +
                          "}",
              &reply);
          if (!us.ok()) return us.status();
          EXPECT_GE(us.value(), 0.0);
          ++runs[unit];
          seen.push_back(unit);
          return Status::Ok();
        });
    EXPECT_TRUE(run.errors.empty());
    const int n = std::min(connections, 7);
    EXPECT_EQ(run.connections, n);
    ASSERT_EQ(run.locals.size(), static_cast<size_t>(n));
    EXPECT_GE(run.elapsed_s, 0.0);
    for (int64_t u = 0; u < kUnits; ++u) EXPECT_EQ(runs[u].load(), 1) << u;
    // Worker w runs units w, w + n, ... in order.
    for (int w = 0; w < n; ++w) {
      std::vector<int64_t> want;
      for (int64_t u = w; u < kUnits; u += n) want.push_back(u);
      EXPECT_EQ(run.locals[static_cast<size_t>(w)], want) << "worker " << w;
    }
  }
}

TEST(RunConnectionsTest, RefusedReplyToAnyRequestFailsTheRun) {
  StubServer server;
  ASSERT_TRUE(server.ok());
  // Each unit sends a predict and then an update; the refusal lands on
  // one request of one unit, first or second, and must fail the run.
  for (int64_t fail_unit = 0; fail_unit < 7; ++fail_unit) {
    for (const bool fail_update : {false, true}) {
      SCOPED_TRACE(testing::Message() << "unit " << fail_unit
                                      << " update " << fail_update);
      const auto run = RunConnections(
          server.port(), 3, 7, 0,
          [&](LineClient& client, int&, int64_t unit) -> Status {
            JsonValue reply;
            const bool fail = unit == fail_unit;
            const Result<double> predict = Call(
                client, fail && !fail_update ? "predict fail" : "predict",
                &reply);
            if (!predict.ok()) return predict.status();
            const Result<double> update = Call(
                client, fail && fail_update ? "update fail" : "update",
                &reply);
            if (!update.ok()) return update.status();
            return Status::Ok();
          });
      ASSERT_EQ(run.errors.size(), 1u);
      EXPECT_NE(run.errors[0].find("{\"ok\":false,\"error\":\"x\"}"),
                std::string::npos)
          << run.errors[0];
      EXPECT_NE(run.errors[0].find(fail_update ? "update fail"
                                               : "predict fail"),
                std::string::npos)
          << run.errors[0];
    }
  }
}

TEST(RunConnectionsTest, ClosedPortFailsWithTheConnectError) {
  std::atomic<int> ran{0};
  // Port 1 on loopback: privileged and unbound.
  const auto run =
      RunConnections(1, 2, 7, 0, [&](LineClient&, int&, int64_t) -> Status {
        ++ran;
        return Status::Ok();
      });
  EXPECT_EQ(run.connections, 2);
  ASSERT_EQ(run.errors.size(), 2u);
  for (const auto& error : run.errors) {
    EXPECT_NE(error.find("connect()"), std::string::npos) << error;
  }
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace kt

// Regression tests for the serve transport hardening. Each test pins a bug
// the pre-reactor transport actually had:
//
//   * bare ::write to a disconnected peer -> process-fatal SIGPIPE
//     (deterministic on AF_UNIX: the first write to a closed peer raises
//     the signal; TCP gets there one RST later),
//   * EINTR from a profiler/timer signal treated as disconnect (::read) or
//     as "listener closed, shut down" (::accept),
//   * no cap on a request line, so a client streaming bytes with no '\n'
//     grew a server-side buffer without bound,
//   * finished connection threads joined only when the NEXT connection
//     arrived, so an idle server accumulated dead thread handles,
//   * Nagle left on, so a pipelined reply waited for the client's delayed
//     ACK of the one before it,
//   * a strtod-based number parser, so `"question":0x10` was served as
//     question 16 instead of refused,
//   * ids read through a truncating cast, so `"question":7.9` was served
//     as question 7.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "data/simulator.h"
#include "obs/obs.h"
#include "rckt/rckt_model.h"
#include "serve/engine.h"
#include "serve/framing.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace kt {
namespace serve {
namespace {

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

rckt::RcktConfig SmallConfig() {
  rckt::RcktConfig config;
  config.encoder = rckt::EncoderKind::kDKT;
  config.dim = 16;
  config.num_layers = 1;
  config.dropout = 0.0f;
  config.seed = 4;
  return config;
}

int PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A live TCP server over a tiny model, torn down via the shutdown op.
class TransportServer {
 public:
  explicit TransportServer(size_t max_line_bytes = kDefaultMaxLineBytes,
                           int shards = 1)
      : ds_(TinyDataset()),
        model_(ds_.num_questions, ds_.num_concepts, SmallConfig()) {
    port_ = PickFreePort();
    ServerOptions so;
    so.port = port_;
    so.shards = shards;
    so.max_line_bytes = max_line_bytes;
    so.engine.num_questions = ds_.num_questions;
    so.engine.num_concepts = ds_.num_concepts;
    thread_ = std::thread([this, so] { RunServer(model_, so); });
    // The listener comes up asynchronously; poll until it accepts.
    for (int i = 0; i < 200 && !Ping(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ~TransportServer() {
    Shutdown();
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return port_; }
  // The RunServer (reactor event-loop) thread, for targeted signal
  // delivery.
  pthread_t accept_thread() { return thread_.native_handle(); }

  bool Ping() {
    LineClient client;
    std::string response, error;
    return client.Connect(port_, &error) &&
           client.RoundTrip(PredictLine("ping", 0, {0}), &response, &error);
  }

  void Shutdown() {
    LineClient client;
    std::string response, error;
    if (client.Connect(port_, &error))
      client.RoundTrip("{\"op\":\"shutdown\"}", &response, &error);
  }

 private:
  data::Dataset ds_;
  rckt::RCKT model_;
  int port_ = 0;
  std::thread thread_;
};

// ---- SIGPIPE ----

TEST(ServeTransportTest, SendToClosedPeerReturnsFalseInsteadOfSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // With a bare ::write (the old transport) the FIRST write to the closed
  // peer delivers SIGPIPE and the default disposition kills the process —
  // this test only returns with MSG_NOSIGNAL in place.
  EXPECT_FALSE(SendAllNoSignal(fds[0], "{\"op\":\"stats\"}\n"));
  EXPECT_FALSE(SendAllNoSignal(fds[0], "again\n"));
  ::close(fds[0]);
}

TEST(ServeTransportTest, SurvivesClientThatDisconnectsMidReply) {
  TransportServer server;
  for (int round = 0; round < 3; ++round) {
    const int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    // Pipeline a burst the server will still be answering when we vanish,
    // then close with pending unread data -> immediate RST, so the
    // server's in-flight response writes hit a dead socket.
    std::string burst;
    for (int i = 0; i < 64; ++i)
      burst += PredictLine("gone", i % 25, {0}) + "\n";
    ASSERT_TRUE(SendAllNoSignal(fd, burst));
    ::close(fd);
  }
  // The server must still be alive and serving.
  EXPECT_TRUE(server.Ping());
}

// ---- EINTR ----

struct SigusrGuard {
  SigusrGuard() {
    struct sigaction sa{};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;  // no SA_RESTART: syscalls must surface EINTR
    sigaction(SIGUSR1, &sa, &old_);
  }
  ~SigusrGuard() { sigaction(SIGUSR1, &old_, nullptr); }
  struct sigaction old_{};
};

TEST(ServeTransportTest, ReadRetriesInterruptedSyscall) {
  SigusrGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread reader([&] {
    char buf[64];
    // Blocks until data arrives; the signal interrupts the syscall first.
    const ssize_t n = ReadRetryEintr(fds[0], buf, sizeof(buf));
    EXPECT_EQ(n, 6) << "EINTR must be retried, not treated as disconnect";
    EXPECT_EQ(std::string(buf, 6), "hello\n");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pthread_kill(reader.native_handle(), SIGUSR1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(SendAllNoSignal(fds[1], "hello\n"));
  reader.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeTransportTest, AcceptLoopSurvivesSignalInterruption) {
  SigusrGuard guard;
  TransportServer server;
  ASSERT_TRUE(server.Ping());
  // Interrupt the accept loop while it is blocked waiting for connections.
  // The old transport treated any accept() failure as "listener closed by
  // a shutdown op" and exited the serve loop.
  for (int i = 0; i < 5; ++i) {
    pthread_kill(server.accept_thread(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_TRUE(server.Ping()) << "server exited after EINTR in accept loop";
}

// ---- request line cap ----

TEST(ServeTransportTest, OversizedLineIsRejectedAndConnectionClosed) {
  TransportServer server(/*max_line_bytes=*/1024);
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  // 8 KiB with no newline: with no cap the old transport buffered forever
  // and never answered; now it must answer ok:false and close.
  const std::string flood(8192, 'x');
  ASSERT_TRUE(SendAllNoSignal(fd, flood));
  std::string got;
  char buf[4096];
  while (true) {
    const ssize_t n = ReadRetryEintr(fd, buf, sizeof(buf));
    if (n <= 0) break;  // server closed after the error line
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(got.find("\"ok\":false"), std::string::npos) << got;
  EXPECT_NE(got.find("exceeds"), std::string::npos) << got;
  // A fresh, well-behaved connection still works.
  EXPECT_TRUE(server.Ping());
}

// ---- request parsing ----

TEST(ServeTransportTest, HexNumberGetsAnErrorReply) {
  TransportServer server;
  LineClient client;
  std::string response, error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.RoundTrip(
      R"({"op":"predict","student":"s","question":0x10})", &response,
      &error))
      << error;
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_TRUE(server.Ping());
}

TEST(ServeTransportTest, FractionalQuestionGetsAnErrorReply) {
  TransportServer server;
  LineClient client;
  std::string response, error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.RoundTrip(
      R"({"op":"predict","student":"amy","question":7.9})", &response,
      &error))
      << error;
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("integer"), std::string::npos) << response;
  EXPECT_TRUE(server.Ping());
}

TEST(LineFramerTest, SplitsLinesAcrossChunksAndCompacts) {
  LineFramer framer(64);
  std::string line;
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Append("ab", 2);
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Append("c\nde\n", 5);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "abc");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "de");
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  EXPECT_EQ(framer.buffered(), 0u);
  // Many lines through a small framer: consumed prefixes must not pile up.
  for (int i = 0; i < 10000; ++i) {
    framer.Append("0123456789\n", 11);
    ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  }
  EXPECT_LE(framer.buffered(), 64u);
}

TEST(LineFramerTest, OverflowIsStickyUntilResync) {
  LineFramer framer(8);
  std::string line;
  framer.Append("0123456789", 10);  // over the cap, no newline yet
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kOverflow);
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kOverflow);
  framer.Resync();
  // Still discarding: the oversized line has not ended yet.
  framer.Append("more-of-the-flood", 17);
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Append("end\nok\n", 7);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "ok");
}

TEST(LineFramerTest, CompleteLineLongerThanCapIsOverflow) {
  LineFramer framer(4);
  std::string line;
  framer.Append("toolong\nok\n", 11);
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kOverflow);
  framer.Resync();  // skips through the oversized line's newline
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "ok");
}

// ---- Nagle ----

TEST(ServeTransportTest, PipelinedRepliesDoNotWaitForDelayedAcks) {
  TransportServer server;
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  // A plain client: no TCP_NODELAY, no TCP_QUICKACK, so it delays its
  // ACKs like any default Linux socket. Each round pipelines a burst of
  // predicts in one write and reads every reply. A server that leaves
  // Nagle on sends the first reply and holds the rest until that reply is
  // ACKed, i.e. until the client's delayed-ACK timer (40 ms) fires.
  constexpr int kRounds = 12;
  constexpr int kBurst = 8;
  std::vector<double> round_ms;
  for (int round = 0; round < kRounds; ++round) {
    std::string burst;
    for (int i = 0; i < kBurst; ++i)
      burst += PredictLine("nagle", (round * kBurst + i) % 25, {0}) + "\n";
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(SendAllNoSignal(fd, burst));
    int replies = 0;
    char buf[4096];
    while (replies < kBurst) {
      const ssize_t n = ReadRetryEintr(fd, buf, sizeof(buf));
      ASSERT_GT(n, 0) << "server closed mid-burst";
      for (ssize_t i = 0; i < n; ++i) replies += buf[i] == '\n';
    }
    round_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  ::close(fd);
  // The first rounds may still ride on the kernel's quick-ACK start, so
  // judge the later ones: all of them, not just a typical one, must finish
  // far below the delayed-ACK timer.
  const double slowest =
      *std::max_element(round_ms.begin() + kRounds / 2, round_ms.end());
  EXPECT_LT(slowest, 20.0) << "a pipelined reply waited for a delayed ACK";
}

// ---- timely reaping ----

TEST(ServeTransportTest, FinishedConnectionsAreReapedWithoutNewArrivals) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* reaped = obs::Counter::Get("serve.connections_reaped");
  const int64_t before = reaped->Value();
  {
    TransportServer server;
    for (int i = 0; i < 3; ++i) {
      LineClient client;
      std::string response, error;
      ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
      ASSERT_TRUE(client.RoundTrip(
          PredictLine(std::string("r").append(std::to_string(i)), 1, {0}),
          &response, &error))
          << error;
    }  // each client disconnects here; no further connections arrive
    bool ok = false;
    for (int i = 0; i < 100; ++i) {
      if (reaped->Value() - before >= 3) {
        ok = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(ok)
        << "idle server never joined finished connection handlers";
  }
  obs::SetEnabled(was_enabled);
}

}  // namespace
}  // namespace serve
}  // namespace kt

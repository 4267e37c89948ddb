#include "serve/reactor.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/logging.h"
#include "obs/obs.h"
#include "serve/server.h"

namespace kt {
namespace serve {
namespace {

constexpr uint64_t kListenerTag = ~0ull;
constexpr uint64_t kEventFdTag = ~0ull - 1;
// Outbound bytes buffered past this pause reads until the peer drains —
// a client that writes requests but never reads replies stops costing
// memory instead of growing the buffer without bound.
constexpr size_t kOutHighWater = 4u << 20;
// Requests one connection may have submitted but not yet answered; at the
// cap the connection is not read until replies drain.
constexpr int64_t kMaxInFlight = 256;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

struct Completion {
  uint32_t conn = 0;
  uint32_t seq = 0;
  std::string line;
};

// Shared between the reactor and the shard-side sink closure, which can
// outlive the event loop (a completion for a dropped connection may land
// after RunReactor returned): `open` gates eventfd writes.
struct CompletionQueue {
  std::mutex mu;
  std::vector<Completion> items;
  int event_fd = -1;
  bool open = true;
};

// One reply slot per accepted request line, flushed strictly in request
// order regardless of shard completion order.
struct Slot {
  uint32_t seq = 0;
  bool done = false;
  bool close_after = false;  // flush this reply, then close the connection
  std::string line;
};

struct Conn {
  explicit Conn(size_t max_line_bytes) : framer(max_line_bytes) {}

  uint32_t id = 0;
  int fd = -1;
  LineFramer framer;
  std::string out;
  size_t out_off = 0;
  std::deque<Slot> slots;
  uint32_t next_seq = 0;
  int64_t in_flight = 0;      // submitted to shards, completion not seen yet
  uint32_t events = EPOLLIN;  // currently registered epoll interest
  bool no_more_reads = false;  // peer EOF / fatal line / server shutdown
  bool peer_eof = false;
  bool closing = false;  // a close_after reply was flushed into `out`
};

class Reactor {
 public:
  Reactor(ShardSet& shards, const ReactorOptions& options)
      : shards_(shards),
        options_(options),
        cq_(std::make_shared<CompletionQueue>()) {}

  int Run();

 private:
  static uint64_t MakeTag(uint32_t conn, uint32_t seq) {
    return (static_cast<uint64_t>(seq) << 32) | conn;
  }

  int SetupListener();
  void Accept();
  bool OnReadable(Conn& conn);
  // Advances a connection through decode -> submit -> flush; returns
  // false (and must not be followed by any use of `conn`) if it closed.
  bool Pump(Conn& conn);
  void ProcessLines(Conn& conn);
  void FlushSlots(Conn& conn);
  bool FlushWrite(Conn& conn);
  void UpdateInterest(Conn& conn);
  void HandleCompletions();
  void BeginShutdown();
  // Shutdown drain: closes idle connections, true when none remain.
  bool Drained();
  void CloseConn(Conn& conn);

  ShardSet& shards_;
  ReactorOptions options_;
  std::shared_ptr<CompletionQueue> cq_;
  int epoll_fd_ = -1;
  int listener_ = -1;
  uint32_t next_conn_id_ = 1;
  std::unordered_map<uint32_t, std::unique_ptr<Conn>> conns_;
  bool shutting_down_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;
};

int Reactor::SetupListener() {
  listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener_ < 0) {
    KT_LOG(ERROR) << "serve: socket() failed";
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    KT_LOG(ERROR) << "serve: cannot bind 127.0.0.1:" << options_.port;
    return 1;
  }
  if (::listen(listener_, 128) < 0 || !SetNonBlocking(listener_)) {
    KT_LOG(ERROR) << "serve: listen() failed";
    return 1;
  }
  return 0;
}

void Reactor::Accept() {
  while (true) {
    const int fd = AcceptRetryEintr(listener_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      KT_LOG(WARNING) << "serve: accept failed: " << std::strerror(errno);
      return;
    }
    if (shutting_down_ || !SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    // Replies are small and pipelined. Under Nagle, each reply after the
    // first waits until the client ACKs the one before it, which a client
    // with delayed ACKs does only after up to 40 ms.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint32_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(options_.max_line_bytes);
    conn->id = id;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
  }
}

bool Reactor::OnReadable(Conn& conn) {
  char buf[16384];
  while (!conn.no_more_reads) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.framer.Append(buf, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;  // likely drained
      continue;
    }
    if (n == 0) {
      // Graceful half-close: stop reading, but pending replies still get
      // computed and written before the socket closes.
      conn.peer_eof = true;
      conn.no_more_reads = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);  // ECONNRESET and friends
    return false;
  }
  return Pump(conn);
}

void Reactor::ProcessLines(Conn& conn) {
  std::string line;
  while (!conn.closing) {
    if (conn.in_flight >= kMaxInFlight) break;
    if (conn.out.size() - conn.out_off > kOutHighWater) break;
    const LineFramer::Result r = conn.framer.Next(&line);
    if (r == LineFramer::Result::kNeedMore) break;
    if (r == LineFramer::Result::kOverflow) {
      // A client streaming a line past the cap is broken or hostile:
      // reject with ok:false, then close once the reply is flushed.
      conn.slots.push_back(Slot{conn.next_seq++, true, true,
                                OversizeError(options_.max_line_bytes)});
      conn.no_more_reads = true;
      break;
    }
    if (BlankLine(line)) continue;
    DecodedLine decoded = DecodeLine(line);
    if (decoded.shutdown) {
      conn.slots.push_back(Slot{conn.next_seq++, true, true,
                                "{\"ok\":true,\"op\":\"shutdown\"}"});
      conn.no_more_reads = true;
      BeginShutdown();
      break;
    }
    if (!decoded.ok) {
      conn.slots.push_back(
          Slot{conn.next_seq++, true, false, SerializeError(decoded.error)});
      continue;
    }
    const uint32_t seq = conn.next_seq++;
    conn.slots.push_back(Slot{seq, false, false, {}});
    ++conn.in_flight;
    shards_.SubmitAsync(std::move(decoded.request), MakeTag(conn.id, seq));
  }
}

void Reactor::FlushSlots(Conn& conn) {
  while (!conn.closing && !conn.slots.empty() && conn.slots.front().done) {
    Slot& slot = conn.slots.front();
    conn.out += slot.line;
    conn.out += '\n';
    if (slot.close_after) conn.closing = true;
    conn.slots.pop_front();
  }
}

bool Reactor::FlushWrite(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = SendNoSignal(conn.fd, conn.out.data() + conn.out_off,
                                   conn.out.size() - conn.out_off);
    if (n >= 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // peer reset / broken pipe
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1u << 16)) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  return true;
}

void Reactor::UpdateInterest(Conn& conn) {
  uint32_t want = 0;
  const size_t pending = conn.out.size() - conn.out_off;
  if (!conn.no_more_reads &&
      conn.in_flight < kMaxInFlight &&
      pending <= kOutHighWater) {
    want |= EPOLLIN;
  }
  if (pending > 0) want |= EPOLLOUT;
  if (want == conn.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.events = want;
}

bool Reactor::Pump(Conn& conn) {
  ProcessLines(conn);
  FlushSlots(conn);
  if (!FlushWrite(conn)) {
    CloseConn(conn);
    return false;
  }
  if (conn.out_off == conn.out.size()) {
    if (conn.closing || (conn.peer_eof && conn.slots.empty())) {
      CloseConn(conn);
      return false;
    }
  }
  UpdateInterest(conn);
  return true;
}

void Reactor::HandleCompletions() {
  uint64_t drained = 0;
  while (::read(cq_->event_fd, &drained, sizeof(drained)) < 0 &&
         errno == EINTR) {
  }
  std::vector<Completion> items;
  {
    std::lock_guard<std::mutex> lock(cq_->mu);
    items.swap(cq_->items);
  }
  for (Completion& done : items) {
    auto it = conns_.find(done.conn);
    if (it == conns_.end()) continue;  // connection already dropped
    Conn& conn = *it->second;
    --conn.in_flight;
    for (Slot& slot : conn.slots) {
      if (slot.seq == done.seq) {
        slot.done = true;
        slot.line = std::move(done.line);
        break;
      }
    }
    Pump(conn);
  }
}

void Reactor::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  if (listener_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_, nullptr);
    ::close(listener_);
    listener_ = -1;
  }
  // Stop reading everywhere; in-flight requests still complete and flush.
  for (auto& [id, conn] : conns_) conn->no_more_reads = true;
}

void Reactor::CloseConn(Conn& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(conn.id);  // destroys `conn`
  if (obs::Enabled()) {
    static obs::Counter* const reaped =
        obs::Counter::Get("serve.connections_reaped");
    reaped->Add(1);
  }
}

bool Reactor::Drained() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = *it->second;
    if (conn.slots.empty() && conn.out_off == conn.out.size()) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      ::close(conn.fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  return conns_.empty();
}

int Reactor::Run() {
  if (SetupListener() != 0) {
    if (listener_ >= 0) ::close(listener_);
    return 1;
  }
  epoll_fd_ = ::epoll_create1(0);
  const int event_fd = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || event_fd < 0) {
    KT_LOG(ERROR) << "serve: epoll/eventfd setup failed";
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd >= 0) ::close(event_fd);
    ::close(listener_);
    return 1;
  }
  cq_->event_fd = event_fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_, &ev);
  ev.data.u64 = kEventFdTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd, &ev);

  // Shard workers deliver serialized replies here (from their threads);
  // the eventfd write wakes the loop. Writes are gated on `open` so a
  // late completion after teardown is dropped, not written to a dead fd.
  std::shared_ptr<CompletionQueue> cq = cq_;
  shards_.set_sink([cq](uint64_t tag, std::string line) {
    std::lock_guard<std::mutex> lock(cq->mu);
    if (!cq->open) return;
    cq->items.push_back(Completion{static_cast<uint32_t>(tag),
                                   static_cast<uint32_t>(tag >> 32),
                                   std::move(line)});
    const uint64_t one = 1;
    if (::write(cq->event_fd, &one, sizeof(one)) < 0) {
      // Queue stays consistent; the next successful write re-wakes us.
    }
  });

  KT_LOG(INFO) << "serving on 127.0.0.1:" << options_.port << " ("
               << shards_.shards() << " shard"
               << (shards_.shards() == 1 ? "" : "s") << ")";

  epoll_event events[64];
  while (true) {
    const int timeout_ms = shutting_down_ ? 100 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      KT_LOG(ERROR) << "serve: epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        Accept();
        continue;
      }
      if (tag == kEventFdTag) {
        HandleCompletions();
        continue;
      }
      // Look up by id every time: an earlier event in this batch may have
      // closed the connection.
      auto it = conns_.find(static_cast<uint32_t>(tag));
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        if (!OnReadable(conn)) continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (!Pump(conn)) continue;
      }
    }
    if (shutting_down_) {
      if (Drained()) break;
      if (std::chrono::steady_clock::now() > drain_deadline_) {
        KT_LOG(WARNING) << "serve: shutdown drain timed out; dropping "
                        << conns_.size() << " connections";
        break;
      }
    }
  }

  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(cq_->mu);
    cq_->open = false;
    ::close(cq_->event_fd);
    cq_->event_fd = -1;
  }
  if (listener_ >= 0) ::close(listener_);
  ::close(epoll_fd_);
  return 0;
}

}  // namespace

int RunReactor(ShardSet& shards, const ReactorOptions& options) {
  Reactor reactor(shards, options);
  return reactor.Run();
}

}  // namespace serve
}  // namespace kt

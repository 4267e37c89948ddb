// Nonblocking epoll TCP transport for the sharded serving engine.
//
// One reactor thread owns every socket: a level-triggered epoll loop over
// the listener, an eventfd (shard-completion wakeups), and all client
// connections, each carrying its own LineFramer, outbound buffer, and a
// FIFO of pending reply slots. Decoded requests are handed to the
// ShardSet (serve/shard.h) without blocking; shard workers serialize the
// reply and post it back through the completion queue, and the reactor
// flushes each connection's replies strictly in request order no matter
// which shards finish first.
//
// Flow control instead of threads: the old transport spent one blocking
// thread per connection and leaked finished handles until the next
// accept. Here a connection that has 256 requests (`kMaxInFlight`) in
// the shards (or an unread outbound buffer past the high-water mark)
// simply stops being read until replies drain — backpressure with zero
// extra threads, no matter how many clients connect.
//
// Lifecycle: peer EOF is a graceful half-close (pending replies are still
// computed, written, then the socket closes); an oversized request line
// is answered with ok:false and closed after the reply flushes; a
// `shutdown` op answers, stops the listener, drains every connection,
// then returns.
#ifndef KT_SERVE_REACTOR_H_
#define KT_SERVE_REACTOR_H_

#include <cstddef>
#include <cstdint>

#include "serve/framing.h"
#include "serve/shard.h"

namespace kt {
namespace serve {

struct ReactorOptions {
  int port = 0;
  size_t max_line_bytes = kDefaultMaxLineBytes;
};

// Serves until a shutdown op (drains and returns 0) or a fatal listener
// error (returns 1). Installs the ShardSet's sink; the caller stops the
// shards after this returns.
int RunReactor(ShardSet& shards, const ReactorOptions& options);

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_REACTOR_H_

// Newline-delimited-JSON serving front end.
//
// Two transports share one protocol:
//   * stdio  (port == 0): synchronous request/response over stdin/stdout —
//     trivially scriptable (`echo '{"op":...}' | ktcli serve ...`);
//   * TCP    (port  > 0): a nonblocking epoll reactor (serve/reactor.h)
//     on 127.0.0.1, feeding N shard engines (serve/shard.h) routed by
//     student hash. Replies per connection keep request order even when
//     shards finish out of order.
//
// Protocol (one JSON object per line, one response line per request):
//   {"op":"predict","student":"s1","question":7,"concepts":[2,5]}
//     -> {"ok":true,"op":"predict",...,"p":0.53,"history":12}
//   {"op":"update","student":"s1","question":7,"response":1}
//     -> {"ok":true,"op":"update",...,"history":13}
//   {"op":"explain","student":"s1","question":7}
//     -> {"ok":true,...,"influence":[...],"responses":[...],...}
//   {"op":"reset","student":"s1"} | {"op":"stats"} | {"op":"shutdown"}
// `concepts` is optional everywhere (fallback: the engine's question map).
// `stats` sums across shards, so its payload is layout-independent.
#ifndef KT_SERVE_SERVER_H_
#define KT_SERVE_SERVER_H_

#include <functional>
#include <string>

#include "core/json.h"
#include "serve/engine.h"
#include "serve/framing.h"
#include "serve/shard.h"

namespace kt {
namespace serve {

// Lifecycle hooks around the serving loop. `on_start` runs after the
// ShardSet is live and before the first request (the continual trainer
// attaches here: stats decorator + its training thread); `on_stop` runs
// after the serving loop exits, BEFORE the cold-snapshot flush and shard
// stop — so the hook may still SubmitSync/SwapWeights on its way out.
struct ServeHooks {
  std::function<void(ShardSet&)> on_start;
  std::function<void()> on_stop;
};

struct ServerOptions {
  int port = 0;    // 0 = stdio transport
  int shards = 1;  // worker shards (TCP; stdio always behaves like 1)
  // Initial weight version for `stats` (see ShardSetOptions).
  int64_t initial_weight_version = 0;
  // Per-line request cap (serve/framing.h). An oversized line gets an
  // `ok:false` reply; TCP then closes the connection, stdio resyncs to the
  // next newline.
  size_t max_line_bytes = kDefaultMaxLineBytes;
  BatcherOptions batcher;
  // Session budget (split across shards), id bounds, cold tier dir.
  EngineOptions engine;
};

// Serves until stdin EOF / a shutdown op. Flushes cold-tier snapshots on
// the way out (warm restart), then stops the shards. Returns a process
// exit code. `concept_data`, when given, seeds the question->concepts
// fallback map of every shard. `hooks` brackets the serving loop (see
// ServeHooks).
int RunServer(rckt::RCKT& model, const ServerOptions& options,
              const data::Dataset* concept_data = nullptr,
              const ServeHooks& hooks = {});

// Wire <-> struct conversions (shared by the server, kt_loadgen and
// tests/serve_test.cc). ParseServeRequest rejects unknown/malformed ops
// ("shutdown" is transport-level and handled before this).
bool ParseServeRequest(const JsonValue& json, ServeRequest* out,
                       std::string* error);
std::string SerializeResponse(const ServeResponse& response);
std::string SerializeError(const std::string& message);

// One decoded request line (shared by the stdio front end and the
// reactor): exactly one of `shutdown`, `ok` (request valid), or `error`.
struct DecodedLine {
  bool shutdown = false;
  bool ok = false;
  std::string error;
  ServeRequest request;
};
DecodedLine DecodeLine(const std::string& line);

// True for whitespace-only lines (skipped without a reply).
bool BlankLine(const std::string& line);

// The ok:false reply for a request line past the framer cap.
std::string OversizeError(size_t max_line_bytes);

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_SERVER_H_

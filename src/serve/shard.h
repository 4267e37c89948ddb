// Sharded serving engine: N single-threaded InferenceEngines behind
// student-hash routing.
//
// The engine is not thread-safe, so a ShardSet runs N engines, each
// owned by its own worker thread with its own SessionStore slice
// (budget/N) and its own coalescing loop, all sharing the read-only model
// weights. Requests route by FNV-1a(student) % N, so a student's whole
// session — neural state, history, cold-tier snapshot — lives on exactly
// one shard and per-student operation order is preserved; `stats`
// broadcasts to every shard and sums.
//
// Bit-identity across shard counts: predictions depend only on the
// student's own chain (every stacked GEMM row is an independent
// accumulator), and eviction differences between shard layouts only
// change WHEN a state is rebuilt, never the rebuilt bits. So `--shards 8`
// serves bitwise the same predictions as `--shards 1` on the same
// traffic; scripts/check_scenarios.sh gates on exactly that.
//
// Every request answers through one completion callback run on its shard
// worker: the epoll reactor's SubmitAsync serializes the reply into the
// sink, and the stdio front end and tests block in SubmitSync on a promise
// the callback owns. Cold flushes and weight swaps ride the same queues as
// control items that run on the worker in queue order.
#ifndef KT_SERVE_SHARD_H_
#define KT_SERVE_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "rckt/rckt_model.h"
#include "serve/engine.h"

namespace kt {
namespace serve {

// Per-shard coalescing knobs. A worker takes up to `max_batch` queued light
// requests as one engine batch, waiting up to `max_wait_us` for stragglers
// while fewer are queued.
struct BatcherOptions {
  int64_t max_batch = 16;
  int64_t max_wait_us = 1000;
};

struct ShardSetOptions {
  int shards = 1;
  // Starting weight version reported by `stats` (bumped by SwapWeights).
  // 0 means "the offline-trained model"; a server resuming a published
  // continual checkpoint seeds this from the KTW2 meta chunk.
  int64_t initial_weight_version = 0;
  BatcherOptions batcher;
  // engine.session_budget_bytes is the TOTAL across shards; each shard
  // gets an equal slice. cold_dir (if set) is shared: snapshots are keyed
  // by student, and a student only ever belongs to one shard.
  EngineOptions engine;
};

class ShardSet {
 public:
  // Replies for SubmitAsync: called on a shard worker thread with the
  // caller's tag and the serialized JSON response line (no newline).
  using Sink = std::function<void(uint64_t tag, std::string line)>;

  // Spins up the shard workers. `concept_data`, when given, seeds each
  // shard's question->concepts fallback map.
  ShardSet(rckt::RCKT& model, const ShardSetOptions& options,
           const data::Dataset* concept_data);
  ~ShardSet();

  // The routing function, exposed for tests and capacity planning:
  // FNV-1a 64 of the student id, mod `shards`.
  static uint32_t ShardFor(std::string_view student, uint32_t shards);
  uint32_t shard_for(std::string_view student) const;

  // Must be set before the first SubmitAsync and not changed after.
  void set_sink(Sink sink);

  // Non-blocking: enqueues on the owning shard (kStats: on every shard,
  // sink fires once with the summed payload). The sink receives `tag`.
  void SubmitAsync(ServeRequest request, uint64_t tag);

  // Blocking: executes on the owning shard's thread, returns the result.
  ServeResponse SubmitSync(const ServeRequest& request);

  // Runs InferenceEngine::FlushColdSnapshots on every shard (on the shard
  // threads, synchronously) — the graceful-shutdown warm-restart hook.
  void FlushColdSnapshots();

  // Atomic hot weight swap — the continual trainer's promotion path.
  // Enqueues a barrier item on every shard, blocks until every worker has
  // parked at it (so no request is in flight anywhere and all ops enqueued
  // before the swap have executed against the OLD weights), installs
  // `state` into the shared model, notifies each engine
  // (InferenceEngine::OnModelSwapped: cached streams drop, histories
  // survive, cold tier re-keys), bumps the fingerprint/version reported by
  // `stats`, and releases the workers. Ops enqueued after SwapWeights
  // returns are served by the new weights. Must be called from a
  // NON-worker thread; returns false when the set is stopping.
  bool SwapWeights(const std::vector<Tensor>& state, uint64_t fingerprint,
                   int64_t weight_version);

  uint64_t model_fingerprint() const { return fingerprint_.load(); }
  int64_t weight_version() const { return version_.load(); }

  // Hook that augments the aggregated `stats` response just before
  // delivery (the continual trainer fills its section here). Set before
  // the first stats request; invoked on a shard worker thread.
  void set_stats_decorator(std::function<void(ServeResponse&)> decorator);

  // Drains all queues and joins the workers (idempotent; ~ShardSet calls
  // it). SubmitAsync/SubmitSync after Stop return an error response.
  void Stop();

  int shards() const { return static_cast<int>(shards_.size()); }

  // Test access to a shard's engine. Only safe while no traffic is in
  // flight (the engines themselves are single-threaded).
  InferenceEngine& engine(int shard) { return *shards_[shard]->engine; }

 private:
  using Done = std::function<void(ServeResponse)>;

  // Cross-shard sum for one kStats request.
  struct StatsAgg {
    std::mutex mu;
    int remaining = 0;
    ServeResponse acc;
  };

  // Rendezvous for SwapWeights: each worker parks (++arrived) when it
  // reaches its swap item, the swapping thread mutates the model once all
  // have arrived, then releases them (done).
  struct SwapGate {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    bool done = false;
  };

  // One unit of shard work. A request executes on the shard's engine and
  // answers through `done`; a control item (cold flush, swap barrier) runs
  // `control` on the worker thread instead, in queue order.
  struct Item {
    ServeRequest request;
    Done done;
    std::function<void(InferenceEngine&)> control;
  };

  // Two lanes per shard (both guarded by `mu`): `queue` holds O(1) work
  // (predict/update/stats and control items) and is coalesced into engine
  // batches; `heavy_queue` holds O(T) ops (explain/recourse), of which the
  // worker executes at most ONE per loop iteration — so a burst of heavy
  // ops can delay a predict by at most one heavy op, never a convoy of
  // them.
  // `heavy_pending` counts queued heavy-lane items per student: while a
  // student has heavy work queued, that student's later ops are routed to
  // the heavy lane too, preserving per-student operation order across the
  // lane split (the bit-identity contracts depend on it). `light_pending`
  // counts queued light-lane requests per student the same way: a heavy op
  // is not popped while its student still has light ops queued ahead of
  // it, so it cannot overtake them.
  struct Shard {
    std::unique_ptr<InferenceEngine> engine;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Item> queue;
    std::vector<Item> heavy_queue;
    std::unordered_map<std::string, int64_t> heavy_pending;
    std::unordered_map<std::string, int64_t> light_pending;
    std::thread worker;
  };

  // Answers `request` through `done`, on a shard worker thread — or at
  // once with an error while stopping. kStats fans out to every shard and
  // answers once with the sum.
  void Submit(ServeRequest request, Done done);
  void WorkerLoop(Shard& shard);
  void Enqueue(Shard& shard, Item item);

  ShardSetOptions options_;
  Sink sink_;
  std::atomic<bool> stopping_{false};
  rckt::RCKT* model_ = nullptr;  // the shared serving weights (swap target)
  std::atomic<uint64_t> fingerprint_{0};
  std::atomic<int64_t> version_{0};
  std::function<void(ServeResponse&)> stats_decorator_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_SHARD_H_

#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "core/hash.h"
#include "obs/obs.h"
#include "serve/server.h"

namespace kt {
namespace serve {

uint32_t ShardSet::ShardFor(std::string_view student, uint32_t shards) {
  return shards == 0 ? 0 : static_cast<uint32_t>(Fnv1a(student) % shards);
}

uint32_t ShardSet::shard_for(std::string_view student) const {
  return ShardFor(student, static_cast<uint32_t>(shards_.size()));
}

ShardSet::ShardSet(rckt::RCKT& model, const ShardSetOptions& options,
                   const data::Dataset* concept_data)
    : options_(options), model_(&model) {
  const int n = std::max(1, options.shards);
  options_.shards = n;
  fingerprint_.store(options.engine.model_fingerprint);
  version_.store(options.initial_weight_version);
  EngineOptions per_shard = options.engine;
  if (per_shard.session_budget_bytes > 0) {
    // Equal budget slices; never round down to 0, which means "unlimited".
    per_shard.session_budget_bytes = std::max<size_t>(
        1, per_shard.session_budget_bytes / static_cast<size_t>(n));
  }
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    per_shard.shard_index = i;
    shard->engine = std::make_unique<InferenceEngine>(model, per_shard);
    if (concept_data != nullptr) shard->engine->LoadConceptMap(*concept_data);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->worker = std::thread([this, raw] { WorkerLoop(*raw); });
  }
}

ShardSet::~ShardSet() { Stop(); }

void ShardSet::set_sink(Sink sink) { sink_ = std::move(sink); }

void ShardSet::set_stats_decorator(std::function<void(ServeResponse&)> decorator) {
  stats_decorator_ = std::move(decorator);
}

namespace {

// Ops whose cost scales with the session history (full counterfactual
// passes) — these take the heavy lane so they cannot convoy in front of
// O(1) predicts.
bool HeavyOp(Op op) { return op == Op::kExplain || op == Op::kRecourse; }

// Drops one queued item of `student` from a per-student pending count.
void Release(std::unordered_map<std::string, int64_t>& pending,
             const std::string& student) {
  auto it = pending.find(student);
  if (it != pending.end() && --it->second <= 0) pending.erase(it);
}

}  // namespace

void ShardSet::Enqueue(Shard& shard, Item item) {
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    bool heavy = false;
    if (item.kind == Item::Kind::kRequest) {
      // A student with heavy work already queued keeps subsequent ops in
      // the heavy lane: both lanes are FIFO and drain on the one worker
      // thread, so per-student order survives the split.
      heavy = HeavyOp(item.request.op) ||
              (!item.request.student.empty() &&
               shard.heavy_pending.count(item.request.student) != 0);
    }
    if (heavy) {
      ++shard.heavy_pending[item.request.student];
      shard.heavy_queue.push_back(std::move(item));
    } else {
      if (!item.request.student.empty()) {
        ++shard.light_pending[item.request.student];
      }
      shard.queue.push_back(std::move(item));
    }
    if (obs::Enabled()) {
      obs::Histogram::Get("serve.queue_depth")
          ->Record(static_cast<double>(shard.queue.size() +
                                       shard.heavy_queue.size()));
    }
  }
  shard.cv.notify_all();
}

void ShardSet::SubmitAsync(ServeRequest request, uint64_t tag) {
  if (stopping_.load()) {
    ServeResponse response;
    response.ok = false;
    response.op = request.op;
    response.error = "server is shutting down";
    sink_(tag, SerializeResponse(response));
    return;
  }
  if (request.op == Op::kStats) {
    auto agg = std::make_shared<StatsAgg>();
    agg->remaining = shards();
    agg->tag = tag;
    for (auto& shard : shards_) {
      Item item;
      item.request = request;
      item.agg = agg;
      Enqueue(*shard, std::move(item));
    }
    return;
  }
  Shard& shard = *shards_[shard_for(request.student)];
  Item item;
  item.request = std::move(request);
  item.tag = tag;
  Enqueue(shard, std::move(item));
}

ServeResponse ShardSet::SubmitSync(const ServeRequest& request) {
  if (stopping_.load()) {
    ServeResponse response;
    response.ok = false;
    response.op = request.op;
    response.error = "server is shutting down";
    return response;
  }
  SyncCell cell;
  if (request.op == Op::kStats) {
    auto agg = std::make_shared<StatsAgg>();
    agg->remaining = shards();
    agg->cell = &cell;
    for (auto& shard : shards_) {
      Item item;
      item.request = request;
      item.agg = agg;
      Enqueue(*shard, std::move(item));
    }
  } else {
    Item item;
    item.request = request;
    item.cell = &cell;
    Enqueue(*shards_[shard_for(request.student)], std::move(item));
  }
  std::unique_lock<std::mutex> lock(cell.mu);
  cell.cv.wait(lock, [&] { return cell.done; });
  return std::move(cell.response);
}

void ShardSet::FlushColdSnapshots() {
  // Run on each worker thread (the engines are single-threaded), and wait.
  std::vector<std::unique_ptr<SyncCell>> cells;
  for (auto& shard : shards_) {
    auto cell = std::make_unique<SyncCell>();
    Item item;
    item.kind = Item::Kind::kFlush;
    item.cell = cell.get();
    Enqueue(*shard, std::move(item));
    cells.push_back(std::move(cell));
  }
  for (auto& cell : cells) {
    std::unique_lock<std::mutex> lock(cell->mu);
    cell->cv.wait(lock, [&] { return cell->done; });
  }
}

bool ShardSet::SwapWeights(const std::vector<Tensor>& state,
                           uint64_t fingerprint, int64_t weight_version) {
  if (stopping_.load()) return false;
  const auto start = std::chrono::steady_clock::now();
  auto gate = std::make_shared<SwapGate>();
  for (auto& shard : shards_) {
    Item item;
    item.kind = Item::Kind::kSwap;
    item.gate = gate;
    Enqueue(*shard, std::move(item));
  }
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->arrived == shards(); });
  }
  // Every worker is parked at the gate: no request is in flight anywhere,
  // so mutating the shared weights and each engine's session cache here is
  // race-free even though neither is otherwise synchronized.
  model_->SetState(state);
  for (auto& shard : shards_) shard->engine->OnModelSwapped(fingerprint);
  fingerprint_.store(fingerprint);
  version_.store(weight_version);
  if (obs::Enabled()) {
    const double pause_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    obs::Histogram::Get("serve.swap_pause_ms")->Record(pause_ms);
    obs::Counter::Get("serve.weight_swaps")->Add(1);
  }
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->done = true;
  }
  gate->cv.notify_all();
  return true;
}

void ShardSet::Stop() {
  stopping_.store(true);
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardSet::Deliver(const Item& item, ServeResponse response) {
  if (item.agg != nullptr) {
    StatsAgg& agg = *item.agg;
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(agg.mu);
      agg.acc.op = Op::kStats;
      agg.acc.sessions += response.sessions;
      agg.acc.state_bytes += response.state_bytes;
      agg.acc.history_bytes += response.history_bytes;
      agg.acc.evictions += response.evictions;
      last = --agg.remaining == 0;
    }
    if (!last) return;
    // Model identity + continual section are shard-set-level facts, filled
    // once on the aggregate rather than summed per shard.
    agg.acc.model_fingerprint = fingerprint_.load();
    agg.acc.weight_version = version_.load();
    if (stats_decorator_) stats_decorator_(agg.acc);
    if (agg.cell != nullptr) {
      // Notify under the lock: the waiter owns the cell's storage and may
      // destroy it the moment wait() returns, which it cannot do before we
      // release — so notify_all never touches a dead condition variable.
      std::lock_guard<std::mutex> lock(agg.cell->mu);
      agg.cell->response = agg.acc;
      agg.cell->done = true;
      agg.cell->cv.notify_all();
    } else {
      sink_(agg.tag, SerializeResponse(agg.acc));
    }
    return;
  }
  if (item.cell != nullptr) {
    // Notify under the lock (see above): the cell dies with the waiter.
    std::lock_guard<std::mutex> lock(item.cell->mu);
    item.cell->response = std::move(response);
    item.cell->done = true;
    item.cell->cv.notify_all();
    return;
  }
  sink_(item.tag, SerializeResponse(response));
}

void ShardSet::WorkerLoop(Shard& shard) {
  const int64_t max_batch = std::max<int64_t>(1, options_.batcher.max_batch);
  std::vector<Item> slice;
  while (true) {
    Item heavy_item;
    bool have_heavy = false;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return stopping_.load() || !shard.queue.empty() ||
               !shard.heavy_queue.empty();
      });
      if (shard.queue.empty() && shard.heavy_queue.empty()) {
        return;  // stopping, and fully drained
      }
      if (!shard.queue.empty() &&
          static_cast<int64_t>(shard.queue.size()) < max_batch &&
          !stopping_.load() && options_.batcher.max_wait_us > 0) {
        // Brief straggler window so concurrent clients coalesce into one
        // engine batch.
        shard.cv.wait_for(
            lock, std::chrono::microseconds(options_.batcher.max_wait_us),
            [&] {
              return stopping_.load() ||
                     static_cast<int64_t>(shard.queue.size()) >= max_batch;
            });
      }
      const size_t take = std::min<size_t>(shard.queue.size(),
                                           static_cast<size_t>(max_batch));
      slice.assign(std::make_move_iterator(shard.queue.begin()),
                   std::make_move_iterator(shard.queue.begin() +
                                           static_cast<ptrdiff_t>(take)));
      shard.queue.erase(shard.queue.begin(),
                        shard.queue.begin() + static_cast<ptrdiff_t>(take));
      for (const Item& item : slice) {
        Release(shard.light_pending, item.request.student);
      }
      // At most ONE heavy op per iteration, executed AFTER the light
      // slice: O(1) predicts are delayed by at most one O(T) op. It waits
      // while its student still has light ops queued past this slice —
      // those were enqueued before it and must execute first.
      if (!shard.heavy_queue.empty() &&
          shard.light_pending.count(
              shard.heavy_queue.front().request.student) == 0) {
        heavy_item = std::move(shard.heavy_queue.front());
        shard.heavy_queue.erase(shard.heavy_queue.begin());
        have_heavy = true;
        // The pop is the routing boundary: ops for this student enqueued
        // from here on go to the light lane, where they land in a LATER
        // iteration than this item's execution below — order holds.
        Release(shard.heavy_pending, heavy_item.request.student);
      }
    }
    if (obs::Enabled()) {
      obs::Histogram::Get("serve.batch_size")
          ->Record(static_cast<double>(slice.size()));
    }
    // Contiguous request runs execute as one coalesced engine batch;
    // control items (cold flush) run in order between them.
    size_t i = 0;
    while (i < slice.size()) {
      if (slice[i].kind == Item::Kind::kSwap) {
        // Park at the barrier until the swapping thread has installed the
        // new weights (see SwapWeights). The one heavy item this iteration
        // may have popped executes AFTER the swap — benign: it replays its
        // session against the new weights, same as any later op.
        SwapGate& gate = *slice[i].gate;
        std::unique_lock<std::mutex> lock(gate.mu);
        ++gate.arrived;
        gate.cv.notify_all();
        gate.cv.wait(lock, [&] { return gate.done; });
        ++i;
        continue;
      }
      if (slice[i].kind == Item::Kind::kFlush) {
        shard.engine->FlushColdSnapshots();
        if (slice[i].cell != nullptr) {
          // Notify under the lock (see Deliver): the cell dies with the
          // waiter the moment wait() observes done.
          std::lock_guard<std::mutex> lock(slice[i].cell->mu);
          slice[i].cell->done = true;
          slice[i].cell->cv.notify_all();
        }
        ++i;
        continue;
      }
      size_t j = i;
      std::vector<ServeRequest> requests;
      while (j < slice.size() && slice[j].kind == Item::Kind::kRequest) {
        requests.push_back(std::move(slice[j].request));
        ++j;
      }
      std::vector<ServeResponse> responses = shard.engine->ExecuteBatch(requests);
      for (size_t k = i; k < j; ++k) {
        Deliver(slice[k], std::move(responses[k - i]));
      }
      i = j;
    }
    slice.clear();
    if (have_heavy) {
      Deliver(heavy_item, shard.engine->Execute(heavy_item.request));
    }
  }
}

}  // namespace serve
}  // namespace kt

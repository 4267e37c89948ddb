#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <future>
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
    // A student with heavy work already queued keeps subsequent ops in the
    // heavy lane: both lanes are FIFO and drain on the one worker thread,
    // so per-student order survives the split.
    const bool heavy =
        !item.control &&
        (HeavyOp(item.request.op) ||
         (!item.request.student.empty() &&
          shard.heavy_pending.count(item.request.student) != 0));
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

void ShardSet::Submit(ServeRequest request, Done done) {
  if (stopping_.load()) {
    ServeResponse response;
    response.ok = false;
    response.op = request.op;
    response.error = "server is shutting down";
    done(std::move(response));
    return;
  }
  if (request.op != Op::kStats) {
    Shard& shard = *shards_[shard_for(request.student)];
    Enqueue(shard, Item{std::move(request), std::move(done), nullptr});
    return;
  }
  auto agg = std::make_shared<StatsAgg>();
  agg->remaining = shards();
  for (auto& shard : shards_) {
    Enqueue(*shard, Item{request, [this, agg, done](ServeResponse part) {
      {
        std::lock_guard<std::mutex> lock(agg->mu);
        agg->acc.op = Op::kStats;
        agg->acc.sessions += part.sessions;
        agg->acc.state_bytes += part.state_bytes;
        agg->acc.history_bytes += part.history_bytes;
        agg->acc.evictions += part.evictions;
        if (--agg->remaining != 0) return;
      }
      // Model identity + continual section are shard-set-level facts,
      // filled once on the aggregate rather than summed per shard.
      agg->acc.model_fingerprint = fingerprint_.load();
      agg->acc.weight_version = version_.load();
      if (stats_decorator_) stats_decorator_(agg->acc);
      done(std::move(agg->acc));
    }, nullptr});
  }
}

void ShardSet::SubmitAsync(ServeRequest request, uint64_t tag) {
  // A 16-byte trivially copyable capture: std::function stores it inline,
  // so handing a request to its shard costs no heap allocation.
  Submit(std::move(request), [this, tag](ServeResponse response) {
    sink_(tag, SerializeResponse(response));
  });
}

ServeResponse ShardSet::SubmitSync(const ServeRequest& request) {
  // The callback owns the promise, so nothing a worker touches lives on
  // this (waiting) frame.
  auto reply = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> response = reply->get_future();
  Submit(request, [reply](ServeResponse r) { reply->set_value(std::move(r)); });
  return response.get();
}

void ShardSet::FlushColdSnapshots() {
  // Run on each worker thread (the engines are single-threaded), and wait.
  std::vector<std::future<void>> flushed;
  for (auto& shard : shards_) {
    auto promise = std::make_shared<std::promise<void>>();
    flushed.push_back(promise->get_future());
    Enqueue(*shard, Item{{}, nullptr, [promise](InferenceEngine& engine) {
      engine.FlushColdSnapshots();
      promise->set_value();
    }});
  }
  for (auto& f : flushed) f.wait();
}

bool ShardSet::SwapWeights(const std::vector<Tensor>& state,
                           uint64_t fingerprint, int64_t weight_version) {
  if (stopping_.load()) return false;
  const auto start = std::chrono::steady_clock::now();
  auto gate = std::make_shared<SwapGate>();
  for (auto& shard : shards_) {
    // Each worker parks here until the weights below are installed. The
    // one heavy item its iteration may have popped executes AFTER the
    // swap — benign: it replays its session against the new weights, same
    // as any later op.
    Enqueue(*shard, Item{{}, nullptr, [gate](InferenceEngine&) {
      std::unique_lock<std::mutex> lock(gate->mu);
      ++gate->arrived;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return gate->done; });
    }});
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
    // control items run in order between them.
    size_t i = 0;
    while (i < slice.size()) {
      if (slice[i].control) {
        slice[i].control(*shard.engine);
        ++i;
        continue;
      }
      size_t j = i;
      std::vector<ServeRequest> requests;
      while (j < slice.size() && !slice[j].control) {
        requests.push_back(std::move(slice[j].request));
        ++j;
      }
      std::vector<ServeResponse> responses = shard.engine->ExecuteBatch(requests);
      for (size_t k = i; k < j; ++k) {
        slice[k].done(std::move(responses[k - i]));
      }
      i = j;
    }
    slice.clear();
    if (have_heavy) {
      heavy_item.done(shard.engine->Execute(heavy_item.request));
    }
  }
}

}  // namespace serve
}  // namespace kt

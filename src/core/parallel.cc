#include "core/parallel.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/logging.h"

namespace kt {
namespace {

// Upper bound on a believable pool size; anything above this in
// KT_NUM_THREADS is a typo (e.g. a stray digit), not a real machine.
constexpr long kMaxThreads = 1024;

// Set while a thread is executing chunks of some region; nested parallel
// calls from such a thread run inline (see RunChunks).
thread_local bool t_in_region = false;

// 0 means "not yet initialized"; resolved on first use.
std::atomic<int> g_num_threads{0};

int ResolveDefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw >= 1 ? static_cast<int>(hw) : 1;
  if (const char* env = std::getenv("KT_NUM_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE || value < 1 ||
        value > kMaxThreads) {
      KT_LOG(WARNING) << "ignoring invalid KT_NUM_THREADS='" << env
                      << "' (want an integer in [1, " << kMaxThreads
                      << "]); using " << fallback << " threads";
      return fallback;
    }
    return static_cast<int>(value);
  }
  return fallback;
}

// One process-wide pool. Workers sleep until a region is published; the
// publishing (caller) thread participates in its own region. Only one
// region runs on the pool at a time (region_mu); a second concurrent
// top-level caller simply runs its loop inline, which is always correct
// because inline execution is the semantic baseline.
class Pool {
 public:
  static Pool& Get() {
    static Pool pool;
    return pool;
  }

  // Runs chunk_fn over [0, num_chunks) with up to `threads` participants
  // (caller + workers). Rethrows the first captured exception.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn,
           int threads) {
    std::unique_lock<std::mutex> region(region_mu_, std::try_to_lock);
    if (!region.owns_lock()) {
      RunInline(num_chunks, chunk_fn);
      return;
    }
    EnsureWorkers(threads - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      chunk_fn_ = &chunk_fn;
      num_chunks_ = num_chunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      completed_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      workers_admitted_ = threads - 1;
      ++generation_;
      cv_work_.notify_all();
    }

    t_in_region = true;
    DrainChunks(num_chunks, chunk_fn);
    t_in_region = false;

    // Wait for every chunk AND for all admitted workers to leave the
    // region. The second condition prevents a late-scheduled worker from
    // touching the claim counters after they are reset for the next region.
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == num_chunks_ &&
             active_workers_ == 0;
    });
    chunk_fn_ = nullptr;
    std::exception_ptr error = error_;
    lock.unlock();
    region.unlock();
    if (error) std::rethrow_exception(error);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      cv_work_.notify_all();
    }
    for (std::thread& worker : workers_) worker.join();
  }

  static void RunInline(int64_t num_chunks,
                        const std::function<void(int64_t)>& chunk_fn) {
    for (int64_t c = 0; c < num_chunks; ++c) chunk_fn(c);
  }

  // Claims and executes chunks until the region is exhausted; used by both
  // the caller and the workers. All chunks run even after an error so the
  // completion count stays exact; the first exception is kept.
  void DrainChunks(int64_t num_chunks,
                   const std::function<void(int64_t)>& chunk_fn) {
    for (;;) {
      const int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      try {
        chunk_fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        std::lock_guard<std::mutex> lock(mu_);
        cv_done_.notify_all();
      }
    }
  }

  void EnsureWorkers(int want) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < want) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_work_.wait(lock, [&] {
        return shutdown_ ||
               (chunk_fn_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      // Respect the region's thread budget: workers beyond it sit this
      // region out (the pool never shrinks, but SetNumThreads may lower
      // the budget after workers were spawned).
      if (workers_admitted_ <= 0) continue;
      --workers_admitted_;
      ++active_workers_;
      const std::function<void(int64_t)>* fn = chunk_fn_;
      const int64_t num_chunks = num_chunks_;
      lock.unlock();
      t_in_region = true;
      DrainChunks(num_chunks, *fn);
      t_in_region = false;
      lock.lock();
      if (--active_workers_ == 0) cv_done_.notify_all();
    }
  }

  // Serializes top-level regions; held for a region's full duration.
  std::mutex region_mu_;

  // Guards everything below.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  const std::function<void(int64_t)>* chunk_fn_ = nullptr;
  int64_t num_chunks_ = 0;
  int workers_admitted_ = 0;
  int active_workers_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::exception_ptr error_;

  // Chunk claim / completion counters for the active region.
  std::atomic<int64_t> next_chunk_{0};
  std::atomic<int64_t> completed_{0};
};

// Runs chunk_fn(c) for c in [0, num_chunks) across the pool; the calling
// thread participates. Chunks are claimed dynamically, so chunk_fn must be
// safe to run in any order and from any thread.
void RunChunks(int64_t num_chunks,
               const std::function<void(int64_t)>& chunk_fn) {
  const int threads = GetNumThreads();
  if (num_chunks == 1 || threads <= 1 || t_in_region) {
    for (int64_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  Pool::Get().Run(num_chunks, chunk_fn, threads);
}

}  // namespace

int GetNumThreads() {
  int threads = g_num_threads.load(std::memory_order_acquire);
  if (threads == 0) {
    threads = ResolveDefaultThreads();
    int expected = 0;
    if (!g_num_threads.compare_exchange_strong(expected, threads)) {
      threads = expected;
    }
  }
  return threads;
}

void SetNumThreads(int n) {
  g_num_threads.store(n < 1 ? 1 : n, std::memory_order_release);
}

bool InParallelRegion() { return t_in_region; }

void ParallelForRange(int64_t begin, int64_t end, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  RunChunks((end - begin + grain - 1) / grain, [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = lo + grain < end ? lo + grain : end;
    fn(lo, hi);
  });
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn) {
  ParallelForRange(begin, end, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace kt

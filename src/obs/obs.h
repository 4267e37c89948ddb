// kt::obs — zero-dependency observability: counters, histograms, timers.
//
// Design goals, in priority order:
//   1. Bit-identity: nothing here touches model state or floating-point
//      compute, so enabling or disabling observability can never change a
//      loss, a score, or a checkpoint byte. The A/B contract is asserted by
//      tests/obs_test.cc at 1, 2, and 8 threads.
//   2. Near-zero cost when off: every hot-path call site guards on
//      Enabled(), a single relaxed atomic load. With observability off the
//      instrumented binaries execute the same arithmetic as before the
//      instrumentation existed.
//   3. Exact counts under kt::parallel: counters are sharded across
//      cache-line-padded atomics (one shard per thread slot, chosen by a
//      thread-local hash), so concurrent Add() calls from pool workers
//      neither contend on one line nor lose increments. Value() sums the
//      shards; after a parallel region joins, the sum is exact.
//
// Metric objects live in a process-wide registry keyed by name and are
// never freed; Get() returns a stable pointer that call sites cache in a
// function-local static. Recording is thread-safe; Reset() (tests, epoch
// deltas) must not race with concurrent recording.
//
// Tracing (Chrome trace-event JSON) lives in obs/trace.h; the per-epoch
// JSONL run log lives in obs/runlog.h; flag wiring for binaries lives in
// obs/obs_flags.h.
#ifndef KT_OBS_OBS_H_
#define KT_OBS_OBS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace kt {
namespace obs {

// Master switch for counter/histogram/timer recording. Off by default;
// enabled by --obs on (or implicitly by --trace-out / --run-log, which need
// the metrics feeding them). Hot paths guard on this before touching any
// metric object.
bool Enabled();
void SetEnabled(bool on);

namespace internal {

// One cache line per shard so concurrent Add() calls from different pool
// workers do not false-share.
struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

inline constexpr int kShards = 16;

// Stable per-thread shard slot: the main thread gets slot 0, each new
// thread the next slot (mod kShards). Also the trace track id source.
int ThreadSlot();

}  // namespace internal

// Named monotonic counter. Add() is lock-free (one relaxed fetch_add on the
// calling thread's shard); Value() sums the shards.
class Counter {
 public:
  // Returns the counter registered under `name`, creating it on first use.
  // The pointer is valid for the process lifetime.
  static Counter* Get(const std::string& name);

  void Add(int64_t n) {
    shards_[static_cast<size_t>(internal::ThreadSlot() %
                                internal::kShards)]
        .value.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::array<internal::CounterShard, internal::kShards> shards_;
};

// Merged view of a histogram at one instant.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // bucket[i] counts values v with 2^(i-1) <= v < 2^i (bucket 0: v < 1).
  std::array<int64_t, 64> buckets{};

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  // Bucket-resolution percentile (upper bound of the bucket holding the
  // p-th value), p in [0, 1]. Exact min/max are tracked separately.
  double Percentile(double p) const;
};

// Named value/latency histogram with power-of-two buckets. Record() takes a
// per-shard spinlock (uncontended in practice: shards are per-thread-slot),
// keeping count/sum/min/max exact.
class Histogram {
 public:
  static Histogram* Get(const std::string& name);

  void Record(double value);
  HistogramSnapshot Snapshot() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<int64_t, 64> buckets{};
  };

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::array<Shard, internal::kShards> shards_;
};

// RAII timer: when observability is enabled, records the scope's wall time
// in microseconds into Histogram::Get(name) and, when tracing is active
// (obs/trace.h), emits a complete ("ph":"X") trace slice on the calling
// thread's track. `name` must be a string literal (stored by pointer).
// When disabled, construction is one relaxed atomic load and no clock call.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) : name_(name), active_(Enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (active_) Finish();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void Finish();
  const char* name_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

#define KT_OBS_CONCAT_INNER(a, b) a##b
#define KT_OBS_CONCAT(a, b) KT_OBS_CONCAT_INNER(a, b)
// Times the enclosing scope under `name` (a string literal).
#define KT_OBS_SCOPE(name) \
  ::kt::obs::ScopedTimer KT_OBS_CONCAT(kt_obs_scope_, __LINE__)(name)

// Registry iteration for reports: name-sorted snapshots of everything
// registered so far.
std::vector<Counter*> AllCounters();
std::vector<Histogram*> AllHistograms();

// Human-readable dump of all non-empty counters and histograms (one line
// each), used for the --obs exit summary.
std::string SummaryString();

// Zeroes every registered counter and histogram (registry entries survive).
// Test/report helper; must not race with concurrent recording.
void ResetAllMetrics();

// Resident set size of this process in bytes (Linux /proc/self/status;
// 0 where unsupported). Observability only — never feeds computation.
int64_t CurrentRssBytes();

// Process-wide getrusage figures since start (zeros where unsupported):
// minor page faults, kernel CPU time and the resident-set high-water mark.
// Observability only.
struct ResourceUsage {
  int64_t minflt = 0;
  double sys_ms = 0.0;
  int64_t peak_rss_bytes = 0;
};
ResourceUsage CurrentResourceUsage();

}  // namespace obs
}  // namespace kt

#endif  // KT_OBS_OBS_H_

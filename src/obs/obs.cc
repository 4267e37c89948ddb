#include "obs/obs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/trace.h"

#ifdef __linux__
#include <sys/resource.h>
#endif

namespace kt {
namespace obs {
namespace {

std::atomic<bool> g_enabled{false};

// Name -> metric registries. Lookup happens once per call site (cached in a
// function-local static), so a mutex-guarded map is plenty.
std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, Counter*>& CounterRegistry() {
  static auto* m = new std::map<std::string, Counter*>();
  return *m;
}

std::map<std::string, Histogram*>& HistogramRegistry() {
  static auto* m = new std::map<std::string, Histogram*>();
  return *m;
}

// Bucket index for a value: 0 for v < 1 (and non-finite guards), else
// 1 + floor(log2(v)) clamped to the table.
size_t BucketIndex(double v) {
  if (!(v >= 1.0)) return 0;
  const int e = std::ilogb(v);
  const int idx = e + 1;
  return static_cast<size_t>(std::min(idx, 63));
}

struct SpinGuard {
  explicit SpinGuard(std::atomic_flag& f) : flag(f) {
    while (flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinGuard() { flag.clear(std::memory_order_release); }
  std::atomic_flag& flag;
};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace internal {

int ThreadSlot() {
  static std::atomic<int> next{0};
  thread_local int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

Counter* Counter::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& reg = CounterRegistry();
  auto it = reg.find(name);
  if (it == reg.end()) it = reg.emplace(name, new Counter(name)).first;
  return it->second;
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

Histogram* Histogram::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& reg = HistogramRegistry();
  auto it = reg.find(name);
  if (it == reg.end()) it = reg.emplace(name, new Histogram(name)).first;
  return it->second;
}

void Histogram::Record(double value) {
  Shard& shard = shards_[static_cast<size_t>(internal::ThreadSlot() %
                                             internal::kShards)];
  SpinGuard guard(shard.lock);
  if (shard.count == 0) {
    shard.min = value;
    shard.max = value;
  } else {
    shard.min = std::min(shard.min, value);
    shard.max = std::max(shard.max, value);
  }
  ++shard.count;
  shard.sum += value;
  ++shard.buckets[BucketIndex(value)];
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const auto& shard : shards_) {
    SpinGuard guard(const_cast<Shard&>(shard).lock);
    if (shard.count == 0) continue;
    if (snap.count == 0) {
      snap.min = shard.min;
      snap.max = shard.max;
    } else {
      snap.min = std::min(snap.min, shard.min);
      snap.max = std::max(snap.max, shard.max);
    }
    snap.count += shard.count;
    snap.sum += shard.sum;
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      snap.buckets[i] += shard.buckets[i];
    }
  }
  return snap;
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    SpinGuard guard(shard.lock);
    shard.count = 0;
    shard.sum = 0.0;
    shard.min = 0.0;
    shard.max = 0.0;
    shard.buckets.fill(0);
  }
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const int64_t rank =
      std::min<int64_t>(count - 1,
                        static_cast<int64_t>(p * static_cast<double>(count)));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Upper edge of bucket i; bucket 0 is [0, 1).
      return i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i));
    }
  }
  return max;
}

void ScopedTimer::Finish() {
  const auto end = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(end - start_).count();
  // Cache the histogram per (call site x name): the name is a literal, so a
  // registry hit per Finish() is fine — Finish only runs when obs is on.
  Histogram::Get(name_)->Record(us);
  if (TracingActive()) {
    internal::TraceComplete(
        name_,
        std::chrono::duration<double, std::micro>(
            start_.time_since_epoch())
            .count(),
        us);
  }
}

std::vector<Counter*> AllCounters() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<Counter*> out;
  out.reserve(CounterRegistry().size());
  for (const auto& [name, counter] : CounterRegistry()) out.push_back(counter);
  return out;
}

std::vector<Histogram*> AllHistograms() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<Histogram*> out;
  out.reserve(HistogramRegistry().size());
  for (const auto& [name, hist] : HistogramRegistry()) out.push_back(hist);
  return out;
}

std::string SummaryString() {
  std::ostringstream out;
  out << "kt::obs summary\n";
  for (Counter* counter : AllCounters()) {
    const int64_t value = counter->Value();
    if (value == 0) continue;
    out << "  counter " << counter->name() << " = " << value << "\n";
  }
  for (Histogram* hist : AllHistograms()) {
    const HistogramSnapshot snap = hist->Snapshot();
    if (snap.count == 0) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  hist    %s: n=%lld mean=%.1fus p50<=%.0fus p99<=%.0fus "
                  "max=%.1fus",
                  hist->name().c_str(), static_cast<long long>(snap.count),
                  snap.Mean(), snap.Percentile(0.5), snap.Percentile(0.99),
                  snap.max);
    out << line << "\n";
  }
  return out.str();
}

void ResetAllMetrics() {
  for (Counter* counter : AllCounters()) counter->Reset();
  for (Histogram* hist : AllHistograms()) hist->Reset();
}

int64_t CurrentRssBytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long value = 0;
    if (std::sscanf(line, "VmRSS: %lld kB", &value) == 1) {
      kb = value;
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

ResourceUsage CurrentResourceUsage() {
  ResourceUsage usage;
#ifdef __linux__
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.minflt = ru.ru_minflt;
    usage.sys_ms = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
    usage.peak_rss_bytes = static_cast<int64_t>(ru.ru_maxrss) * 1024;  // KiB
  }
#endif
  return usage;
}

}  // namespace obs
}  // namespace kt

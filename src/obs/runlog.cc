#include "obs/runlog.h"

#include <cstdio>
#include <mutex>

#include "core/fileio.h"
#include "core/json.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "obs/obs.h"

namespace kt {
namespace obs {
namespace {

// Run-log state: path + every line appended so far (the file is rewritten
// whole on each append so the on-disk artifact is always complete).
std::mutex& Mutex() {
  static std::mutex mu;
  return mu;
}

std::string& PathStorage() {
  static auto* s = new std::string();
  return *s;
}

std::string& Lines() {
  static auto* s = new std::string();
  return *s;
}

}  // namespace

void SetRunLogPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(Mutex());
  PathStorage() = path;
  Lines().clear();
  if (!path.empty()) SetEnabled(true);
}

const std::string& RunLogPath() {
  std::lock_guard<std::mutex> lock(Mutex());
  return PathStorage();
}

bool RunLogActive() {
  std::lock_guard<std::mutex> lock(Mutex());
  return !PathStorage().empty();
}

void AppendRunLogEntry(const RunLogEntry& entry) {
  std::lock_guard<std::mutex> lock(Mutex());
  if (PathStorage().empty()) return;
  const double seconds = entry.epoch_ms / 1000.0;
  const double tokens_per_sec =
      seconds > 0.0 ? static_cast<double>(entry.tokens) / seconds : 0.0;
  const ResourceUsage usage = CurrentResourceUsage();
  char line[512];
  std::snprintf(
      line, sizeof(line),
      ",\"epoch\":%lld,\"train_loss\":%.9g,"
      "\"val_auc\":%.9g,\"val_acc\":%.9g,\"epoch_ms\":%.3f,"
      "\"tokens\":%lld,\"tokens_per_sec\":%.1f,\"gemm_flops\":%lld,"
      "\"ckpt_ms\":%.3f,\"rss_bytes\":%lld,\"peak_rss_bytes\":%lld,"
      "\"minflt\":%lld,\"sys_ms\":%.3f,\"threads\":%d}\n",
      static_cast<long long>(entry.epoch), entry.train_loss, entry.val_auc,
      entry.val_acc, entry.epoch_ms,
      static_cast<long long>(entry.tokens), tokens_per_sec,
      static_cast<long long>(entry.gemm_flops), entry.ckpt_ms,
      static_cast<long long>(CurrentRssBytes()),
      static_cast<long long>(usage.peak_rss_bytes),
      static_cast<long long>(usage.minflt - entry.usage_at_start.minflt),
      usage.sys_ms - entry.usage_at_start.sys_ms, GetNumThreads());
  Lines() += "{\"run\":";
  AppendJsonString(&Lines(), entry.run);
  Lines() += line;
  const Status status = AtomicWriteFile(PathStorage(), Lines());
  if (!status.ok()) {
    // Telemetry must never kill a training run; warn and keep going.
    KT_LOG(WARNING) << "run log write to " << PathStorage()
                    << " failed: " << status.ToString();
  }
}

void AppendContinualLogEntry(const ContinualLogEntry& entry) {
  std::lock_guard<std::mutex> lock(Mutex());
  if (PathStorage().empty()) return;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"run\":\"continual\",\"mini_epoch\":%lld,\"events\":%lld,"
      "\"reservoir_size\":%lld,\"samples\":%lld,\"train_loss\":%.9g,"
      "\"epoch_ms\":%.3f,\"candidate_auc\":%.9g,\"incumbent_auc\":%.9g,"
      "\"gate_samples\":%lld,\"promoted\":%s,\"weight_version\":%lld,"
      "\"threads\":%d}\n",
      static_cast<long long>(entry.mini_epoch),
      static_cast<long long>(entry.events),
      static_cast<long long>(entry.reservoir_size),
      static_cast<long long>(entry.samples), entry.train_loss, entry.epoch_ms,
      entry.candidate_auc, entry.incumbent_auc,
      static_cast<long long>(entry.gate_samples),
      entry.promoted ? "true" : "false",
      static_cast<long long>(entry.weight_version), GetNumThreads());
  Lines() += line;
  const Status status = AtomicWriteFile(PathStorage(), Lines());
  if (!status.ok()) {
    KT_LOG(WARNING) << "run log write to " << PathStorage()
                    << " failed: " << status.ToString();
  }
}

void ResetRunLog() {
  std::lock_guard<std::mutex> lock(Mutex());
  PathStorage().clear();
  Lines().clear();
}

}  // namespace obs
}  // namespace kt

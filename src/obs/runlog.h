// Per-epoch JSONL run log.
//
// When a path is set (--run-log), the training loops append one JSON object
// per epoch: loss, validation AUC/ACC, wall time, token throughput, GEMM
// FLOPs performed during the epoch (from the kernel-layer counters),
// checkpoint commit latency, and process RSS (current and peak). The file is rewritten through
// AtomicWriteFile after every append, so a kill at any point leaves a
// complete, parseable log of every finished epoch — the same crash contract
// as kt::ckpt, which the log is designed to sit next to.
//
// Schema (one object per line; tools/obs_check.cc validates it):
//   {"run":str, "epoch":int, "train_loss":num, "val_auc":num,
//    "val_acc":num, "epoch_ms":num, "tokens":int, "tokens_per_sec":num,
//    "gemm_flops":int, "ckpt_ms":num, "rss_bytes":int,
//    "peak_rss_bytes":int, "minflt":int, "sys_ms":num, "threads":int}
// "ckpt_ms" is 0 on epochs without a checkpoint commit. "peak_rss_bytes" is
// the process's resident-set high-water mark so far (getrusage ru_maxrss),
// not a per-epoch figure; the kernel's counters can leave it a few pages
// below "rss_bytes". "minflt" and
// "sys_ms" are the process's minor page faults and kernel CPU time over the
// epoch (getrusage deltas; all threads). "threads" is the resolved
// kt::parallel pool size (GetNumThreads()) when the line was written; the
// continual records carry it too. Forward evolution adds keys; existing
// keys are never renamed or retyped.
#ifndef KT_OBS_RUNLOG_H_
#define KT_OBS_RUNLOG_H_

#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace kt {
namespace obs {

// Arms the run log (empty path disarms). Truncates any previous in-memory
// lines; the file is created on the first Append. Also enables kt::obs
// recording (the log reads the GEMM FLOP counters).
void SetRunLogPath(const std::string& path);
const std::string& RunLogPath();
bool RunLogActive();

// One epoch record. The trainers fill this; fields they cannot know (e.g.
// rss) are stamped by AppendRunLogEntry.
struct RunLogEntry {
  std::string run;  // model / trainer tag
  int64_t epoch = 0;
  double train_loss = 0.0;
  double val_auc = 0.0;
  double val_acc = 0.0;
  double epoch_ms = 0.0;
  int64_t tokens = 0;        // interactions consumed by training this epoch
  int64_t gemm_flops = 0;    // kernel-layer FLOPs spent this epoch
  double ckpt_ms = 0.0;      // checkpoint commit latency (0 = no commit)
  ResourceUsage usage_at_start;  // CurrentResourceUsage() as the epoch began
};

// Serializes `entry` (plus tokens_per_sec, rss_bytes, peak_rss_bytes, the
// minflt/sys_ms deltas since usage_at_start, and threads) as one JSONL line
// and atomically rewrites the log file. No-op when no path is set.
void AppendRunLogEntry(const RunLogEntry& entry);

// One continual-trainer mini-epoch record (kt::continual). Lives in the
// same JSONL file as training epochs, distinguished by "run":"continual";
// the promotion gate's held-out online AUCs are logged here so the decision
// to swap (or not) is always auditable from the run log.
struct ContinualLogEntry {
  int64_t mini_epoch = 0;
  int64_t events = 0;        // stream events consumed since start
  int64_t reservoir_size = 0;
  int64_t samples = 0;       // training samples in this mini-epoch
  double train_loss = 0.0;
  double epoch_ms = 0.0;
  double candidate_auc = 0.0;   // held-out online AUC, candidate weights
  double incumbent_auc = 0.0;   // held-out online AUC, serving weights
  int64_t gate_samples = 0;
  bool promoted = false;
  int64_t weight_version = 0;   // after this mini-epoch
};
void AppendContinualLogEntry(const ContinualLogEntry& entry);

// Drops buffered lines and disarms (tests).
void ResetRunLog();

}  // namespace obs
}  // namespace kt

#endif  // KT_OBS_RUNLOG_H_

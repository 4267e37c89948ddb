#include "serve/coldtier.h"

#include <cstdio>
#include <utility>

#include "ckpt/ckpt.h"
#include "core/binio.h"
#include "core/fileio.h"
#include "core/hash.h"
#include "core/logging.h"
#include "obs/obs.h"

namespace kt {
namespace serve {
namespace {

// v2 appended the model fingerprint to the schema section. v1 snapshots
// (no fingerprint) predate hot weight swaps and read as misses.
constexpr uint32_t kSnapshotVersion = 2;

void AppendHistory(std::string* out,
                   const std::vector<data::Interaction>& history) {
  AppendPod<uint64_t>(out, history.size());
  for (const auto& it : history) {
    AppendPod<int64_t>(out, it.question);
    AppendPod<int32_t>(out, static_cast<int32_t>(it.response));
    AppendPod<uint32_t>(out, static_cast<uint32_t>(it.concepts.size()));
    for (const int64_t c : it.concepts) AppendPod<int64_t>(out, c);
  }
}

bool ReadHistory(std::string_view bytes,
                 std::vector<data::Interaction>* history) {
  BinCursor cursor(bytes.data(), bytes.size());
  uint64_t count = 0;
  if (!cursor.Read(&count)) return false;
  history->clear();
  history->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    data::Interaction it;
    int32_t response = 0;
    uint32_t bag = 0;
    if (!cursor.Read(&it.question) || !cursor.Read(&response) ||
        !cursor.Read(&bag)) {
      return false;
    }
    it.response = response;
    it.concepts.resize(bag);
    for (uint32_t c = 0; c < bag; ++c) {
      if (!cursor.Read(&it.concepts[c])) return false;
    }
    history->push_back(std::move(it));
  }
  return cursor.done();
}

void BumpCounter(const char* name) {
  if (obs::Enabled()) obs::Counter::Get(name)->Add(1);
}

}  // namespace

ColdTier::ColdTier(std::string dir, const rckt::BiEncoder& encoder,
                   rckt::EncoderKind kind, int64_t dim, int64_t num_layers,
                   uint64_t model_fingerprint)
    : dir_(std::move(dir)),
      encoder_(encoder),
      kind_(kind),
      dim_(dim),
      num_layers_(num_layers),
      model_fingerprint_(model_fingerprint) {
  if (!MakeDirs(dir_)) {
    KT_LOG(WARNING) << "cold tier: cannot create directory " << dir_;
  }
}

std::string ColdTier::PathFor(const std::string& student) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a(student)));
  return dir_ + "/" + hex + ".ktc";
}

bool ColdTier::Save(const Session& session) {
  if (session.stream == nullptr || session.history.empty()) return false;
  ckpt::CheckpointWriter writer;
  std::string& schema = writer.Section("schema");
  AppendPod<uint32_t>(&schema, kSnapshotVersion);
  AppendPod<int32_t>(&schema, static_cast<int32_t>(kind_));
  AppendPod<int64_t>(&schema, dim_);
  AppendPod<int64_t>(&schema, num_layers_);
  AppendPod<uint64_t>(&schema, model_fingerprint_);
  writer.Section("student") = session.id;
  AppendHistory(&writer.Section("history"), session.history);
  encoder_.SerializeStream(*session.stream, &writer.Section("stream"));
  std::string& last_f = writer.Section("last_f");
  AppendPod<uint32_t>(&last_f, static_cast<uint32_t>(session.last_f.numel()));
  AppendBytes(&last_f, session.last_f.data(),
              static_cast<size_t>(session.last_f.numel()) * sizeof(float));
  const Status status = writer.Commit(PathFor(session.id));
  if (!status.ok()) {
    KT_LOG(WARNING) << "cold tier: snapshot of '" << session.id
                    << "' failed: " << status.message();
    return false;
  }
  BumpCounter("serve.cold_saves");
  return true;
}

bool ColdTier::Load(Session* session) {
  if (session->stream != nullptr) return false;
  const std::string path = PathFor(session->id);
  ckpt::CheckpointReader reader;
  if (!reader.Open(path).ok()) return false;

  std::string_view schema, student, history_bytes, stream_bytes, last_bytes;
  if (!reader.Find("schema", &schema).ok() ||
      !reader.Find("student", &student).ok() ||
      !reader.Find("history", &history_bytes).ok() ||
      !reader.Find("stream", &stream_bytes).ok() ||
      !reader.Find("last_f", &last_bytes).ok()) {
    return false;
  }
  // Hash-collision / schema guard: the snapshot must name this student and
  // this model shape exactly, else it is a miss.
  if (student != session->id) return false;
  uint64_t snapshot_fingerprint = 0;
  {
    BinCursor cursor(schema.data(), schema.size());
    uint32_t version = 0;
    int32_t kind = 0;
    int64_t dim = 0, layers = 0;
    if (!cursor.Read(&version) || version != kSnapshotVersion ||
        !cursor.Read(&kind) || kind != static_cast<int32_t>(kind_) ||
        !cursor.Read(&dim) || dim != dim_ || !cursor.Read(&layers) ||
        layers != num_layers_ || !cursor.Read(&snapshot_fingerprint)) {
      return false;
    }
  }

  std::vector<data::Interaction> history;
  if (!ReadHistory(history_bytes, &history) || history.empty()) return false;
  if (!session->history.empty() && session->history != history) {
    // A snapshot that disagrees with the live history is stale garbage
    // (e.g. leftover from a previous run after a reset): drop it.
    std::remove(path.c_str());
    return false;
  }

  if (snapshot_fingerprint != model_fingerprint_) {
    // The stream bits were produced by DIFFERENT weights (a hot swap or a
    // restart onto new weights happened after the snapshot) — resuming
    // them would silently serve stale-model predictions. The history is
    // model-independent ground truth though: adopt it on a warm restart
    // (session has none yet) so the caller can rebuild by replay against
    // the CURRENT weights, then drop the stale snapshot.
    if (session->history.empty()) session->history = std::move(history);
    std::remove(path.c_str());
    BumpCounter("serve.cold_fingerprint_miss");
    return false;
  }

  auto stream = encoder_.DeserializeStream(
      stream_bytes.data(), stream_bytes.size(),
      static_cast<int64_t>(history.size()));
  if (stream == nullptr) return false;

  BinCursor cursor(last_bytes.data(), last_bytes.size());
  uint32_t numel = 0;
  if (!cursor.Read(&numel) || static_cast<int64_t>(numel) != dim_) {
    return false;
  }
  Tensor last_f(Shape{1, dim_});
  if (!cursor.ReadBytes(last_f.data(),
                        static_cast<size_t>(dim_) * sizeof(float)) ||
      !cursor.done()) {
    return false;
  }

  session->history = std::move(history);
  session->stream = std::move(stream);
  session->last_f = std::move(last_f);
  BumpCounter("serve.cold_loads");
  return true;
}

void ColdTier::Erase(const std::string& student) {
  std::remove(PathFor(student).c_str());
}

}  // namespace serve
}  // namespace kt

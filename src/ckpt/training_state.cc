#include "ckpt/training_state.h"

#include <cstring>

#include "ckpt/ckpt.h"
#include "core/binio.h"
#include "nn/serialize.h"
#include "obs/obs.h"

namespace kt {
namespace ckpt {
namespace {

// Tensor lists (Adam moments, best-epoch snapshot) are stored without names:
// their order and shapes are pinned to the module's parameter order, and the
// parse validates each tensor against the expected shape before allocating.
void AppendTensorList(const std::vector<Tensor>& tensors, std::string* out) {
  AppendPod(out, static_cast<uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    AppendPod(out, static_cast<uint32_t>(t.dim()));
    for (int64_t d = 0; d < t.dim(); ++d) {
      AppendPod(out, static_cast<int64_t>(t.size(d)));
    }
    AppendBytes(out, t.data(), sizeof(float) * t.numel());
  }
}

Status ParseTensorList(BinCursor& cursor, const std::vector<Shape>& expected,
                       bool allow_empty, const std::string& what,
                       std::vector<Tensor>* out) {
  uint64_t count = 0;
  if (!cursor.Read(&count)) {
    return Status::IoError("truncated " + what + " tensor count");
  }
  if (count == 0 && allow_empty) {
    out->clear();
    return Status::Ok();
  }
  if (count != expected.size()) {
    return Status::InvalidArgument(
        what + " tensor count mismatch: file has " + std::to_string(count) +
        ", module has " + std::to_string(expected.size()) + " parameters");
  }
  out->clear();
  out->reserve(expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    uint32_t rank = 0;
    if (!cursor.Read(&rank)) {
      return Status::IoError("truncated " + what + " rank");
    }
    if (rank != expected[i].size()) {
      return Status::InvalidArgument(
          what + " rank mismatch at tensor " + std::to_string(i) + ": file " +
          std::to_string(rank) + " vs module " +
          std::to_string(expected[i].size()));
    }
    Shape shape(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      if (!cursor.Read(&shape[d])) {
        return Status::IoError("truncated " + what + " shape");
      }
    }
    if (shape != expected[i]) {
      return Status::InvalidArgument(
          what + " shape mismatch at tensor " + std::to_string(i) + ": file " +
          ShapeToString(shape) + " vs module " + ShapeToString(expected[i]));
    }
    Tensor value(shape);
    if (!cursor.ReadBytes(value.data(), sizeof(float) * value.numel())) {
      return Status::IoError("truncated " + what + " data");
    }
    out->push_back(std::move(value));
  }
  return Status::Ok();
}

std::vector<Shape> ParameterShapes(const nn::Module& module) {
  std::vector<Shape> shapes;
  for (const auto& p : module.Parameters()) shapes.push_back(p.value().shape());
  return shapes;
}

}  // namespace

void AppendAdamState(const nn::Adam& adam, std::string* out) {
  AppendPod(out, static_cast<int64_t>(adam.step_count()));
  AppendTensorList(adam.moment1(), out);
  AppendTensorList(adam.moment2(), out);
}

Status ParseAdamState(const char* data, size_t size,
                      const std::vector<Shape>& expected, AdamState* out) {
  BinCursor cursor(data, size);
  AdamState parsed;
  if (!cursor.Read(&parsed.step) || parsed.step < 0) {
    return Status::InvalidArgument("corrupt adam step counter");
  }
  if (Status status =
          ParseTensorList(cursor, expected, false, "adam m", &parsed.m);
      !status.ok()) {
    return status;
  }
  if (Status status =
          ParseTensorList(cursor, expected, false, "adam v", &parsed.v);
      !status.ok()) {
    return status;
  }
  if (!cursor.done()) {
    return Status::InvalidArgument("trailing bytes in adam state");
  }
  *out = std::move(parsed);
  return Status::Ok();
}

Status SaveTrainingState(const TrainingState& state, const std::string& path) {
  KT_OBS_SCOPE("ckpt/save");
  if (obs::Enabled()) {
    static obs::Counter* const saves = obs::Counter::Get("ckpt.saves");
    saves->Add(1);
  }
  KT_CHECK(state.module != nullptr);
  KT_CHECK(state.progress != nullptr);

  CheckpointWriter writer;

  std::string& meta = writer.Section("meta");
  AppendPod(&meta, static_cast<uint32_t>(state.tag.size()));
  AppendBytes(&meta, state.tag.data(), state.tag.size());

  nn::AppendModuleState(*state.module, &writer.Section("module"));

  if (state.optimizer != nullptr) {
    AppendAdamState(*state.optimizer, &writer.Section("adam"));
  }

  std::string& rng = writer.Section("rng");
  AppendPod(&rng, static_cast<uint32_t>(state.rngs.size()));
  for (const auto& [name, stream] : state.rngs) {
    KT_CHECK(stream != nullptr);
    AppendPod(&rng, static_cast<uint32_t>(name.size()));
    AppendBytes(&rng, name.data(), name.size());
    const Rng::State s = stream->GetState();
    for (uint64_t word : s.s) AppendPod(&rng, word);
    AppendPod(&rng, static_cast<uint8_t>(s.has_cached_gaussian ? 1 : 0));
    AppendPod(&rng, s.cached_gaussian);
  }

  const TrainerProgress& p = *state.progress;
  std::string& progress = writer.Section("progress");
  AppendPod(&progress, p.next_epoch);
  AppendPod(&progress, p.epochs_run);
  AppendPod(&progress, p.best_val_auc);
  AppendPod(&progress, p.best_epoch);
  AppendPod(&progress, p.epochs_since_best);
  AppendPod(&progress, static_cast<uint64_t>(p.val_auc_history.size()));
  for (double v : p.val_auc_history) AppendPod(&progress, v);
  AppendPod(&progress, static_cast<uint64_t>(p.train_loss_history.size()));
  for (double v : p.train_loss_history) AppendPod(&progress, v);

  if (state.best_state != nullptr) {
    AppendTensorList(*state.best_state, &writer.Section("best"));
  }

  return writer.Commit(path);
}

Status LoadTrainingState(const TrainingState& state, const std::string& path) {
  KT_OBS_SCOPE("ckpt/load");
  if (obs::Enabled()) {
    static obs::Counter* const loads = obs::Counter::Get("ckpt.loads");
    loads->Add(1);
  }
  KT_CHECK(state.module != nullptr);
  KT_CHECK(state.progress != nullptr);

  CheckpointReader reader;
  if (Status status = reader.Open(path); !status.ok()) return status;

  // Parse and validate every section into temporaries first; live state is
  // only touched in the commit block at the bottom.
  std::string_view section;

  if (Status status = reader.Find("meta", &section); !status.ok()) {
    return status;
  }
  {
    BinCursor cursor(section.data(), section.size());
    uint32_t tag_len = 0;
    if (!cursor.Read(&tag_len) || tag_len != state.tag.size()) {
      return Status::InvalidArgument("checkpoint tag mismatch in " + path +
                                     " (expected '" + state.tag + "')");
    }
    std::string tag;
    if (!cursor.ReadString(&tag, tag_len) || tag != state.tag) {
      return Status::InvalidArgument("checkpoint tag mismatch in " + path +
                                     ": file '" + tag + "' vs expected '" +
                                     state.tag + "'");
    }
  }

  const std::vector<Shape> shapes = ParameterShapes(*state.module);

  AdamState adam;
  if (state.optimizer != nullptr) {
    if (Status status = reader.Find("adam", &section); !status.ok()) {
      return status;
    }
    if (Status status =
            ParseAdamState(section.data(), section.size(), shapes, &adam);
        !status.ok()) {
      return Status(status.code(), status.message() + " in " + path);
    }
  }

  std::vector<Rng::State> rng_states(state.rngs.size());
  if (!state.rngs.empty()) {
    if (Status status = reader.Find("rng", &section); !status.ok()) {
      return status;
    }
    BinCursor cursor(section.data(), section.size());
    uint32_t count = 0;
    if (!cursor.Read(&count)) {
      return Status::IoError("truncated rng count in " + path);
    }
    std::vector<bool> restored(state.rngs.size(), false);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t name_len = 0;
      if (!cursor.Read(&name_len) || cursor.remaining() < name_len) {
        return Status::IoError("truncated rng name in " + path);
      }
      std::string name;
      cursor.ReadString(&name, name_len);
      Rng::State s;
      for (uint64_t& word : s.s) {
        if (!cursor.Read(&word)) {
          return Status::IoError("truncated rng state in " + path);
        }
      }
      uint8_t has_cached = 0;
      if (!cursor.Read(&has_cached) || !cursor.Read(&s.cached_gaussian)) {
        return Status::IoError("truncated rng state in " + path);
      }
      s.has_cached_gaussian = has_cached != 0;
      for (size_t j = 0; j < state.rngs.size(); ++j) {
        if (state.rngs[j].first == name) {
          rng_states[j] = s;
          restored[j] = true;
        }
      }
    }
    for (size_t j = 0; j < state.rngs.size(); ++j) {
      if (!restored[j]) {
        return Status::InvalidArgument("checkpoint " + path +
                                       " has no state for rng stream '" +
                                       state.rngs[j].first + "'");
      }
    }
  }

  TrainerProgress progress;
  if (Status status = reader.Find("progress", &section); !status.ok()) {
    return status;
  }
  {
    BinCursor cursor(section.data(), section.size());
    uint64_t val_len = 0, loss_len = 0;
    if (!cursor.Read(&progress.next_epoch) ||
        !cursor.Read(&progress.epochs_run) ||
        !cursor.Read(&progress.best_val_auc) ||
        !cursor.Read(&progress.best_epoch) ||
        !cursor.Read(&progress.epochs_since_best) || !cursor.Read(&val_len) ||
        cursor.remaining() < val_len * sizeof(double)) {
      return Status::IoError("truncated progress section in " + path);
    }
    progress.val_auc_history.resize(val_len);
    for (double& v : progress.val_auc_history) cursor.Read(&v);
    if (!cursor.Read(&loss_len) ||
        cursor.remaining() < loss_len * sizeof(double)) {
      return Status::IoError("truncated progress section in " + path);
    }
    progress.train_loss_history.resize(loss_len);
    for (double& v : progress.train_loss_history) cursor.Read(&v);
    if (!cursor.done()) {
      return Status::InvalidArgument("trailing bytes in progress section of " +
                                     path);
    }
  }

  std::vector<Tensor> best;
  if (state.best_state != nullptr) {
    if (Status status = reader.Find("best", &section); !status.ok()) {
      return status;
    }
    BinCursor cursor(section.data(), section.size());
    if (Status status =
            ParseTensorList(cursor, shapes, true, "best state", &best);
        !status.ok()) {
      return status;
    }
    if (!cursor.done()) {
      return Status::InvalidArgument("trailing bytes in best section of " +
                                     path);
    }
  }

  // Module parameters last: ParseModuleState stages internally, so this is
  // the first point anything can be mutated — and it either fully succeeds
  // or leaves the module untouched.
  if (Status status = reader.Find("module", &section); !status.ok()) {
    return status;
  }
  if (Status status = nn::ParseModuleState(section.data(), section.size(),
                                           *state.module);
      !status.ok()) {
    return status;
  }

  // Commit phase: everything below is validated and cannot fail.
  if (state.optimizer != nullptr) {
    state.optimizer->SetState(adam.m, adam.v, adam.step);
  }
  for (size_t j = 0; j < state.rngs.size(); ++j) {
    state.rngs[j].second->SetState(rng_states[j]);
  }
  *state.progress = std::move(progress);
  if (state.best_state != nullptr) *state.best_state = std::move(best);
  return Status::Ok();
}

}  // namespace ckpt
}  // namespace kt

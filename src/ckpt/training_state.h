// Full-training-state checkpointing on top of the kt::ckpt container.
//
// A training checkpoint captures everything a resumed run needs to be
// bit-identical to an uninterrupted one:
//   * module parameters (section "module", the nn/serialize encoding),
//   * Adam first/second moments and step counter (section "adam"),
//   * every named core::Rng stream the trainer consumes (section "rng"),
//   * trainer progress — epoch, best validation metric, early-stop counter,
//     loss/AUC history (section "progress"),
//   * the best-epoch parameter snapshot kept for early stopping
//     (section "best"),
//   * a caller-chosen tag, typically the model name, verified on load so a
//     checkpoint cannot be resumed into a different architecture
//     (section "meta").
//
// LoadTrainingState is all-or-nothing: every section is parsed and
// validated (names, shapes, counts) before the first byte of live state is
// touched, so a corrupt file leaves the model, optimizer, and RNGs exactly
// as they were.
#ifndef KT_CKPT_TRAINING_STATE_H_
#define KT_CKPT_TRAINING_STATE_H_

#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "nn/adam.h"
#include "nn/module.h"

namespace kt {
namespace ckpt {

// Where a training loop stands; the checkpoint freezes this alongside the
// parameters so a resume continues exactly where the run was killed.
struct TrainerProgress {
  int64_t next_epoch = 0;  // first epoch the resumed loop should run
  int64_t epochs_run = 0;
  double best_val_auc = 0.0;
  int64_t best_epoch = -1;
  int64_t epochs_since_best = 0;  // early-stopping counter
  std::vector<double> val_auc_history;
  std::vector<double> train_loss_history;
};

// Live references covered by one checkpoint. `module` and `progress` are
// required; `optimizer`, `rngs`, and `best_state` are included when
// non-null/non-empty. The same struct drives save and load.
struct TrainingState {
  std::string tag;  // verified on load (typically the model name)
  nn::Module* module = nullptr;
  nn::Adam* optimizer = nullptr;
  std::vector<std::pair<std::string, Rng*>> rngs;
  TrainerProgress* progress = nullptr;
  std::vector<Tensor>* best_state = nullptr;  // empty vector = no best yet
};

// Atomically writes the checkpoint (crash at any offset leaves the previous
// file intact).
Status SaveTrainingState(const TrainingState& state, const std::string& path);

// Restores all referenced state from `path`. On any error (corruption,
// tag/shape mismatch, missing section) nothing is modified.
Status LoadTrainingState(const TrainingState& state, const std::string& path);

// Buffer-level Adam-state encoding (the "adam" section layout: step counter,
// then the moment-1 and moment-2 tensor lists in parameter order), exposed
// so other checkpoint producers — the continual trainer — embed optimizer
// state in their own kt::ckpt containers with the same validation story.
void AppendAdamState(const nn::Adam& adam, std::string* out);
// A parsed "adam" section, not yet applied to an optimizer.
struct AdamState {
  int64_t step = 0;
  std::vector<Tensor> m, v;
};
// Parses a buffer written by AppendAdamState against `expected` (the
// module's parameter shapes) into *out, which is set only when the whole
// buffer validates. The caller commits it with nn::Adam::SetState once
// everything else it loads has validated too.
Status ParseAdamState(const char* data, size_t size,
                      const std::vector<Shape>& expected, AdamState* out);

}  // namespace ckpt
}  // namespace kt

#endif  // KT_CKPT_TRAINING_STATE_H_

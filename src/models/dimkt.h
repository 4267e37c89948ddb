// DIMKT (Shen et al., 2022): difficulty-aware knowledge tracing.
//
// The difficulty effect is injected at three places, following the paper's
// central idea that question difficulty moderates both the encounter and
// the acquisition of knowledge:
//   * difficulty-level embeddings (from empirical training-set correct
//     rates) are added to the question embedding,
//   * the interaction sequence the recurrent core consumes includes the
//     difficulty embedding,
//   * the prediction MLP additionally conditions on the target question's
//     difficulty embedding.
#ifndef KT_MODELS_DIMKT_H_
#define KT_MODELS_DIMKT_H_

#include <memory>

#include "models/difficulty.h"
#include "models/embedder.h"
#include "models/neural_base.h"
#include "nn/linear.h"
#include "nn/recurrent.h"

namespace kt {
namespace models {

class DIMKT : public NeuralKTModel {
 public:
  // `difficulty` must be computed from the training split only.
  DIMKT(int64_t num_questions, int64_t num_concepts, DifficultyTable difficulty,
        NeuralConfig config);

 protected:
  ag::Variable ForwardLogits(const data::Batch& batch,
                             const nn::Context& ctx) override;

 private:
  // Per-position difficulty-level embedding, [B, T, d].
  ag::Variable DifficultyEmbed(const data::Batch& batch) const;

  DifficultyTable difficulty_;
  InteractionEmbedder embedder_;
  nn::Embedding level_emb_;
  std::unique_ptr<nn::LSTM> lstm_;
  nn::Linear hidden_;
  nn::Linear out_;
};

}  // namespace models
}  // namespace kt

#endif  // KT_MODELS_DIMKT_H_

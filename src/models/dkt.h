// DKT (Piech et al., 2015): recurrent knowledge tracing.
//
// Interaction embeddings feed a (possibly stacked) LSTM; the hidden state
// after interactions 0..t-1 combines with the embedding of question t in an
// MLP to produce the correctness logit for position t.
#ifndef KT_MODELS_DKT_H_
#define KT_MODELS_DKT_H_

#include <memory>
#include <vector>

#include "models/embedder.h"
#include "models/neural_base.h"
#include "nn/linear.h"
#include "nn/recurrent.h"

namespace kt {
namespace models {

class DKT : public NeuralKTModel {
 public:
  DKT(int64_t num_questions, int64_t num_concepts, NeuralConfig config);

 protected:
  ag::Variable ForwardLogits(const data::Batch& batch,
                             const nn::Context& ctx) override;

 private:
  InteractionEmbedder embedder_;
  std::vector<std::unique_ptr<nn::LSTM>> layers_;
  nn::Linear hidden_;
  nn::Linear out_;
};

}  // namespace models
}  // namespace kt

#endif  // KT_MODELS_DKT_H_

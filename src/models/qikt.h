// QIKT (Chen et al., 2023): question-centric interpretable knowledge
// tracing with an IRT prediction layer.
//
// An LSTM encodes the interaction history into knowledge states; three
// interpretable question-centric quantities are then produced:
//   * mastery   alpha_t = MLP([h_{t-1} (+) e_t])      (knowledge mastery)
//   * difficulty beta_q = MLP(e_t)                    (question difficulty)
//   * discrimination a_q = softplus(MLP(e_t))         (question sharpness)
// and the prediction layer is classic IRT: logit = a_q (alpha_t - beta_q).
// The scalars are exposed so downstream tools can inspect the decision.
#ifndef KT_MODELS_QIKT_H_
#define KT_MODELS_QIKT_H_

#include <memory>

#include "models/embedder.h"
#include "models/neural_base.h"
#include "nn/linear.h"
#include "nn/recurrent.h"

namespace kt {
namespace models {

class QIKT : public NeuralKTModel {
 public:
  QIKT(int64_t num_questions, int64_t num_concepts, NeuralConfig config);

  // Interpretable quantities from the most recent PredictBatch call, each
  // [B, T]: mastery alpha, difficulty beta, discrimination a.
  struct IrtTerms {
    Tensor mastery;
    Tensor difficulty;
    Tensor discrimination;
  };
  const IrtTerms& last_terms() const { return last_terms_; }

  // Every forward pass records last_terms_.
  bool ParallelEvalSafe() const override { return false; }

 protected:
  ag::Variable ForwardLogits(const data::Batch& batch,
                             const nn::Context& ctx) override;

 private:
  InteractionEmbedder embedder_;
  std::unique_ptr<nn::LSTM> lstm_;
  nn::Linear mastery_hidden_;
  nn::Linear mastery_out_;
  nn::Linear difficulty_out_;
  nn::Linear discrimination_out_;
  IrtTerms last_terms_;
};

}  // namespace models
}  // namespace kt

#endif  // KT_MODELS_QIKT_H_

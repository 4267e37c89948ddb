// Question/concept/response embedding shared by the neural models.
//
// Implements the paper's Eq. 23-24:
//   e_i = q_emb[q_i] + mean_{k in K_i} k_emb[k]
//   a_i = e_i + r_emb[r~_i],   r~_i in {0 incorrect, 1 correct, 2 masked}
// The three-way response category is what lets RCKT feed counterfactually
// masked sequences through the same embedder the baselines use.
#ifndef KT_MODELS_EMBEDDER_H_
#define KT_MODELS_EMBEDDER_H_

#include <vector>

#include "data/batch.h"
#include "nn/embedding.h"
#include "nn/module.h"

namespace kt {
namespace models {

// Response categories for r~.
inline constexpr int kResponseIncorrect = 0;
inline constexpr int kResponseCorrect = 1;
inline constexpr int kResponseMasked = 2;

class InteractionEmbedder : public nn::Module {
 public:
  InteractionEmbedder(int64_t num_questions, int64_t num_concepts,
                      int64_t dim, Rng& rng);

  // e_i for every position: QuestionEmbedRows reshaped to [B, T, dim].
  ag::Variable QuestionEmbed(const data::Batch& batch) const;

  // e rows for bare (question, concept bag) pairs outside any Batch, shape
  // [n, dim]. Rows embed independently, so each row is bitwise equal to the
  // corresponding row of a batched pass.
  ag::Variable QuestionEmbedRows(
      const std::vector<int64_t>& questions,
      const std::vector<std::vector<int64_t>>& concept_bags) const;

  // a = e + r_emb[categories]: `e` is [..., dim] and `categories` holds one
  // value in {0, 1, 2} per row of `e`, in flattened row order. Every
  // interaction embedding, batched or streamed, is composed here.
  ag::Variable AddResponseEmbed(const ag::Variable& e,
                                const std::vector<int>& categories) const;

  // a_i = e_i + r_emb[categories[i]]; `categories` is flattened [B*T] with
  // values in {0, 1, 2}. Pass batch.responses (widened) for factual input.
  ag::Variable InteractionEmbed(const data::Batch& batch,
                                const std::vector<int>& categories) const;

  // Convenience: factual categories from the batch's recorded responses.
  static std::vector<int> FactualCategories(const data::Batch& batch);

  // Concept-proficiency probe embedding (paper Eq. 30): the mean ID
  // embedding of `questions` plus the embedding of concept `k`, shape
  // [1, dim]. Used when tracing proficiency on a concept rather than
  // answering a concrete question.
  ag::Variable ConceptProbeEmbed(const std::vector<int64_t>& questions,
                                 int64_t concept_id) const;

  const nn::Embedding& question_embedding() const { return q_emb_; }
  const nn::Embedding& concept_embedding() const { return k_emb_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  nn::Embedding q_emb_;
  nn::Embedding k_emb_;
  nn::Embedding r_emb_;  // 3 categories
};

}  // namespace models
}  // namespace kt

#endif  // KT_MODELS_EMBEDDER_H_

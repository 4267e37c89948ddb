// RCKT: Response influence-based Counterfactual Knowledge Tracing
// (the paper's primary contribution, Sec. IV).
//
// The model consists of:
//   * an adaptive probability generator (Sec. IV-D): the shared
//     question/concept/response embedder (Eq. 23-24), a bidirectional
//     knowledge-state encoder (Eq. 25, adapted from DKT/SAKT/AKT), and a
//     sigmoid MLP head (Eq. 26) producing p_i = p(r_i = 1 | everything but
//     position i);
//   * response-influence counterfactual reasoning with the backward
//     approximation (Sec. IV-C4): interventions are applied to the target
//     question, requiring only four generator passes per sample —
//       pA: target assumed correct, history factual        (F+)
//       pB: target flipped incorrect, mask/retain applied  (CF-)
//       pC: target assumed incorrect, history factual      (F-)
//       pD: target flipped correct, mask/retain applied    (CF+)
//     giving per-response influences
//       Delta+_i = pA_i - pB_i   at correct history positions,
//       Delta-_i = pD_i - pC_i   at incorrect history positions,
//     and the prediction rule  r^ = 1(sum Delta+ >= sum Delta-)  (Eq. 13);
//   * the counterfactual optimization (Eq. 16-17) with the non-negativity
//     constraint, jointly trained with the generator BCE terms L_F, L_M+,
//     L_M- (Eq. 27-29). Their factual sequence is F+ or F- row for row, and
//     under monotonicity one of the two masked sequences is CF+ or CF-, so
//     a training step runs five B-row blocks, not seven;
//   * the exact forward formulation (Eq. 4-9), retained for the Table VI
//     efficiency comparison, costing one generator pass per history
//     response.
//
// Batching contract: RCKT consumes batches of EQUAL-LENGTH prefix windows
// whose last position is the target question (see rckt/samples.h). This
// removes padding entirely, which matters because the bidirectional encoder
// would otherwise see pad tokens from the right.
#ifndef KT_RCKT_RCKT_MODEL_H_
#define KT_RCKT_RCKT_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/batch.h"
#include "models/embedder.h"
#include "nn/adam.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "rckt/encoders.h"

namespace kt {
namespace rckt {

struct RcktConfig {
  EncoderKind encoder = EncoderKind::kDKT;
  int64_t dim = 32;
  int64_t num_layers = 1;
  int64_t num_heads = 2;
  float dropout = 0.1f;
  float lr = 1e-3f;
  float weight_decay = 1e-5f;
  // Loss balancer lambda (Eq. 29) and constraint weight alpha (Eq. 16).
  float lambda = 0.1f;
  float alpha = 1.0f;
  // Ablation switches (paper Table V): -joint, -mono, -con.
  bool joint_training = true;
  bool use_monotonicity = true;
  bool use_constraint = true;
  uint64_t seed = 1;
};

// Hyper-parameters from the paper's Table III, keyed by dataset and encoder:
// {lr, lambda, l2, dropout, layers}. Layer counts are capped at 2 in this
// CPU build.
RcktConfig RcktConfigFor(const std::string& dataset, EncoderKind encoder);

// Whether RCKT can be built from `config` and the id counts: a known
// encoder; positive dim, num_layers, num_questions and num_concepts; and,
// for the attention encoders (SAKT, AKT) only, a positive num_heads that
// divides dim. Loaders check architecture values read from a file or from
// flags with it, since the constructor KT_CHECKs (or divides by) them.
Status ValidateArchitecture(const RcktConfig& config, int64_t num_questions,
                            int64_t num_concepts);

class RCKT;

// The architecture fields of a saved model's metadata chunk; the identity
// fields (weights_fnv64, weight_version) stay 0 for the caller to fill.
nn::ModelMeta ArchitectureMeta(const RCKT& model);

// The inverse, with the id counts in *num_questions and *num_concepts. A
// file's values are untrusted: check them with ValidateArchitecture.
RcktConfig ArchitectureFromMeta(const nn::ModelMeta& meta,
                                int64_t* num_questions, int64_t* num_concepts);

class RCKT : public nn::Module {
 public:
  RCKT(int64_t num_questions, int64_t num_concepts, RcktConfig config);

  std::string name() const;
  const RcktConfig& config() const { return config_; }

  // The id bounds this model was built for. The continual trainer uses
  // them to construct an architecture-identical candidate clone; serving
  // uses them as validation bounds when no dataset is on hand.
  int64_t num_questions() const { return num_questions_; }
  int64_t num_concepts() const { return num_concepts_; }

  // Checkpointing access (kt::ckpt): the optimizer state and the dropout
  // RNG stream both have to survive a kill/resume for the resumed run to be
  // bit-identical to an uninterrupted one.
  nn::Adam* optimizer() { return optimizer_.get(); }
  Rng* dropout_rng() { return &rng_; }

  // Component access: serving creates, sizes and (cold tier) serializes
  // streams through bi_encoder(); tests build reference passes from parts.
  const models::InteractionEmbedder& embedder() const { return embedder_; }
  const BiEncoder& bi_encoder() const { return *encoder_; }
  const nn::Linear& mlp_hidden() const { return mlp_hidden_; }
  const nn::Linear& mlp_out() const { return mlp_out_; }

  // ---- Training (approximate/backward mode, the default) ----
  // One Adam step on an equal-length prefix batch; returns the total loss
  // (Eq. 29) value.
  float TrainStep(const data::Batch& prefix_batch);

  // ---- Inference ----
  // Probability-like score sigmoid(Delta+ - Delta-) per row; >= 0.5 means
  // "predict correct" (equivalent to the paper's sign rule, Eq. 13).
  std::vector<float> ScoreTargets(const data::Batch& prefix_batch);

  // Per-position response influences for each row (interpretability API).
  struct Explanation {
    // influence[i] = Delta+_i at correct positions, Delta-_i at incorrect
    // ones, 0 at the target position.
    std::vector<float> influence;
    std::vector<int> responses;  // factual correctness per position
    float total_correct = 0.0f;
    float total_incorrect = 0.0f;
    float score = 0.0f;  // total_correct - total_incorrect
    bool predicted_correct = false;
  };
  std::vector<Explanation> ExplainTargets(const data::Batch& prefix_batch);

  // Influence breakdown when the target is a concept probe instead of a
  // concrete question (Fig. 5's per-concept influence groups): the target
  // position's question embedding is replaced as in ScoreConceptProbe.
  std::vector<Explanation> ExplainConceptProbe(
      const data::Batch& prefix_batch,
      const std::vector<int64_t>& concept_questions, int64_t concept_id);

  // Concept-proficiency probe (paper Eq. 30): scores the batch with the
  // target question embedding replaced by mean(q in concept_questions) +
  // k_emb[concept]. Result in (0,1) is the traced proficiency.
  std::vector<float> ScoreConceptProbe(
      const data::Batch& prefix_batch,
      const std::vector<int64_t>& concept_questions, int64_t concept_id);

  // Ablation scoring: the generator's own direct prediction at the target
  // (target category masked, no counterfactual reasoning). Used to isolate
  // how much of RCKT's accuracy comes from the probability generator vs the
  // influence aggregation (see bench_interpretability).
  std::vector<float> GeneratorScoreTargets(const data::Batch& prefix_batch);

  // ---- Streaming generator (online serving, DESIGN.md §11) ----
  // The generator over forward streams: at a masked target after a history
  // only the forward output of the last history step matters, and every
  // result is bitwise the matching GeneratorScoreTargets value at any
  // thread count. Const and grad-free: threads call them at once.

  // Advances k distinct streams by one run each: stream i takes
  // interactions [i*S, (i+1)*S), S = interactions.size() / k. Returns each
  // stream's forward output at its new last step, [k, d].
  Tensor AdvanceStreams(
      const std::vector<ForwardStreamState*>& streams,
      const std::vector<data::Interaction>& interactions) const;

  // A next-response target after a history whose last step's forward
  // output is `last_f` ([1, d]; a default Tensor for an empty history).
  struct StreamTarget {
    const Tensor* last_f = nullptr;
    int64_t question = -1;
    const std::vector<int64_t>* concepts = nullptr;
  };
  // p(correct) per target, from one stacked MLP-head pass.
  std::vector<float> PredictNext(const std::vector<StreamTarget>& targets) const;

  // A candidate timeline: the factual history's first `start` interactions,
  // then the non-empty `suffix` (edited history, appended practice, ...).
  struct Timeline {
    int64_t start = 0;
    std::vector<data::Interaction> suffix;
  };
  // p(correct) of one target after each timeline. `stream` is the forward
  // stream over `history`; each timeline replays only its suffix, from a
  // clone of `stream` at `start` (CloneStreamPrefix) or, where the encoder
  // cannot rewind, a copy from one shared walk over the factual prefix.
  std::vector<float> ScoreTimelines(
      const ForwardStreamState& stream,
      const std::vector<data::Interaction>& history,
      const std::vector<Timeline>& timelines, int64_t question,
      const std::vector<int64_t>& concepts) const;

  // ---- Exact forward mode (Table VI) ----
  // Influence computation without the backward approximation: one generator
  // pass per history response. Same decision rule.
  std::vector<float> ScoreTargetsExact(const data::Batch& prefix_batch);
  float TrainStepExact(const data::Batch& prefix_batch);

  // ---- Generator passes ----
  // Public so tests can hold the stacked fan-out to a per-pass reference
  // built from lone GenerateProbs calls; the model's own entry points above
  // are what callers use.

  // One generator pass: probabilities [B, T] for the given flattened
  // category assignment. If `probe` (shape [1, d]) is non-null it replaces
  // the question embedding at the target (last) position of every row.
  ag::Variable GenerateProbs(const data::Batch& batch,
                             const std::vector<int>& categories,
                             const nn::Context& ctx,
                             const ag::Variable* probe) const;

  // Runs K category assignments through the generator as one stacked
  // K*B-row pass and slices the [K*B, T] result back into K tensors of
  // [B, T]. Every op on the generator path computes each output row from
  // that row alone, so the result equals K lone GenerateProbs calls bit for
  // bit. When dropout is live, one stream per block is forked from ctx.rng
  // in block order and row block k draws its masks from stream k
  // (DESIGN.md §9.3), so the forward also matches lone passes each given
  // its own stream.
  //
  // Each of `gathered_sets` comes back after the K block tensors as a
  // [B, T] row gather of the same stacked output. Its row r is read from
  // the first of the K blocks whose row r holds the same categories; the
  // rows no block holds are packed, each at its own row index, into extra
  // B-row blocks stacked after the K. Training passes the joint-term
  // assignments this way, so a sequence an influence block already holds
  // is generated once.
  std::vector<ag::Variable> GenerateProbsFanOut(
      const data::Batch& batch,
      const std::vector<const std::vector<int>*>& category_sets,
      const nn::Context& ctx, const ag::Variable* probe,
      const std::vector<const std::vector<int>*>& gathered_sets = {}) const;

 private:
  struct InfluenceTensors {
    ag::Variable delta_plus_per_pos;   // [B, T]
    ag::Variable delta_minus_per_pos;  // [B, T]
    ag::Variable delta_plus;           // [B]
    ag::Variable delta_minus;          // [B]
    Tensor mask_correct;               // [B, T] history positions with r=1
    Tensor mask_incorrect;             // [B, T] history positions with r=0
  };

  // The four influence blocks F+, CF-, F-, CF+ as one fan-out. The
  // `joint_sets` ride in it as gathered sets, and their probabilities are
  // stored in *joint_probs.
  InfluenceTensors ComputeInfluences(
      const data::Batch& batch, const nn::Context& ctx,
      const ag::Variable* probe,
      const std::vector<const std::vector<int>*>& joint_sets = {},
      std::vector<ag::Variable>* joint_probs = nullptr) const;
  InfluenceTensors ComputeInfluencesExact(const data::Batch& batch,
                                          const nn::Context& ctx) const;

  // Shared loss assembly (Eq. 16-17 + joint terms) given influences and
  // the generator probabilities of the factual, keep-correct and
  // keep-incorrect sequences (empty when the joint terms are off).
  ag::Variable BuildLoss(const data::Batch& batch,
                         const InfluenceTensors& influences,
                         const std::vector<ag::Variable>& joint_probs) const;

  float RunTrainStep(const data::Batch& prefix_batch, bool exact);
  std::vector<float> ScoreFromInfluences(const InfluenceTensors& influences,
                                         int64_t history_length) const;
  std::vector<Explanation> ExplanationsFromInfluences(
      const data::Batch& prefix_batch,
      const InfluenceTensors& influences) const;

  // Encoder input rows a_i = e_i + r_emb[response_i] for the runs laid end
  // to end, [rows, d]. Rows embed independently: each is bitwise its
  // interaction embedded alone.
  Tensor EmbedRuns(
      const std::vector<const std::vector<data::Interaction>*>& runs) const;

  static void CheckEqualLength(const data::Batch& batch);
  // Fills the history masks (positions before the target, split by the
  // factual response) and the masked sums delta_plus / delta_minus from
  // the per-position deltas already in `influences`.
  static void SumHistoryInfluences(const data::Batch& batch,
                                   InfluenceTensors& influences);

  RcktConfig config_;
  int64_t num_questions_ = 0;
  int64_t num_concepts_ = 0;
  Rng rng_;
  models::InteractionEmbedder embedder_;
  std::unique_ptr<BiEncoder> encoder_;
  nn::Linear mlp_hidden_;  // [2d -> d], Eq. 26 W1
  nn::Linear mlp_out_;     // [d -> 1],  Eq. 26 W2
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace rckt
}  // namespace kt

#endif  // KT_RCKT_RCKT_MODEL_H_

// Reproduces Fig. 6: a case study contrasting RCKT-AKT's response
// influences with SAKT+'s attention values on one Eedi student with nine
// history responses and a target question.
//
// Paper shape: RCKT assigns large influence to a correct response sharing
// the target's concept even when incorrect responses dominate the history,
// predicting correctly; SAKT+'s attention concentrates on incorrect
// responses (near-zero on correct ones) and errs.
#include <cmath>

#include "bench/bench_common.h"

namespace kt {
namespace bench {
namespace {

// Picks a sample whose target was answered correctly although the history
// holds more incorrect than correct responses — the paper's setup.
struct Case {
  const data::ResponseSequence* sequence = nullptr;
  int64_t target = 0;
};

Case PickCase(const data::Dataset& windows) {
  for (const auto& seq : windows.sequences) {
    if (seq.length() < 10) continue;
    const int64_t target = 9;
    if (seq.interactions[static_cast<size_t>(target)].response != 1) continue;
    int correct = 0;
    for (int64_t t = 0; t < target; ++t) {
      correct += seq.interactions[static_cast<size_t>(t)].response;
    }
    const int incorrect = static_cast<int>(target) - correct;
    if (incorrect > correct && correct >= 2) return {&seq, target};
  }
  // Fallback: any window with 10 responses.
  for (const auto& seq : windows.sequences) {
    if (seq.length() >= 10) return {&seq, 9};
  }
  return {};
}

void Run() {
  PrintHeader("Fig. 6: response influences (RCKT-AKT) vs attention (SAKT+)",
              "paper: RCKT credits the same-concept correct response and "
              "predicts correctly; SAKT+ attention is near zero on correct "
              "responses and errs");

  data::Dataset windows = MakeWindows("eedi");
  Rng rng(91);
  const auto folds = data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), GetScale().folds, rng);
  data::FoldSplit split = data::MakeFold(windows, folds, 0, 0.1, rng);

  // RCKT-AKT, trained on the counterfactual objective.
  rckt::RCKT model(windows.num_questions, windows.num_concepts,
                   BenchRcktConfig("eedi", rckt::EncoderKind::kAKT, 91));
  rckt::TrainAndEvaluateRckt(model, split, RcktBenchOptions(5));

  // SAKT+ (SAKT with question-ID embeddings — the shared embedder already
  // includes them), trained conventionally.
  models::SAKT sakt(windows.num_questions, windows.num_concepts,
                    BaselineConfig(91));
  eval::TrainAndEvaluate(sakt, split, BaselineTrainOptions(5));

  const Case story = PickCase(windows);
  KT_CHECK(story.sequence != nullptr);
  const auto& seq = *story.sequence;

  rckt::PrefixSample sample{&seq, story.target};
  data::Batch batch = rckt::MakePrefixBatch({sample});
  const auto explanation = model.ExplainTargets(batch).front();

  sakt.set_capture_attention(true);
  Tensor sakt_probs = sakt.PredictBatch(batch);
  const Tensor& attention = sakt.last_attention();  // [1, T, T]

  const auto& target_interaction =
      seq.interactions[static_cast<size_t>(story.target)];
  TablePrinter table({"pos", "question", "concept", "response", "RCKT Inf.",
                      "SAKT+ Att."});
  for (int64_t t = 0; t < story.target; ++t) {
    const auto& it = seq.interactions[static_cast<size_t>(t)];
    const bool same_concept = it.concepts[0] == target_interaction.concepts[0];
    table.AddRow(
        {std::to_string(t),
         std::string("q").append(std::to_string(it.question)),
         std::string("k")
             .append(std::to_string(it.concepts[0]))
             .append(same_concept ? " *" : ""),
         it.response ? "correct" : "INCORRECT",
         FormatFloat(explanation.influence[static_cast<size_t>(t)], 4),
         FormatFloat(attention.at({0, story.target, t}), 4)});
  }
  table.Print(std::cout);
  std::printf("(* = same concept as the target question q%lld/k%lld)\n",
              static_cast<long long>(target_interaction.question),
              static_cast<long long>(target_interaction.concepts[0]));

  const float rckt_prob =
      1.0f / (1.0f + std::exp(-explanation.score));
  const float sakt_prob = sakt_probs.flat(
      batch.FlatIndex(0, story.target));
  std::printf(
      "\nRCKT: total correct influence %.4f vs incorrect %.4f -> %s "
      "(score %.4f)\n",
      explanation.total_correct, explanation.total_incorrect,
      explanation.predicted_correct ? "predict CORRECT" : "predict INCORRECT",
      rckt_prob);
  std::printf("SAKT+: p(correct) = %.4f -> predict %s\n", sakt_prob,
              sakt_prob >= 0.5f ? "CORRECT" : "INCORRECT");
  std::printf("ground truth: %s\n",
              target_interaction.response ? "CORRECT" : "INCORRECT");
}

}  // namespace
}  // namespace bench
}  // namespace kt

int main(int argc, char** argv) {
  kt::bench::InitBenchFlags(&argc, argv);
  kt::bench::Run();
  return 0;
}

// Reproduces Fig. 5: interpretable knowledge-proficiency tracking of one
// (ASSIST12-like) student by RCKT.
//
// For a student answering 18 questions across 3 concepts, we print:
//   * the response series (concept, correct/incorrect),
//   * per-concept proficiency after every response (the Eq. 30 concept
//     probe, scaled into (0,1)),
//   * the three groups of response influences on mastering each concept
//     after all 18 responses (with incorrect-response influences negated,
//     matching the figure's rendering).
// Paper shape: proficiency rises after correct answers and falls after
// incorrect ones; same-concept responses carry larger influence; more
// recent responses carry larger influence (forgetting).
#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "bench/bench_common.h"

namespace kt {
namespace bench {
namespace {

// Finds a window with >= 18 responses spanning >= 3 distinct primary
// concepts, preferring one with a mix of correct and incorrect answers.
const data::ResponseSequence* PickCaseStudent(const data::Dataset& windows) {
  const data::ResponseSequence* best = nullptr;
  double best_mix = -1.0;
  for (const auto& seq : windows.sequences) {
    if (seq.length() < 18) continue;
    std::set<int64_t> concepts;
    int correct = 0;
    for (int64_t t = 0; t < 18; ++t) {
      concepts.insert(seq.interactions[static_cast<size_t>(t)].concepts[0]);
      correct += seq.interactions[static_cast<size_t>(t)].response;
    }
    if (concepts.size() < 3) continue;
    const double rate = correct / 18.0;
    const double mix = 1.0 - std::fabs(rate - 0.5) * 2.0;
    if (mix > best_mix) {
      best_mix = mix;
      best = &seq;
    }
  }
  return best;
}

// A prefix of `seq` up to position t (inclusive) plus one placeholder
// target slot for the concept probe.
data::ResponseSequence ProbePrefix(const data::ResponseSequence& seq,
                                   int64_t t) {
  data::ResponseSequence prefix;
  prefix.interactions.assign(
      seq.interactions.begin(),
      seq.interactions.begin() + static_cast<size_t>(t + 1));
  // Placeholder target; its question embedding is replaced by the probe and
  // its response category by the assumed outcomes.
  prefix.interactions.push_back({0, 0, {0}});
  return prefix;
}

void Run() {
  PrintHeader(
      "Fig. 5: interpretable knowledge-proficiency tracking (ASSIST12)",
      "paper: proficiency rises on correct and falls on incorrect "
      "responses; same-concept and recent responses carry the largest "
      "influence");

  data::Dataset windows = MakeWindows("assist12");
  // Train RCKT-DKT briefly.
  Rng rng(91);
  const auto folds = data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), GetScale().folds, rng);
  data::FoldSplit split = data::MakeFold(windows, folds, 0, 0.1, rng);
  rckt::RCKT model(
      windows.num_questions, windows.num_concepts,
      BenchRcktConfig("assist12", rckt::EncoderKind::kDKT, /*seed=*/91));
  rckt::TrainAndEvaluateRckt(model, split, RcktBenchOptions(5));

  const data::ResponseSequence* student = PickCaseStudent(windows);
  KT_CHECK(student != nullptr) << "no 18-response 3-concept window found";

  // The three most frequent primary concepts in the first 18 responses.
  std::map<int64_t, int> concept_counts;
  for (int64_t t = 0; t < 18; ++t) {
    concept_counts[student->interactions[static_cast<size_t>(t)]
                       .concepts[0]]++;
  }
  std::vector<std::pair<int64_t, int>> ranked(concept_counts.begin(),
                                              concept_counts.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<int64_t> traced_concepts;
  for (size_t i = 0; i < 3 && i < ranked.size(); ++i) {
    traced_concepts.push_back(ranked[i].first);
  }

  // Questions per traced concept (needed by the Eq. 30 probe).
  data::SimulatorConfig sim_config =
      data::PresetByName("assist12", GetScale().dataset_scale).value();
  data::StudentSimulator simulator(sim_config);
  std::map<int64_t, std::vector<int64_t>> concept_questions;
  for (int64_t q = 0; q < windows.num_questions; ++q) {
    for (int64_t k : simulator.question_concepts()[static_cast<size_t>(q)]) {
      concept_questions[k].push_back(q);
    }
  }

  // Proficiency series: probe each concept after each of the 18 responses.
  std::vector<std::string> header = {"t", "concept", "response"};
  for (int64_t k : traced_concepts) {
    header.push_back(
        std::string("prof(k").append(std::to_string(k)).append(")"));
  }
  TablePrinter table(header);
  for (int64_t t = 0; t < 18; ++t) {
    const auto& interaction = student->interactions[static_cast<size_t>(t)];
    std::vector<std::string> row = {
        std::to_string(t),
        std::string("k").append(std::to_string(interaction.concepts[0])),
        interaction.response ? "correct" : "INCORRECT"};
    data::ResponseSequence prefix = ProbePrefix(*student, t);
    data::Batch batch = data::MakeBatch({&prefix});
    for (int64_t k : traced_concepts) {
      const float p =
          model.ScoreConceptProbe(batch, concept_questions[k], k)[0];
      row.push_back(FormatFloat(p, 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  // Influence groups after all 18 responses (one group per concept), with
  // incorrect influences negated as in the figure.
  std::printf("\nresponse influences on mastering each concept after t=17 "
              "(incorrect responses negated):\n");
  data::ResponseSequence prefix = ProbePrefix(*student, 17);
  data::Batch batch = data::MakeBatch({&prefix});
  for (int64_t k : traced_concepts) {
    const auto explanation =
        model.ExplainConceptProbe(batch, concept_questions[k], k)[0];
    std::printf("concept k%lld:", static_cast<long long>(k));
    for (int64_t t = 0; t < 18; ++t) {
      float v = explanation.influence[static_cast<size_t>(t)];
      if (explanation.responses[static_cast<size_t>(t)] == 0) v = -v;
      const bool same_concept =
          student->interactions[static_cast<size_t>(t)].concepts[0] == k;
      std::printf(" %+0.3f%s", v, same_concept ? "*" : " ");
    }
    std::printf("   (* = same-concept response)\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace kt

int main(int argc, char** argv) {
  kt::bench::InitBenchFlags(&argc, argv);
  kt::bench::Run();
  return 0;
}

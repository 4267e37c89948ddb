// Core data types for knowledge tracing: interactions, response sequences,
// and datasets, plus the preprocessing used throughout the paper
// (length-50 windows, minimum length 5, dataset statistics for Table II).
#ifndef KT_DATA_DATASET_H_
#define KT_DATA_DATASET_H_

#include <string>
#include <vector>

#include "core/rng.h"

namespace kt {
namespace data {

// One student response: question id, binary correctness, and the question's
// knowledge concepts (>= 1 entry).
struct Interaction {
  int64_t question = 0;
  int response = 0;  // 0 = incorrect, 1 = correct
  std::vector<int64_t> concepts;
};

inline bool operator==(const Interaction& a, const Interaction& b) {
  return a.question == b.question && a.response == b.response &&
         a.concepts == b.concepts;
}

// One student's (windowed) response sequence, ordered by time.
struct ResponseSequence {
  int64_t student = 0;
  std::vector<Interaction> interactions;

  int64_t length() const {
    return static_cast<int64_t>(interactions.size());
  }
};

struct Dataset {
  std::string name;
  int64_t num_questions = 0;
  int64_t num_concepts = 0;
  std::vector<ResponseSequence> sequences;

  int64_t TotalResponses() const;
  // Fraction of correct responses across all interactions.
  double CorrectRate() const;
  // Mean number of concepts attached to each interaction.
  double ConceptsPerQuestion() const;
};

// Splits each raw sequence into windows of at most `window` interactions,
// dropping windows shorter than `min_length` (paper Sec. V-A1: window 50,
// minimum 5). Padding is not materialized here; batching handles it.
Dataset SplitIntoWindows(const Dataset& raw, int64_t window,
                         int64_t min_length);

// Deterministic k-fold assignment: returns fold index in [0, k) for each
// sequence, balanced within +-1 after shuffling with `rng`.
std::vector<int> KFoldAssignment(int64_t num_sequences, int k, Rng& rng);

// Train/test view of a dataset for one fold; additionally carves
// `validation_fraction` of the training sequences into a validation set
// (paper: 10% for early stopping).
struct FoldSplit {
  Dataset train;
  Dataset validation;
  Dataset test;
};
FoldSplit MakeFold(const Dataset& dataset, const std::vector<int>& folds,
                   int test_fold, double validation_fraction, Rng& rng);

}  // namespace data
}  // namespace kt

#endif  // KT_DATA_DATASET_H_

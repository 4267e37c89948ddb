#include "nn/recurrent.h"

#include <utility>

#include "nn/init.h"

namespace kt {
namespace nn {

Recurrent::Recurrent(ag::RecurrentCell cell, int64_t input_size,
                     int64_t hidden_size, Rng& rng)
    : cell_(cell), hidden_size_(hidden_size) {
  const bool lstm = cell == ag::RecurrentCell::kLstm;
  const int64_t gates = (lstm ? 4 : 3) * hidden_size;
  // Registered under "cell." as the per-step cell module that held them
  // did, so saved models and fingerprints keep their names.
  w_x_ = RegisterParameter(
      "cell.w_x", LstmUniform(Shape{input_size, gates}, hidden_size, rng));
  w_h_ = RegisterParameter(
      "cell.w_h", LstmUniform(Shape{hidden_size, gates}, hidden_size, rng));
  Tensor b = Tensor::Zeros(Shape{gates});
  if (lstm) {
    for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b.flat(i) = 1.0f;
  }
  bias_ = RegisterParameter("cell.bias", std::move(b));
}

ag::Variable Recurrent::Forward(const ag::Variable& x, bool reverse,
                                const State* initial,
                                State* final_state) const {
  std::vector<Tensor> last;
  ag::Variable out = ag::RecurrentLayer(
      cell_, x, w_x_, w_h_, bias_, reverse,
      initial != nullptr ? *initial : State(),
      final_state != nullptr ? &last : nullptr);
  if (final_state != nullptr) {
    final_state->clear();
    for (Tensor& row : last) final_state->push_back(ag::Constant(row));
  }
  return out;
}

Recurrent::State Recurrent::InitialState(int64_t batch) const {
  State state;
  const size_t rows = cell_ == ag::RecurrentCell::kLstm ? 2 : 1;
  for (size_t r = 0; r < rows; ++r) {
    state.push_back(ag::Constant(Tensor::Zeros(Shape{batch, hidden_size_})));
  }
  return state;
}

}  // namespace nn
}  // namespace kt

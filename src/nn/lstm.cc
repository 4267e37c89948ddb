#include "nn/lstm.h"

#include "nn/init.h"

namespace kt {
namespace nn {

LSTMCell::LSTMCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_x_ = RegisterParameter(
      "w_x", LstmUniform(Shape{input_size, 4 * hidden_size}, hidden_size, rng));
  w_h_ = RegisterParameter(
      "w_h",
      LstmUniform(Shape{hidden_size, 4 * hidden_size}, hidden_size, rng));
  // Forget-gate bias starts at 1 to ease gradient flow early in training.
  Tensor b = Tensor::Zeros(Shape{4 * hidden_size});
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b.flat(i) = 1.0f;
  bias_ = RegisterParameter("bias", std::move(b));
}

LSTMCell::State LSTMCell::Forward(const ag::Variable& x,
                                  const State& state) const {
  KT_CHECK_EQ(x.shape().back(), input_size_);
  // Three tape nodes per step, no gate slices or intermediate gate
  // tensors.
  ag::Variable z = ag::DualLinearBias(x, w_x_, state.h, w_h_, bias_);
  ag::Variable c_next = ag::LstmCellState(z, state.c);
  ag::Variable h_next = ag::LstmCellOutput(z, c_next);
  return {h_next, c_next};
}

LSTMCell::State LSTMCell::InitialState(int64_t b) const {
  return {ag::Constant(Tensor::Zeros(Shape{b, hidden_size_})),
          ag::Constant(Tensor::Zeros(Shape{b, hidden_size_}))};
}

LSTM::LSTM(int64_t input_size, int64_t hidden_size, Rng& rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterChild("cell", &cell_);
}

ag::Variable LSTM::Forward(const ag::Variable& x, bool reverse,
                           const LSTMCell::State* initial,
                           LSTMCell::State* final_state) const {
  KT_CHECK_EQ(x.shape().size(), 3u);
  const int64_t batch = x.size(0);
  const int64_t steps = x.size(1);

  LSTMCell::State state = initial ? *initial : cell_.InitialState(batch);
  std::vector<ag::Variable> outputs(static_cast<size_t>(steps));
  for (int64_t s = 0; s < steps; ++s) {
    const int64_t t = reverse ? steps - 1 - s : s;
    ag::Variable x_t = ag::Reshape(ag::Slice(x, 1, t, t + 1),
                                   Shape{batch, x.size(2)});
    state = cell_.Forward(x_t, state);
    outputs[static_cast<size_t>(t)] =
        ag::Reshape(state.h, Shape{batch, 1, cell_.hidden_size()});
  }
  if (final_state != nullptr) *final_state = state;
  return ag::Concat(outputs, 1);
}

}  // namespace nn
}  // namespace kt

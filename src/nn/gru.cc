#include "nn/gru.h"

#include "nn/init.h"

namespace kt {
namespace nn {

GRUCell::GRUCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_x_ = RegisterParameter(
      "w_x", LstmUniform(Shape{input_size, 3 * hidden_size}, hidden_size, rng));
  w_h_ = RegisterParameter(
      "w_h",
      LstmUniform(Shape{hidden_size, 3 * hidden_size}, hidden_size, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{3 * hidden_size}));
}

ag::Variable GRUCell::Forward(const ag::Variable& x,
                              const ag::Variable& h) const {
  KT_CHECK_EQ(x.shape().back(), input_size_);
  // The gate math collapses into one node after the two projections.
  ag::Variable zx =
      ag::LinearBiasAct(x, w_x_, bias_, ag::Act::kIdentity);  // [B, 3h]
  ag::Variable zh = ag::MatMul(h, w_h_);                      // [B, 3h]
  return ag::GruCellCombine(zx, zh, h);
}

ag::Variable GRUCell::InitialState(int64_t batch) const {
  return ag::Constant(Tensor::Zeros(Shape{batch, hidden_size_}));
}

GRU::GRU(int64_t input_size, int64_t hidden_size, Rng& rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterChild("cell", &cell_);
}

ag::Variable GRU::Forward(const ag::Variable& x, bool reverse,
                          const ag::Variable* initial,
                          ag::Variable* final_state) const {
  KT_CHECK_EQ(x.shape().size(), 3u);
  const int64_t batch = x.size(0);
  const int64_t steps = x.size(1);

  ag::Variable h = initial ? *initial : cell_.InitialState(batch);
  std::vector<ag::Variable> outputs(static_cast<size_t>(steps));
  for (int64_t s = 0; s < steps; ++s) {
    const int64_t t = reverse ? steps - 1 - s : s;
    ag::Variable x_t =
        ag::Reshape(ag::Slice(x, 1, t, t + 1), Shape{batch, x.size(2)});
    h = cell_.Forward(x_t, h);
    outputs[static_cast<size_t>(t)] =
        ag::Reshape(h, Shape{batch, 1, cell_.hidden_size()});
  }
  if (final_state != nullptr) *final_state = h;
  return ag::Concat(outputs, 1);
}

}  // namespace nn
}  // namespace kt

// LSTM cell and (optionally reversed) single-layer LSTM.
//
// DKT's sequential encoder and RCKT's bidirectional encoder are built from
// these. The layer unrolls the cell over time inside the autograd graph, so
// backpropagation-through-time comes for free.
#ifndef KT_NN_LSTM_H_
#define KT_NN_LSTM_H_

#include <utility>

#include "autograd/ops.h"
#include "nn/module.h"

namespace kt {
namespace nn {

class LSTMCell : public Module {
 public:
  LSTMCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  struct State {
    ag::Variable h;  // [B, hidden]
    ag::Variable c;  // [B, hidden]
  };

  // One step: x is [B, input]. Gate order in the fused weight is i, f, g, o.
  State Forward(const ag::Variable& x, const State& state) const;

  // Zero-filled initial state for batch size `b`.
  State InitialState(int64_t b) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  ag::Variable w_x_;   // [input, 4*hidden]
  ag::Variable w_h_;   // [hidden, 4*hidden]
  ag::Variable bias_;  // [4*hidden]
};

class LSTM : public Module {
 public:
  using State = LSTMCell::State;

  LSTM(int64_t input_size, int64_t hidden_size, Rng& rng);

  // x is [B, T, input]; returns all hidden states [B, T, hidden].
  // When `reverse` is true the sequence is processed from t = T-1 to 0 and
  // the output at position t is the state after consuming x_t from the
  // right (as needed by bidirectional encoders).
  //
  // `initial` seeds the recurrence at the first consumed step (t = 0, or
  // t = T-1 under `reverse`); nullptr means the zero state. `final_state`,
  // when non-null, receives the state after the last consumed step, so a
  // sequence can be processed in chunks: Forward on x[:, :k] capturing the
  // final state, then Forward on x[:, k:] seeded with it, is bit-identical
  // to one Forward over the whole sequence (incremental decode relies on
  // this; see kt::serve). Every batch row is an independent recurrence.
  ag::Variable Forward(const ag::Variable& x, bool reverse = false,
                       const LSTMCell::State* initial = nullptr,
                       LSTMCell::State* final_state = nullptr) const;

  int64_t hidden_size() const { return cell_.hidden_size(); }
  const LSTMCell& cell() const { return cell_; }

 private:
  LSTMCell cell_;
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_LSTM_H_

// GRU cell and layer (Cho et al., 2014), mirroring the LSTM interface.
//
// Not used by any paper baseline; exists to demonstrate the "adaptive"
// claim of RCKT's knowledge-state encoder (Sec. IV-D1: the encoder "can be
// adapted to multiple KT sequence encoders") with a fourth sequential core
// (RCKT-GRU, see rckt/encoders.h).
#ifndef KT_NN_GRU_H_
#define KT_NN_GRU_H_

#include "autograd/ops.h"
#include "nn/module.h"

namespace kt {
namespace nn {

class GRUCell : public Module {
 public:
  GRUCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  // One step; x is [B, input], h is [B, hidden]. Gate order in the fused
  // weights is r (reset), z (update), n (candidate).
  ag::Variable Forward(const ag::Variable& x, const ag::Variable& h) const;

  ag::Variable InitialState(int64_t batch) const;
  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  ag::Variable w_x_;   // [input, 3*hidden]
  ag::Variable w_h_;   // [hidden, 3*hidden]
  ag::Variable bias_;  // [3*hidden]
};

class GRU : public Module {
 public:
  using State = ag::Variable;  // the hidden rows [B, hidden]

  GRU(int64_t input_size, int64_t hidden_size, Rng& rng);

  // x is [B, T, input]; returns all hidden states [B, T, hidden]. With
  // `reverse`, processes right-to-left (output at t summarizes x_{t..T-1}).
  //
  // `initial` seeds the recurrence at the first consumed step; nullptr
  // means the zero state. `final_state` receives the hidden state after the
  // last consumed step, making chunked processing bit-identical to a single
  // pass (see LSTM::Forward).
  ag::Variable Forward(const ag::Variable& x, bool reverse = false,
                       const ag::Variable* initial = nullptr,
                       ag::Variable* final_state = nullptr) const;

  int64_t hidden_size() const { return cell_.hidden_size(); }
  const GRUCell& cell() const { return cell_; }

 private:
  GRUCell cell_;
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_GRU_H_

#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "obs/obs.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace ag {
namespace {

using internal::Node;

// Expands `g` (shape of a reduced tensor) back over dimension `d` of
// `full_shape` by repetition; the adjoint of Sum(dim).
Tensor ExpandAlongDim(const Tensor& g, const Shape& full_shape, int64_t d,
                      bool keepdim) {
  Tensor out = Tensor::Uninitialized(full_shape);
  if (out.numel() == 0) return out;  // memcpy must not see a null buffer
  const int64_t dim_size = full_shape[static_cast<size_t>(d)];
  int64_t outer = 1;
  for (int64_t i = 0; i < d; ++i) outer *= full_shape[static_cast<size_t>(i)];
  int64_t inner = 1;
  for (size_t i = static_cast<size_t>(d) + 1; i < full_shape.size(); ++i)
    inner *= full_shape[i];
  (void)keepdim;  // g's layout is [outer, inner] either way.
  const float* src = g.data();
  float* dst = out.data();
  if (inner == 1) {
    for (int64_t o = 0; o < outer; ++o)
      std::fill(dst + o * dim_size, dst + (o + 1) * dim_size, src[o]);
    return out;
  }
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t j = 0; j < dim_size; ++j) {
      std::memcpy(dst + (o * dim_size + j) * inner, src + o * inner,
                  sizeof(float) * static_cast<size_t>(inner));
    }
  }
  return out;
}

// x's gradient (+)= G W^T (G [m, n], W [k, n], the gradient [m, k]). An
// input with no gradient yet gets a fresh buffer written by the store-form
// GemmTransB: its chains start at +0 and are never -0, so the bits equal
// a zero-filled gradient plus GemmTransBAccumulate.
void TransBIntoGrad(Node* xn, const float* g, const float* w, int64_t m,
                    int64_t n, int64_t k) {
  if (xn->has_grad) {
    GemmTransBAccumulate(g, w, xn->grad.data(), m, n, k);
    return;
  }
  xn->grad = Tensor::Uninitialized(xn->value.shape());
  xn->has_grad = true;
  GemmTransB(g, w, xn->grad.data(), m, n, k);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  return MakeOpNode(kt::Add(a.value(), b.value()), {a, b}, [](Node& self) {
    // The last consumer of self.grad takes it by move.
    Node* an = self.inputs[0].get();
    Node* bn = self.inputs[1].get();
    if (an->requires_grad)
      an->AccumulateGrad(bn->requires_grad ? self.grad : std::move(self.grad));
    if (bn->requires_grad) bn->AccumulateGrad(std::move(self.grad));
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOpNode(kt::Sub(a.value(), b.value()), {a, b}, [](Node& self) {
    // -g is formed first so `a`, still accumulated first, can take g by move.
    Node* an = self.inputs[0].get();
    Node* bn = self.inputs[1].get();
    Tensor neg_g = bn->requires_grad ? kt::Neg(self.grad) : Tensor();
    if (an->requires_grad) an->AccumulateGrad(std::move(self.grad));
    if (bn->requires_grad) bn->AccumulateGrad(std::move(neg_g));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  return MakeOpNode(kt::Mul(a.value(), b.value()), {a, b}, [](Node& self) {
    if (self.inputs[0]->requires_grad)
      self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, self.inputs[1]->value));
    if (self.inputs[1]->requires_grad)
      self.inputs[1]->AccumulateGrad(kt::Mul(self.grad, self.inputs[0]->value));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  return MakeOpNode(kt::Div(a.value(), b.value()), {a, b}, [](Node& self) {
    const Tensor& bv = self.inputs[1]->value;
    if (self.inputs[0]->requires_grad)
      self.inputs[0]->AccumulateGrad(kt::Div(self.grad, bv));
    if (self.inputs[1]->requires_grad) {
      // d(a/b)/db = -a / b^2
      Tensor t = kt::Div(kt::Mul(self.grad, self.inputs[0]->value),
                         kt::Mul(bv, bv));
      self.inputs[1]->AccumulateGrad(kt::Neg(t));
    }
  });
}

Variable Maximum(const Variable& a, const Variable& b) {
  return MakeOpNode(
      kt::Maximum(a.value(), b.value()), {a, b}, [](Node& self) {
        const Tensor& av = self.inputs[0]->value;
        const Tensor& bv = self.inputs[1]->value;
        // Indicator masks: gradient goes to the winner; ties favor a.
        Tensor mask_a = kt::GreaterEqualMask(av, bv);
        if (self.inputs[0]->requires_grad)
          self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, mask_a));
        if (self.inputs[1]->requires_grad) {
          Tensor mask_b = kt::Map(mask_a, [](float m) { return 1.0f - m; });
          self.inputs[1]->AccumulateGrad(kt::Mul(self.grad, mask_b));
        }
      });
}

Variable AddScalar(const Variable& a, float s) {
  return MakeOpNode(kt::AddScalar(a.value(), s), {a}, [](Node& self) {
    self.inputs[0]->AccumulateGrad(std::move(self.grad));
  });
}

Variable MulScalar(const Variable& a, float s) {
  return MakeOpNode(kt::MulScalar(a.value(), s), {a}, [s](Node& self) {
    self.inputs[0]->AccumulateGrad(kt::MulScalar(self.grad, s));
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable MatMul(const Variable& a, const Variable& b) {
  return MakeOpNode(kt::MatMul(a.value(), b.value()), {a, b}, [](Node& self) {
    // Both gradients go straight through the transposed GEMM accumulators
    // into the grad buffers: no transpose copies, no temporaries.
    Node* an = self.inputs[0].get();
    Node* bn = self.inputs[1].get();
    const Tensor& av = an->value;
    const Tensor& bv = bn->value;
    const int64_t m = av.size(0), k = av.size(1), n = bv.size(1);
    const float* g = self.grad.data();
    if (an->requires_grad) {
      // dA += dC B^T; B is [k, n], exactly the TransB operand layout.
      TransBIntoGrad(an, g, bv.data(), m, n, k);
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      // dB += A^T dC; A is [m, k], exactly the TransA operand layout.
      GemmTransAAccumulate(av.data(), g, bn->grad.data(), k, m, n);
    }
  });
}

Variable BatchMatMul(const Variable& a, const Variable& b) {
  return MakeOpNode(
      kt::BatchMatMul(a.value(), b.value()), {a, b}, [](Node& self) {
        const Tensor& av = self.inputs[0]->value;
        const Tensor& bv = self.inputs[1]->value;
        if (self.inputs[0]->requires_grad)
          self.inputs[0]->AccumulateGrad(
              kt::BatchMatMul(self.grad, bv.TransposeLast2()));
        if (self.inputs[1]->requires_grad)
          self.inputs[1]->AccumulateGrad(
              kt::BatchMatMul(av.TransposeLast2(), self.grad));
      });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = kt::Sigmoid(a.value());
  return MakeOpNode(y, {a}, [y](Node& self) {
    // dy/dx = y (1 - y)
    Tensor d = kt::Map(y, [](float v) { return v * (1.0f - v); });
    self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, d));
  });
}

Variable Tanh(const Variable& a) {
  Tensor y = kt::Tanh(a.value());
  return MakeOpNode(y, {a}, [y](Node& self) {
    Tensor d = kt::Map(y, [](float v) { return 1.0f - v * v; });
    self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, d));
  });
}

Variable Relu(const Variable& a) {
  return MakeOpNode(kt::Relu(a.value()), {a}, [](Node& self) {
    const Tensor& x = self.inputs[0]->value;
    Tensor d = kt::Map(x, [](float v) { return v > 0.0f ? 1.0f : 0.0f; });
    self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, d));
  });
}

Variable Exp(const Variable& a) {
  Tensor y = kt::Exp(a.value());
  return MakeOpNode(y, {a}, [y](Node& self) {
    self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, y));
  });
}

Variable Log(const Variable& a) {
  return MakeOpNode(kt::Log(a.value()), {a}, [](Node& self) {
    self.inputs[0]->AccumulateGrad(kt::Div(self.grad, self.inputs[0]->value));
  });
}

Variable Sqrt(const Variable& a) {
  Tensor y = kt::Sqrt(a.value());
  return MakeOpNode(y, {a}, [y](Node& self) {
    Tensor d = kt::Map(y, [](float v) { return 0.5f / v; });
    self.inputs[0]->AccumulateGrad(kt::Mul(self.grad, d));
  });
}

Variable SoftmaxLastDim(const Variable& a) {
  Tensor y = kt::SoftmaxLastDim(a.value());
  return MakeOpNode(y, {a}, [y](Node& self) {
    // dx = y * (g - sum(g * y, last))
    Tensor gy = kt::Mul(self.grad, y);
    Tensor s = kt::Sum(gy, -1, /*keepdim=*/true);
    Tensor dx = kt::Mul(y, kt::Sub(self.grad, s));
    self.inputs[0]->AccumulateGrad(std::move(dx));
  });
}

Variable Reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().Reshape(std::move(shape));
  Shape in_shape = a.value().shape();
  return MakeOpNode(out, {a}, [in_shape](Node& self) {
    // Rebinding self.grad to the reshaped alias leaves that alias the sole
    // owner of the storage, so the input can adopt it.
    self.grad = self.grad.Reshape(in_shape);
    self.inputs[0]->AccumulateGrad(std::move(self.grad));
  });
}

Variable TransposeLast2(const Variable& a) {
  return MakeOpNode(a.value().TransposeLast2(), {a}, [](Node& self) {
    self.inputs[0]->AccumulateGrad(self.grad.TransposeLast2());
  });
}

Variable Slice(const Variable& a, int64_t d, int64_t start, int64_t end) {
  if (d < 0) d += a.value().dim();
  Tensor out = a.value().Slice(d, start, end);
  return MakeOpNode(out, {a}, [d, start, end](Node& self) {
    const Shape& in_shape = self.inputs[0]->value.shape();
    // Scatter grad back into a zero tensor of the input shape.
    Tensor full = Tensor::Zeros(in_shape);
    const int64_t dim_size = in_shape[static_cast<size_t>(d)];
    int64_t outer = 1;
    for (int64_t i = 0; i < d; ++i) outer *= in_shape[static_cast<size_t>(i)];
    int64_t inner = 1;
    for (size_t i = static_cast<size_t>(d) + 1; i < in_shape.size(); ++i)
      inner *= in_shape[i];
    const int64_t span = (end - start) * inner;
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(full.data() + (o * dim_size + start) * inner,
                  self.grad.data() + o * span,
                  sizeof(float) * static_cast<size_t>(span));
    }
    self.inputs[0]->AccumulateGrad(std::move(full));
  });
}

Variable Concat(const std::vector<Variable>& inputs, int64_t d) {
  KT_CHECK(!inputs.empty());
  std::vector<Tensor> values;
  values.reserve(inputs.size());
  for (const Variable& v : inputs) values.push_back(v.value());
  Tensor out = Tensor::Concat(values, d);
  int64_t axis = d < 0 ? d + out.dim() : d;
  return MakeOpNode(out, inputs, [axis](Node& self) {
    int64_t offset = 0;
    for (auto& input : self.inputs) {
      const int64_t extent = input->value.size(axis);
      if (input->requires_grad) {
        input->AccumulateGrad(self.grad.Slice(axis, offset, offset + extent));
      }
      offset += extent;
    }
  });
}

Variable SumAll(const Variable& a) {
  return MakeOpNode(kt::SumAll(a.value()), {a}, [](Node& self) {
    self.inputs[0]->AccumulateGrad(
        Tensor::Full(self.inputs[0]->value.shape(), self.grad.item()));
  });
}

Variable MeanAll(const Variable& a) {
  const float inv_n = 1.0f / static_cast<float>(a.numel());
  return MakeOpNode(kt::MeanAll(a.value()), {a}, [inv_n](Node& self) {
    self.inputs[0]->AccumulateGrad(Tensor::Full(
        self.inputs[0]->value.shape(), self.grad.item() * inv_n));
  });
}

Variable Sum(const Variable& a, int64_t d, bool keepdim) {
  if (d < 0) d += a.value().dim();
  Tensor out = kt::Sum(a.value(), d, keepdim);
  return MakeOpNode(out, {a}, [d, keepdim](Node& self) {
    self.inputs[0]->AccumulateGrad(ExpandAlongDim(
        self.grad, self.inputs[0]->value.shape(), d, keepdim));
  });
}

Variable Mean(const Variable& a, int64_t d, bool keepdim) {
  if (d < 0) d += a.value().dim();
  const float inv = 1.0f / static_cast<float>(a.value().size(d));
  return MulScalar(Sum(a, d, keepdim), inv);
}

Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int64_t>& indices) {
  Tensor out = Tensor::IndexSelectRows(table.value(), indices);
  if (!RecordsGrad({table})) return Variable::Leaf(std::move(out), false);
  return MakeOpNode(std::move(out), {table}, [indices](Node& self) {
    Node* table_node = self.inputs[0].get();
    if (!table_node->requires_grad) return;
    table_node->EnsureGrad();
    const int64_t cols = table_node->value.size(1);
    for (size_t i = 0; i < indices.size(); ++i) {
      const float* src = self.grad.data() + static_cast<int64_t>(i) * cols;
      float* dst = table_node->grad.data() + indices[i] * cols;
      for (int64_t c = 0; c < cols; ++c) dst[c] += src[c];
    }
  });
}

Variable EmbeddingBagMean(const Variable& table,
                          const std::vector<std::vector<int64_t>>& bags) {
  KT_CHECK_EQ(table.value().dim(), 2);
  const int64_t rows = table.value().size(0);
  const int64_t cols = table.value().size(1);
  Tensor out(Shape{static_cast<int64_t>(bags.size()), cols});
  for (size_t i = 0; i < bags.size(); ++i) {
    if (bags[i].empty()) continue;
    float* dst = out.data() + static_cast<int64_t>(i) * cols;
    for (int64_t r : bags[i]) {
      KT_CHECK(r >= 0 && r < rows) << "bag index " << r << " out of " << rows;
      const float* src = table.value().data() + r * cols;
      for (int64_t c = 0; c < cols; ++c) dst[c] += src[c];
    }
    const float inv = 1.0f / static_cast<float>(bags[i].size());
    for (int64_t c = 0; c < cols; ++c) dst[c] *= inv;
  }
  if (!RecordsGrad({table})) return Variable::Leaf(std::move(out), false);
  return MakeOpNode(std::move(out), {table}, [bags](Node& self) {
    Node* table_node = self.inputs[0].get();
    if (!table_node->requires_grad) return;
    table_node->EnsureGrad();
    const int64_t cols = table_node->value.size(1);
    for (size_t i = 0; i < bags.size(); ++i) {
      if (bags[i].empty()) continue;
      const float inv = 1.0f / static_cast<float>(bags[i].size());
      const float* src = self.grad.data() + static_cast<int64_t>(i) * cols;
      for (int64_t r : bags[i]) {
        float* dst = table_node->grad.data() + r * cols;
        for (int64_t c = 0; c < cols; ++c) dst[c] += src[c] * inv;
      }
    }
  });
}

Variable Dropout(const Variable& a, float p, Rng& rng, bool train) {
  return Dropout(a, p, &rng, 1, train);
}

Variable Dropout(const Variable& a, float p, Rng* streams,
                 int64_t num_streams, bool train) {
  if (!train || p <= 0.0f) return a;
  KT_CHECK_LT(p, 1.0f);
  KT_CHECK(streams != nullptr);
  KT_CHECK_GT(num_streams, 0);
  const Tensor& x = a.value();
  const int64_t n = x.numel();
  KT_CHECK(num_streams == 1 || (x.dim() > 0 && x.size(0) % num_streams == 0))
      << "dropout rows must split into " << num_streams << " equal blocks";
  const int64_t block = n / num_streams;
  const float scale = 1.0f / (1.0f - p);
  // One byte per element; both passes multiply by (keep ? scale : 0),
  // with the factor picked branch-free.
  std::vector<uint8_t> keep(static_cast<size_t>(n));
  for (int64_t j = 0; j < num_streams; ++j)
    streams[j].FillKeepMask(p, keep.data() + j * block, block);
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* src = x.data();
  const uint8_t* kp = keep.data();
  float* dst = out.data();
  for (int64_t i = 0; i < n; ++i) dst[i] = src[i] * SelectOrZero(kp[i], scale);
  return MakeOpNode(std::move(out), {a},
                    [keep = std::move(keep), scale](Node& self) {
    Tensor g = Tensor::Uninitialized(self.grad.shape());
    const float* gs = self.grad.data();
    const uint8_t* kp = keep.data();
    float* gd = g.data();
    for (int64_t i = 0; i < g.numel(); ++i)
      gd[i] = gs[i] * SelectOrZero(kp[i], scale);
    self.inputs[0]->AccumulateGrad(std::move(g));
  });
}

Variable Constant(Tensor t) { return Variable::Leaf(std::move(t), false); }

// ---- Fused ops ----
//
// The forward epilogues below reuse the exact per-element expressions of
// the primitive ops they replace (see kt::Sigmoid/Tanh/Relu and the
// broadcast Add), in the same order, so fused and composed paths agree
// bit-for-bit. This file compiles with -ffp-contract=off (see
// src/autograd/CMakeLists.txt) so sum-of-products epilogues cannot be
// FMA-contracted into something the composed op-per-node path never
// computes.

namespace {

inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Accumulates column sums of g [m, n] into bias_grad [n], rows ascending —
// the same order AccumulateGrad's broadcast reduction uses.
inline void AccumulateBiasGrad(const float* g, int64_t m, int64_t n,
                               float* bias_grad) {
  for (int64_t i = 0; i < m; ++i) {
    const float* row = g + i * n;
    for (int64_t j = 0; j < n; ++j) bias_grad[j] += row[j];
  }
}

}  // namespace

Tensor LinearBiasActForward(const Tensor& x, const Tensor& w, const Tensor* b,
                            Act act) {
  KT_CHECK_EQ(x.shape().size(), 2u);
  KT_CHECK_EQ(w.shape().size(), 2u);
  KT_CHECK_EQ(x.size(1), w.size(0));
  const int64_t m = x.size(0), in = x.size(1), out = w.size(1);
  if (b != nullptr) KT_CHECK_EQ(b->numel(), out);

  Tensor y = Tensor::Uninitialized(Shape{m, out});
  Gemm(x.data(), w.data(), y.data(), m, in, out);
  // One bias pass, then one loop per activation: each element still gets
  // act(x + bias), the composed Add-then-activation expressions, but no
  // loop tests the activation or the bias per element.
  float* yd = y.data();
  if (b != nullptr) {
    const float* bias = b->data();
    for (int64_t i = 0; i < m; ++i) {
      float* row = yd + i * out;
      for (int64_t j = 0; j < out; ++j) row[j] = row[j] + bias[j];
    }
  }
  const int64_t total = m * out;
  switch (act) {
    case Act::kIdentity:
      break;
    case Act::kRelu:
      for (int64_t i = 0; i < total; ++i) yd[i] = yd[i] > 0.0f ? yd[i] : 0.0f;
      break;
    case Act::kSigmoid:
      for (int64_t i = 0; i < total; ++i) yd[i] = SigmoidF(yd[i]);
      break;
    case Act::kTanh:
      for (int64_t i = 0; i < total; ++i) yd[i] = std::tanh(yd[i]);
      break;
  }
  return y;
}

Variable LinearBiasAct(const Variable& x, const Variable& w,
                       const Variable& b, Act act) {
  KT_OBS_SCOPE("fused/linear_bias_act");
  const bool has_bias = b.defined();
  Tensor y = LinearBiasActForward(x.value(), w.value(),
                                  has_bias ? &b.value() : nullptr, act);

  std::vector<Variable> inputs{x, w};
  if (has_bias) inputs.push_back(b);
  return MakeOpNode(y, inputs, [y, act, has_bias](Node& self) {
    KT_OBS_SCOPE("fused/linear_bias_act_bwd");
    Node* xn = self.inputs[0].get();
    Node* wn = self.inputs[1].get();
    Node* bn = has_bias ? self.inputs[2].get() : nullptr;
    const int64_t m = y.size(0), out = y.size(1), in = xn->value.size(1);
    // d_pre = g ⊙ act'(pre), with act' expressed from the saved output y
    // exactly as the composed activation backward does.
    Tensor d_pre_buf;
    const float* dp;
    if (act == Act::kIdentity) {
      dp = self.grad.data();
    } else {
      d_pre_buf = Tensor::Uninitialized(self.grad.shape());
      const float* gd = self.grad.data();
      const float* yv = y.data();
      float* o = d_pre_buf.data();
      const int64_t total = m * out;
      switch (act) {
        case Act::kRelu:
          for (int64_t i = 0; i < total; ++i)
            o[i] = gd[i] * SelectOrZero(yv[i] > 0.0f, 1.0f);
          break;
        case Act::kSigmoid:
          for (int64_t i = 0; i < total; ++i)
            o[i] = gd[i] * (yv[i] * (1.0f - yv[i]));
          break;
        case Act::kTanh:
          for (int64_t i = 0; i < total; ++i)
            o[i] = gd[i] * (1.0f - yv[i] * yv[i]);
          break;
        case Act::kIdentity:
          break;
      }
      dp = d_pre_buf.data();
    }
    if (xn->requires_grad) TransBIntoGrad(xn, dp, wn->value.data(), m, out, in);
    if (wn->requires_grad) {
      wn->EnsureGrad();
      GemmTransAAccumulate(xn->value.data(), dp, wn->grad.data(), in, m, out);
    }
    if (bn != nullptr && bn->requires_grad) {
      bn->EnsureGrad();
      AccumulateBiasGrad(dp, m, out, bn->grad.data());
    }
  });
}

// ---- Gated recurrent layers ----
//
// One node per layer call. The forward computes x W_x for every row in one
// GEMM, then runs h W_h and the cell epilogue step by step. The backward
// replays the steps in reverse for the pre-activation gradients, then
// computes the input, weight and bias gradients as whole-sequence GEMMs.
// The epilogues are the per-element expressions of the per-step graph this
// op replaced, and the gradient sums keep that graph's order, so values and
// gradients keep their bits; DESIGN.md §9.2 gives the ordering argument.
// That graph also added +0 wherever a gradient first landed in a zeroed
// buffer, turning -0 into +0. The op leaves those adds out: every value
// they touched reaches the outputs only through products and sums that
// start from +0, which absorb the sign of a zero.

namespace {

// LSTM: gates i|f|g|o, state rows (h, c).
struct LstmCell {
  static constexpr int64_t kGates = 4;
  static constexpr int64_t kStates = 2;
  static constexpr int64_t kSaved = 5;  // i|f|g|o|tanh(c'), H wide each
  // Which state rows a step's backward sends gradient to straight, not
  // through W_h: the cell state's f*c path.
  static constexpr bool kCarries[kStates] = {false, true};
  // The bias joins the hidden projection's sum: z = (xw + hw) + b.
  static constexpr bool kSplitProjections = false;
  static constexpr const char* kScope = "fused/lstm_layer";
  static constexpr const char* kScopeBwd = "fused/lstm_layer_bwd";

  // One row of one step: xw and hw are the row's x W_x and h W_h; hw is
  // scratch. Two passes over the gates, as the per-step cell ops made,
  // time faster than one pass that keeps every gate live across the five
  // libm calls.
  static void Step(int64_t n, const float* xw, float* hw, const float* bias,
                   const float* const* prev, float* const* next,
                   float* saved) {
    float* z = hw;
    for (int64_t k = 0; k < kGates * n; ++k) z[k] = (xw[k] + hw[k]) + bias[k];
    for (int64_t j = 0; j < n; ++j) {
      const float iv = SigmoidF(z[j]);
      const float fv = SigmoidF(z[n + j]);
      const float gv = std::tanh(z[2 * n + j]);
      const float fc = fv * prev[1][j];
      const float ig = iv * gv;
      next[1][j] = fc + ig;
      saved[j] = iv;
      saved[n + j] = fv;
      saved[2 * n + j] = gv;
    }
    for (int64_t j = 0; j < n; ++j) {
      const float ov = SigmoidF(z[3 * n + j]);
      const float tc = std::tanh(next[1][j]);
      next[0][j] = ov * tc;
      saved[3 * n + j] = ov;
      saved[4 * n + j] = tc;
    }
  }

  // One row of one step's backward: dh is the step's whole h gradient and
  // carry[1] the f*dc the step after sent to this step's c (+0 after the
  // last step); it receives this step's.
  static void Backward(int64_t n, const float* dh, const float* saved,
                       const float* const* prev, float* const* carry,
                       float* dz, float* /*dzh*/) {
    for (int64_t j = 0; j < n; ++j) {
      const float iv = saved[j], fv = saved[n + j], gv = saved[2 * n + j];
      const float ov = saved[3 * n + j], tc = saved[4 * n + j];
      dz[3 * n + j] = dh[j] * tc * (ov * (1.0f - ov));
      const float dc = carry[1][j] + dh[j] * ov * (1.0f - tc * tc);
      dz[j] = dc * gv * (iv * (1.0f - iv));
      dz[n + j] = dc * prev[1][j] * (fv * (1.0f - fv));
      dz[2 * n + j] = dc * iv * (1.0f - gv * gv);
      carry[1][j] = dc * fv;
    }
  }
};

// GRU: gates r|z|n (u below is the update gate z), state row h.
struct GruCell {
  static constexpr int64_t kGates = 3;
  static constexpr int64_t kStates = 1;
  static constexpr int64_t kSaved = 4;  // r|u|n|zh_n, H wide each
  static constexpr bool kCarries[kStates] = {true};  // the u*h path
  // zx = xw + b and zh = hw stay apart (r gates zh_n), so the two have
  // different gradients, and the bias is added to every xw row up front.
  static constexpr bool kSplitProjections = true;
  static constexpr const char* kScope = "fused/gru_layer";
  static constexpr const char* kScopeBwd = "fused/gru_layer_bwd";

  static void Step(int64_t n, const float* zx, const float* zh,
                   const float* /*bias*/, const float* const* prev,
                   float* const* next, float* saved) {
    for (int64_t j = 0; j < n; ++j) {
      const float rv = SigmoidF(zx[j] + zh[j]);
      const float uv = SigmoidF(zx[n + j] + zh[n + j]);
      const float rn = rv * zh[2 * n + j];
      const float nv = std::tanh(zx[2 * n + j] + rn);
      const float omu = 1.0f - uv;
      const float a = omu * nv;
      const float c = uv * prev[0][j];
      next[0][j] = a + c;
      saved[j] = rv;
      saved[n + j] = uv;
      saved[2 * n + j] = nv;
      saved[3 * n + j] = zh[2 * n + j];
    }
  }

  // Writes the zx gradient to dz, the zh gradient to dzh and u*dh, the
  // gradient sent straight to h_prev, to carry[0].
  static void Backward(int64_t n, const float* dh, const float* saved,
                       const float* const* prev, float* const* carry,
                       float* dz, float* dzh) {
    for (int64_t j = 0; j < n; ++j) {
      const float rv = saved[j], uv = saved[n + j], nv = saved[2 * n + j];
      const float gj = dh[j];
      const float du = gj * (prev[0][j] - nv) * (uv * (1.0f - uv));
      const float dn = gj * (1.0f - uv) * (1.0f - nv * nv);
      const float dr = dn * saved[3 * n + j] * (rv * (1.0f - rv));
      dz[j] = dr;
      dz[n + j] = du;
      dz[2 * n + j] = dn;
      dzh[j] = dr;
      dzh[n + j] = du;
      dzh[2 * n + j] = dn * rv;
      carry[0][j] = gj * uv;
    }
  }
};

// The recurrence driver. Step s consumes x at t = s, or t = T-1-s under
// `reverse`. State rows live in [T+1, B, H] tensors whose block T-s holds
// the state before step s: block T is the initial state, block 0 the
// final one, and blocks 1..T are the h_prev rows of steps T-1..0, the
// order the backward accumulates W_h in. Without a tape only two blocks
// exist and the steps alternate between them.
template <typename Cell>
Variable RunRecurrentLayer(const Variable& x, const Variable& w_x,
                           const Variable& w_h, const Variable& bias,
                           bool reverse, const std::vector<Variable>& initial,
                           std::vector<Tensor>* final_state) {
  KT_OBS_SCOPE(Cell::kScope);
  constexpr int64_t S = Cell::kStates;
  const Tensor& xv = x.value();
  KT_CHECK_EQ(xv.dim(), 3);
  const int64_t batch = xv.size(0), steps = xv.size(1), in = xv.size(2);
  const int64_t n = w_h.value().size(0), gn = Cell::kGates * n;
  KT_CHECK_GT(steps, 0);
  KT_CHECK(w_x.shape() == (Shape{in, gn}));
  KT_CHECK(w_h.shape() == (Shape{n, gn}));
  KT_CHECK_EQ(bias.numel(), gn);
  KT_CHECK(initial.empty() || static_cast<int64_t>(initial.size()) == S);
  for (const Variable& row : initial) {
    KT_CHECK(row.shape() == (Shape{batch, n}));
  }
  std::vector<Variable> inputs{x, w_x, w_h, bias};
  inputs.insert(inputs.end(), initial.begin(), initial.end());
  const bool record = RecordsGrad(inputs);
  KT_CHECK(final_state == nullptr || !record)
      << "a recurrent layer's final state is not differentiable; ask for it "
         "under NoGradGuard";

  const int64_t rows = batch * steps, hb = batch * n;
  Tensor xw = Tensor::Uninitialized(Shape{rows, gn});  // row b*T + t
  Gemm(xv.data(), w_x.value().data(), xw.data(), rows, in, gn);
  const float* b = bias.value().data();
  if (Cell::kSplitProjections) {
    for (int64_t i = 0; i < rows; ++i) {
      float* row = xw.data() + i * gn;
      for (int64_t j = 0; j < gn; ++j) row[j] = row[j] + b[j];
    }
  }
  const int64_t blocks = record ? steps + 1 : 2;
  const auto block = [&](int64_t m) { return record ? m : m & 1; };
  std::vector<Tensor> states;
  for (int64_t r = 0; r < S; ++r) {
    states.push_back(Tensor::Uninitialized(Shape{blocks, batch, n}));
    float* init = states.back().data() + block(steps) * hb;
    if (initial.empty()) {
      std::fill(init, init + hb, 0.0f);
    } else {
      std::memcpy(init, initial[r].value().data(), sizeof(float) * hb);
    }
  }
  // Per-step values the backward reads, step s at block T-1-s.
  Tensor saved =
      Tensor::Uninitialized(Shape{record ? steps : 1, batch, Cell::kSaved * n});
  Tensor out = Tensor::Uninitialized(Shape{batch, steps, n});
  Tensor hw = Tensor::Uninitialized(Shape{batch, gn});
  const float* prev[S];
  float* next[S];
  for (int64_t s = 0; s < steps; ++s) {
    const int64_t t = reverse ? steps - 1 - s : s;
    const float* h_prev = states[0].data() + block(steps - s) * hb;
    Gemm(h_prev, w_h.value().data(), hw.data(), batch, n, gn);
    float* saved_step = saved.data() + (record ? steps - 1 - s : 0) * batch *
                                           Cell::kSaved * n;
    for (int64_t i = 0; i < batch; ++i) {
      for (int64_t r = 0; r < S; ++r) {
        prev[r] = states[r].data() + block(steps - s) * hb + i * n;
        next[r] = states[r].data() + block(steps - s - 1) * hb + i * n;
      }
      Cell::Step(n, xw.data() + (i * steps + t) * gn, hw.data() + i * gn, b,
                 prev, next, saved_step + i * Cell::kSaved * n);
      std::memcpy(out.data() + (i * steps + t) * n, next[0],
                  sizeof(float) * n);
    }
  }
  if (final_state != nullptr) {
    final_state->clear();
    for (const Tensor& st : states) {
      final_state->push_back(st.Slice(0, 0, 1).Reshape(Shape{batch, n}));
    }
  }
  if (!record) return Variable::Leaf(std::move(out), false);

  return MakeOpNode(out, inputs, [states, saved, reverse](Node& self) {
    KT_OBS_SCOPE(Cell::kScopeBwd);
    Node* xn = self.inputs[0].get();
    Node* wxn = self.inputs[1].get();
    Node* whn = self.inputs[2].get();
    Node* bn = self.inputs[3].get();
    const int64_t batch = self.grad.size(0), steps = self.grad.size(1);
    const int64_t n = self.grad.size(2), gn = Cell::kGates * n;
    const int64_t in = xn->value.size(2), rows = batch * steps, hb = batch * n;
    const float* g = self.grad.data();
    const auto position = [&](int64_t s) {
      return reverse ? steps - 1 - s : s;
    };
    // Block of step s in the x-side buffers: the order the per-step graph
    // accumulated W_x and b in. Its LSTM node ran steps last to first; its
    // GRU input projection node ran positions last to first.
    const auto input_block = [&](int64_t s) {
      return Cell::kSplitProjections ? steps - 1 - position(s) : steps - 1 - s;
    };
    // Pre-activation gradients: x side by input_block, h side step T-1-s.
    Tensor dzx = Tensor::Uninitialized(Shape{rows, gn});
    Tensor dzh = Cell::kSplitProjections
                     ? Tensor::Uninitialized(Shape{rows, gn})
                     : dzx;
    Tensor carry = Tensor::Zeros(Shape{Cell::kStates, batch, n});
    Tensor dh = Tensor::Uninitialized(Shape{batch, n});
    Tensor dot = Tensor::Uninitialized(Shape{batch, n});
    // The last step's h gradient is its output's alone.
    for (int64_t i = 0; i < batch; ++i) {
      std::memcpy(dh.data() + i * n, g + (i * steps + position(steps - 1)) * n,
                  sizeof(float) * n);
    }
    const float* prev[Cell::kStates];
    float* cr[Cell::kStates];
    for (int64_t s = steps - 1; s >= 0; --s) {
      const int64_t p = steps - 1 - s;
      for (int64_t i = 0; i < batch; ++i) {
        for (int64_t r = 0; r < Cell::kStates; ++r) {
          prev[r] = states[r].data() + (steps - s) * hb + i * n;
          cr[r] = carry.data() + r * hb + i * n;
        }
        Cell::Backward(n, dh.data() + i * n,
                       saved.data() + (p * batch + i) * Cell::kSaved * n, prev,
                       cr, dzx.data() + (input_block(s) * batch + i) * gn,
                       dzh.data() + (p * batch + i) * gn);
      }
      if (s == 0) break;
      // dh of step s-1: its output gradient, the carry and dzh W_hᵀ, summed
      // in the order the per-step graph's consumers of h ran (§9.2).
      GemmTransB(dzh.data() + p * batch * gn, whn->value.data(), dot.data(),
                 batch, gn, n);
      const float* ch = carry.data();
      for (int64_t i = 0; i < batch; ++i) {
        const float* go = g + (i * steps + position(s - 1)) * n;
        for (int64_t j = 0; j < n; ++j) {
          const int64_t k = i * n + j;
          float& d = dh.data()[k];
          if (!Cell::kCarries[0]) {
            d = go[j] + dot.data()[k];
          } else if (reverse) {
            d = (go[j] + ch[k]) + dot.data()[k];
          } else {
            d = (ch[k] + dot.data()[k]) + go[j];
          }
        }
      }
    }
    // A seeded initial state gets its carries first, then h's W_h term:
    // the per-step graph's cell node ran before its h projection.
    if (self.inputs.size() > 4) {
      for (int64_t r = 0; r < Cell::kStates; ++r) {
        Node* sn = self.inputs[4 + r].get();
        if (!sn->requires_grad || !Cell::kCarries[r]) continue;
        sn->EnsureGrad();
        float* sg = sn->grad.data();
        const float* c = carry.data() + r * hb;
        for (int64_t k = 0; k < hb; ++k) sg[k] += c[k];
      }
      if (self.inputs[4]->requires_grad) {
        TransBIntoGrad(self.inputs[4].get(),
                       dzh.data() + (steps - 1) * batch * gn,
                       whn->value.data(), batch, gn, n);
      }
    }
    // Whole-sequence passes. The x gradient rows are independent dot
    // chains; W_x, W_h and b accumulate straight into their buffers over
    // rows in the order above, the chains the per-step graph ran.
    // Calls copy(x-side row, row of x) for every row.
    const auto for_rows = [&](const auto& copy) {
      for (int64_t s = 0; s < steps; ++s) {
        for (int64_t i = 0; i < batch; ++i) {
          copy(input_block(s) * batch + i, i * steps + position(s));
        }
      }
    };
    if (xn->requires_grad) {
      Tensor dxq = Tensor::Uninitialized(Shape{rows, in});
      GemmTransB(dzx.data(), wxn->value.data(), dxq.data(), rows, gn, in);
      Tensor dx = Tensor::Uninitialized(xn->value.shape());
      for_rows([&](int64_t q, int64_t row) {
        std::memcpy(dx.data() + row * in, dxq.data() + q * in,
                    sizeof(float) * in);
      });
      xn->AccumulateGrad(std::move(dx));
    }
    if (wxn->requires_grad) {
      Tensor xq = Tensor::Uninitialized(Shape{rows, in});
      for_rows([&](int64_t q, int64_t row) {
        std::memcpy(xq.data() + q * in, xn->value.data() + row * in,
                    sizeof(float) * in);
      });
      wxn->EnsureGrad();
      GemmTransAAccumulate(xq.data(), dzx.data(), wxn->grad.data(), in, rows,
                           gn);
    }
    if (whn->requires_grad) {
      whn->EnsureGrad();
      GemmTransAAccumulate(states[0].data() + hb, dzh.data(),
                           whn->grad.data(), n, rows, gn);
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      AccumulateBiasGrad(dzx.data(), rows, gn, bn->grad.data());
    }
  });
}

}  // namespace

Variable RecurrentLayer(RecurrentCell cell, const Variable& x,
                        const Variable& w_x, const Variable& w_h,
                        const Variable& bias, bool reverse,
                        const std::vector<Variable>& initial,
                        std::vector<Tensor>* final_state) {
  return cell == RecurrentCell::kLstm
             ? RunRecurrentLayer<LstmCell>(x, w_x, w_h, bias, reverse,
                                           initial, final_state)
             : RunRecurrentLayer<GruCell>(x, w_x, w_h, bias, reverse,
                                          initial, final_state);
}

// ---- Layer normalization ----
//
// The composed chain this replaces (tests/composed_reference.h keeps it as
// the reference): mu = Sum(x)·(1/d), c = x - mu, var = Sum(c·c)·(1/d),
// sd = Sqrt(var + eps), out = (c / sd)·gamma + beta, eleven nodes.
//
// Backward replays their closures element by element, +0.0f adoption adds
// included, since the x gradient is not a sum chain from +0. Reverse
// topological order runs the composed nodes back to back (the DFS reaches
// all of them from the output before any other consumer of x), so this
// node lands x's two contributions at the same point and in the same
// order: x.grad = (base + dc) + ds1, where dc reaches c from Div and from
// Mul(c, c) twice, and ds1 is the gradient of the row sum.

namespace {

// Adds the sum of value(row, j) over the leading dims of `shape`
// ([lead..., d], rows of d) into `param`'s [d] gradient the way
// AccumulateGrad's ReduceToShape does: Sum over dim 0, again and again, each
// an ascending chain from +0.
template <typename Value>
void AccumulateOverLeadingDims(Node* param, const Shape& shape, Value value) {
  const int64_t d = shape.back();
  std::vector<float> cur(static_cast<size_t>(d));
  if (shape.size() == 1) {
    for (int64_t j = 0; j < d; ++j) cur[j] = value(0, j);
  } else {
    int64_t inner = 1;
    for (size_t dim = 1; dim < shape.size(); ++dim) inner *= shape[dim];
    const int64_t slice_rows = inner / d;
    cur.assign(static_cast<size_t>(inner), 0.0f);
    for (int64_t i0 = 0; i0 < shape[0]; ++i0) {
      for (int64_t rr = 0; rr < slice_rows; ++rr) {
        float* cr = cur.data() + rr * d;
        const int64_t row = i0 * slice_rows + rr;
        for (int64_t j = 0; j < d; ++j) cr[j] += value(row, j);
      }
    }
    for (size_t dim = 1; dim + 1 < shape.size(); ++dim) {
      inner /= shape[dim];
      std::vector<float> next(static_cast<size_t>(inner), 0.0f);
      for (int64_t i = 0; i < shape[dim]; ++i)
        for (int64_t r = 0; r < inner; ++r) next[r] += cur[i * inner + r];
      cur.swap(next);
    }
  }
  param->EnsureGrad();
  float* pg = param->grad.data();
  for (int64_t j = 0; j < d; ++j) pg[j] += cur[j];
}

}  // namespace

Variable LayerNormCore(const Variable& x, const Variable& gamma,
                       const Variable& beta, float eps) {
  KT_OBS_SCOPE("fused/layer_norm");
  const Tensor& xv = x.value();
  KT_CHECK_GE(xv.dim(), 1);
  const int64_t d = xv.size(-1);
  KT_CHECK_GT(d, 0);
  KT_CHECK_EQ(gamma.numel(), d);
  KT_CHECK_EQ(beta.numel(), d);
  const int64_t rows = xv.numel() / d;
  const float inv_d = 1.0f / static_cast<float>(d);
  Tensor centered = Tensor::Uninitialized(xv.shape());
  Tensor sd = Tensor::Uninitialized(Shape{rows});
  Tensor y = Tensor::Uninitialized(xv.shape());
  const float* gam = gamma.value().data();
  const float* bet = beta.value().data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = xv.data() + r * d;
    float* cr = centered.data() + r * d;
    float* yr = y.data() + r * d;
    float s1 = 0.0f;
    for (int64_t j = 0; j < d; ++j) s1 += xr[j];
    const float mu = s1 * inv_d;
    float s2 = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      cr[j] = xr[j] - mu;
      s2 += cr[j] * cr[j];
    }
    const float sdv = std::sqrt(s2 * inv_d + eps);
    sd.data()[r] = sdv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (cr[j] / sdv) * gam[j] + bet[j];
  }

  return MakeOpNode(y, {x, gamma, beta}, [centered, sd, inv_d](Node& self) {
    KT_OBS_SCOPE("fused/layer_norm_bwd");
    Node* xn = self.inputs[0].get();
    Node* gn = self.inputs[1].get();
    Node* bn = self.inputs[2].get();
    const Shape& shape = centered.shape();
    const int64_t d = shape.back();
    const int64_t rows = centered.numel() / d;
    const float* g = self.grad.data();
    const float* c = centered.data();
    const float* sdp = sd.data();
    const float* gam = gn->value.data();
    // The output Add hands beta the gradient itself and the Mul node
    // 0 + g, which Mul passes on times gamma (to x) and times c/sd (to
    // gamma).
    if (bn->requires_grad) {
      AccumulateOverLeadingDims(
          bn, shape, [=](int64_t r, int64_t j) { return g[r * d + j]; });
    }
    if (gn->requires_grad) {
      AccumulateOverLeadingDims(gn, shape, [=](int64_t r, int64_t j) {
        return (g[r * d + j] + 0.0f) * (c[r * d + j] / sdp[r]);
      });
    }
    if (!xn->requires_grad) return;
    xn->EnsureGrad();
    float* xg = xn->grad.data();
    std::vector<float> dc(static_cast<size_t>(d));
    for (int64_t r = 0; r < rows; ++r) {
      const float* gr = g + r * d;
      const float* cr = c + r * d;
      float* xr = xg + r * d;
      const float sdv = sdp[r];
      const float sd2 = sdv * sdv;
      // Div: dn = (0 + g)·gamma + 0 to c (÷ sd, + 0) and to sd.
      float dsd = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float dn = ((gr[j] + 0.0f) * gam[j]) + 0.0f;
        dc[j] = (dn / sdv) + 0.0f;
        dsd += -((dn * cr[j]) / sd2);
      }
      // Sqrt, AddScalar, MulScalar and the Sum's expand, each adopted.
      const float dvar = (((0.0f + dsd) * (0.5f / sdv)) + 0.0f) + 0.0f;
      const float dsq = ((dvar * inv_d) + 0.0f) + 0.0f;
      // Mul(c, c) adds dsq·c once per operand.
      float dmu = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        dc[j] = (dc[j] + dsq * cr[j]) + dsq * cr[j];
        dmu += -dc[j];
      }
      const float ds1 = ((0.0f + dmu) * inv_d) + 0.0f;
      for (int64_t j = 0; j < d; ++j) xr[j] = (xr[j] + dc[j]) + ds1;
    }
  });
}

// ---- Multi-head attention core ----
//
// The composed chain this replaces, per head h (composed_reference.h in
// tests keeps it): q_h = Slice(q), k_hᵀ = TransposeLast2(Slice(k)),
// S = BatchMatMul(q_h, k_hᵀ)·scale, S -= softplus·dist (decay),
// S += additive, P0 = softmax(S), P1 = P0·row_any, P2 = Dropout(P1),
// y_h = BatchMatMul(P2, v_h), then Concat over heads. Every GEMM here
// produces each element as the same ascending accumulator chain from +0
// that those BatchMatMuls do (a TransB dot chain added once to a zeroed C
// equals the normal form's chain started at C = 0), so values match bit
// for bit; the row passes replay the elementwise ops' expressions in order.
//
// Backward mirrors the composed closures. The composed graph also adds
// +0.0f wherever AccumulateGrad adopts a buffer, which turns -0 into +0;
// every consumer of those gradients here is again a sum chain started at
// +0, which absorbs the sign of a zero, so the adds are left out.
//
// Banding: in a row that has an allowed key, a blocked entry's score sits
// near -1e9, so its P0 is exactly +0, and so are its P1, P2 and score
// gradient (y·(…) with y = +0). Every consumer of those entries is an
// ascending chain from +0, which a ±0 term leaves unchanged. The core
// therefore computes each block of kGemmBandRows query rows only over the
// keys its rows' allowed spans cover (AttentionBands) and skips the rest:
// the softmax, the six GEMMs and every row pass. Entries inside a block's
// band but blocked for a row (interior holes, the other rows' spans) are
// computed and masked as before. A row with no allowed key is computed in
// full.

namespace {

// Batch rows per parallel chunk: one when a head's work over the batch
// reaches 2^17 multiply-adds, enough to amortize the pool, else the whole
// batch as one chunk, which never forks.
inline int64_t AttentionGrain(int64_t b, int64_t per_row_work) {
  return b * per_row_work >= (int64_t{1} << 17) ? 1 : b;
}

// Copies the [rows, dh] head block at `src` (row stride `ld`) into packed
// rows, and back.
inline void GatherHead(const float* src, int64_t rows, int64_t ld, int64_t dh,
                       float* dst) {
  for (int64_t r = 0; r < rows; ++r)
    std::memcpy(dst + r * dh, src + r * ld,
                sizeof(float) * static_cast<size_t>(dh));
}
inline void ScatterHead(const float* src, int64_t rows, int64_t ld,
                        int64_t dh, float* dst) {
  for (int64_t r = 0; r < rows; ++r)
    std::memcpy(dst + r * ld, src + r * dh,
                sizeof(float) * static_cast<size_t>(dh));
}

// Per-thread scratch, grown to the largest request and reused.
inline float* AttentionScratch(size_t n) {
  static thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// The GEMM bands of one [Tq, Tk] mask (see GemmBandedAccumulate).
// `query` holds, per block of kGemmBandRows query rows, the key range its
// rows' allowed keys span, [0, Tk) if a row has none, rounded out to whole
// 8-key panels. `key` holds, per block of keys, the query range of the
// query blocks whose ranges reach it (empty if none do).
struct AttentionBands {
  std::vector<int64_t> query;
  std::vector<int64_t> key;

  int64_t lo(int64_t i) const { return query[2 * (i / kGemmBandRows)]; }
  int64_t hi(int64_t i) const { return query[2 * (i / kGemmBandRows) + 1]; }
};

AttentionBands MakeAttentionBands(const Tensor& mask) {
  constexpr int64_t kB = kGemmBandRows;
  const int64_t tq = mask.size(0), tk = mask.size(1);
  const float* md = mask.data();
  AttentionBands bands;
  const int64_t q_blocks = (tq + kB - 1) / kB;
  for (int64_t r = 0; r < q_blocks; ++r) {
    int64_t lo = tk, hi = 0;
    for (int64_t i = r * kB; i < std::min(tq, (r + 1) * kB); ++i) {
      const float* row = md + i * tk;
      int64_t first = 0, last = tk;
      while (first < tk && row[first] == 0.0f) ++first;
      while (last > first && row[last - 1] == 0.0f) --last;
      if (first == tk) first = 0, last = tk;  // attends nowhere: in full
      lo = std::min(lo, first);
      hi = std::max(hi, last);
    }
    bands.query.push_back(lo / kB * kB);
    bands.query.push_back(std::min(tk, (hi + kB - 1) / kB * kB));
  }
  for (int64_t s = 0; s * kB < tk; ++s) {
    int64_t lo = tq, hi = 0;
    for (int64_t r = 0; r < q_blocks; ++r) {
      if (bands.query[2 * r] < (s + 1) * kB &&
          bands.query[2 * r + 1] > s * kB) {
        lo = std::min(lo, r * kB);
        hi = std::max(hi, std::min(tq, (r + 1) * kB));
      }
    }
    bands.key.push_back(lo < hi ? lo : 0);
    bands.key.push_back(lo < hi ? hi : 0);
  }
  return bands;
}

// P2 = (P0 · row_any) · (keep ? drop_scale : 0) over each row's band of one
// [tq, tk] block — the composed Mul and Dropout, in that order. `keep` is
// null without dropout; `p1_out`, if non-null, receives P0 · row_any.
inline void DropoutProbs(const float* p0, const float* row_any,
                         const uint8_t* keep, float drop_scale,
                         const AttentionBands& bands, int64_t tq, int64_t tk,
                         float* p1_out, float* p2) {
  for (int64_t i = 0; i < tq; ++i) {
    const float ra = row_any[i];
    for (int64_t c = i * tk + bands.lo(i); c < i * tk + bands.hi(i); ++c) {
      const float p1 = p0[c] * ra;
      if (p1_out != nullptr) p1_out[c] = p1;
      p2[c] = keep != nullptr ? p1 * SelectOrZero(keep[c], drop_scale) : p1;
    }
  }
}

// Zeroes each row's band of a [tq, tk] block.
inline void ZeroBands(const AttentionBands& bands, int64_t tq, int64_t tk,
                      float* x) {
  for (int64_t i = 0; i < tq; ++i)
    std::fill(x + i * tk + bands.lo(i), x + i * tk + bands.hi(i), 0.0f);
}

}  // namespace

Variable MultiHeadAttentionCore(const Variable& q, const Variable& k,
                                const Variable& v, const Tensor& mask,
                                const Variable& decay,
                                const AttentionCoreOptions& options,
                                std::vector<Tensor>* attention_out) {
  KT_OBS_SCOPE("fused/attention");
  const Tensor& qv = q.value();
  const Tensor& kv = k.value();
  const Tensor& vv = v.value();
  KT_CHECK_EQ(qv.dim(), 3);
  KT_CHECK_EQ(kv.dim(), 3);
  KT_CHECK(kv.SameShape(vv));
  const int64_t b = qv.size(0), tq = qv.size(1), d = qv.size(2);
  const int64_t tk = kv.size(1);
  KT_CHECK_EQ(kv.size(0), b);
  KT_CHECK_EQ(kv.size(2), d);
  KT_CHECK_EQ(mask.dim(), 2);
  KT_CHECK_EQ(mask.size(0), tq);
  KT_CHECK_EQ(mask.size(1), tk);
  const int64_t heads = options.num_heads;
  KT_CHECK_GT(heads, 0);
  KT_CHECK_EQ(d % heads, 0);
  const int64_t dh = d / heads;
  const int64_t tt = tq * tk;
  const bool monotonic = decay.defined();
  if (monotonic) KT_CHECK_EQ(decay.numel(), heads);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  // The composed path's mask terms: additive (m - 1)·1e9, and row_any, the
  // row maximum of the mask from 0 (0 on rows that attend nowhere).
  std::vector<float> additive(static_cast<size_t>(tt));
  std::vector<float> row_any(static_cast<size_t>(tq));
  for (int64_t i = 0; i < tq; ++i) {
    float any = 0.0f;
    for (int64_t j = 0; j < tk; ++j) {
      const float m = mask.data()[i * tk + j];
      additive[static_cast<size_t>(i * tk + j)] = (m - 1.0f) * 1e9f;
      any = std::max(any, m);
    }
    row_any[static_cast<size_t>(i)] = any;
  }
  AttentionBands bands = MakeAttentionBands(mask);

  // Decay: dist = |query_offset + i - j| and softplus(θ) = log(exp(θ) + 1),
  // keeping exp(θ) and exp(θ) + 1 for backward.
  std::vector<float> dist;
  std::vector<float> exp_theta, softplus_arg, softplus;
  if (monotonic) {
    dist.resize(static_cast<size_t>(tt));
    for (int64_t i = 0; i < tq; ++i)
      for (int64_t j = 0; j < tk; ++j)
        dist[static_cast<size_t>(i * tk + j)] =
            static_cast<float>(std::abs(options.query_offset + i - j));
    for (int64_t h = 0; h < heads; ++h) {
      const float e = std::exp(decay.value().data()[h]);
      const float a = e + 1.0f;
      exp_theta.push_back(e);
      softplus_arg.push_back(a);
      softplus.push_back(std::log(a));
    }
  }

  // Dropout masks in the composed draw order: head by head, row block j of
  // the batch from stream j, every element in order (out-of-band ones too).
  const bool dropout = options.train && options.dropout_p > 0.0f;
  std::vector<uint8_t> keep;
  float drop_scale = 0.0f;
  if (dropout) {
    const float p = options.dropout_p;
    KT_CHECK_LT(p, 1.0f);
    KT_CHECK(options.rng != nullptr);
    KT_CHECK_GT(options.rng_count, 0);
    KT_CHECK(options.rng_count == 1 || b % options.rng_count == 0)
        << "dropout rows must split into " << options.rng_count
        << " equal blocks";
    drop_scale = 1.0f / (1.0f - p);
    const int64_t n = b * tt;
    const int64_t block = n / options.rng_count;
    keep.resize(static_cast<size_t>(heads * n));
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t j = 0; j < options.rng_count; ++j)
        options.rng[j].FillKeepMask(p, keep.data() + h * n + j * block, block);
    }
  }

  // Backward keeps the softmax output P0 of every head, [heads, B, Tq, Tk]:
  // the softmax gradient reads P0 itself, which the row mask and dropout
  // zero out, and P2 is recomputed from it. Without a tape each block lives
  // in scratch only. Only the bands are ever written or read, so the
  // buffer is not zero-filled.
  const bool needs_grad =
      GradModeEnabled() && (q.requires_grad() || k.requires_grad() ||
                            v.requires_grad() ||
                            (monotonic && decay.requires_grad()));
  Tensor probs = needs_grad ? Tensor::Uninitialized(Shape{heads, b, tq, tk})
                            : Tensor();
  std::vector<Tensor> head_probs;
  if (attention_out != nullptr) {
    for (int64_t h = 0; h < heads; ++h)
      head_probs.emplace_back(Shape{b, tq, tk});
  }

  // Every head scatters its columns of every batch row.
  Tensor y = Tensor::Uninitialized(Shape{b, tq, d});
  const int64_t grain = AttentionGrain(b, tt * dh);
  const int64_t rows_max = std::max(tq, tk);
  for (int64_t h = 0; h < heads; ++h) {
    const int64_t lo = h * dh;
    const float sp = monotonic ? softplus[static_cast<size_t>(h)] : 0.0f;
    float* p1_head =
        attention_out != nullptr ? head_probs[static_cast<size_t>(h)].data()
                                 : nullptr;
    ParallelForRange(0, b, grain, [&](int64_t b0, int64_t b1) {
      float* qh =
          AttentionScratch(static_cast<size_t>(4 * rows_max * dh + 2 * tt));
      float* kh = qh + rows_max * dh;
      float* vh = kh + rows_max * dh;
      float* oh = vh + rows_max * dh;
      float* p0_scratch = oh + rows_max * dh;
      float* p2 = p0_scratch + tt;
      // The P·V GEMM reads P2 across whole 8-row blocks: +0 off the bands.
      std::fill(p2, p2 + tt, 0.0f);
      for (int64_t bi = b0; bi < b1; ++bi) {
        const int64_t block = h * b + bi;
        GatherHead(qv.data() + bi * tq * d + lo, tq, d, dh, qh);
        GatherHead(kv.data() + bi * tk * d + lo, tk, d, dh, kh);
        GatherHead(vv.data() + bi * tk * d + lo, tk, d, dh, vh);
        float* p0 = needs_grad ? probs.data() + block * tt : p0_scratch;
        ZeroBands(bands, tq, tk, p0);
        GemmBandedAccumulate(GemmForm::kTransB, qh, kh, p0, tq, dh, tk,
                             bands.query.data());
        for (int64_t i = 0; i < tq; ++i) {
          const int64_t c0 = bands.lo(i), c1 = bands.hi(i);
          float* row = p0 + i * tk;
          const float* add = additive.data() + i * tk;
          if (monotonic) {
            const float* dr = dist.data() + i * tk;
            for (int64_t c = c0; c < c1; ++c)
              row[c] = (row[c] * scale - sp * dr[c]) + add[c];
          } else {
            for (int64_t c = c0; c < c1; ++c)
              row[c] = row[c] * scale + add[c];
          }
          SoftmaxRow(row + c0, row + c0, c1 - c0);
        }
        DropoutProbs(p0, row_any.data(),
                     dropout ? keep.data() + block * tt : nullptr, drop_scale,
                     bands, tq, tk,
                     p1_head != nullptr ? p1_head + bi * tt : nullptr, p2);
        std::fill(oh, oh + tq * dh, 0.0f);
        GemmBandedAccumulate(GemmForm::kNN, p2, vh, oh, tq, tk, dh,
                             bands.query.data());
        ScatterHead(oh, tq, d, dh, y.data() + bi * tq * d + lo);
      }
    });
  }
  if (attention_out != nullptr) {
    for (Tensor& t : head_probs) attention_out->push_back(std::move(t));
  }

  std::vector<Variable> inputs{q, k, v};
  if (monotonic) inputs.push_back(decay);
  return MakeOpNode(
      std::move(y), inputs,
      [probs, keep = std::move(keep), row_any = std::move(row_any),
       bands = std::move(bands), dist = std::move(dist),
       exp_theta = std::move(exp_theta),
       softplus_arg = std::move(softplus_arg), heads, dh, scale, drop_scale,
       dropout, monotonic, grain, rows_max](Node& self) {
        KT_OBS_SCOPE("fused/attention_bwd");
        Node* qn = self.inputs[0].get();
        Node* kn = self.inputs[1].get();
        Node* vn = self.inputs[2].get();
        Node* dn = monotonic ? self.inputs[3].get() : nullptr;
        const bool need_q = qn->requires_grad;
        const bool need_k = kn->requires_grad;
        const bool need_v = vn->requires_grad;
        const bool need_decay = dn != nullptr && dn->requires_grad;
        const bool need_scores = need_q || need_k || need_decay;
        const int64_t b = self.grad.size(0), tq = self.grad.size(1);
        const int64_t d = self.grad.size(2), tk = kn->value.size(1);
        const int64_t tt = tq * tk;
        // Each head scatters its columns of every batch row.
        Tensor dq = need_q ? Tensor::Uninitialized(qn->value.shape())
                           : Tensor();
        Tensor dk = need_k ? Tensor::Uninitialized(kn->value.shape())
                           : Tensor();
        Tensor dv = need_v ? Tensor::Uninitialized(vn->value.shape())
                           : Tensor();
        // The score gradient of every batch row of one head, kept for the
        // decay's reduction over B (ascending, after the parallel pass);
        // +0 off the bands.
        std::vector<float> ds_head(need_decay ? static_cast<size_t>(b * tt)
                                              : 0);
        Tensor decay_grad = need_decay ? Tensor(Shape{heads}) : Tensor();
        const float* g = self.grad.data();
        for (int64_t h = 0; h < heads; ++h) {
          const int64_t lo = h * dh;
          ParallelForRange(0, b, grain, [&](int64_t b0, int64_t b1) {
            float* gh = AttentionScratch(static_cast<size_t>(
                3 * rows_max * dh + 3 * tt));
            float* xh = gh + rows_max * dh;  // v_h, k_h or q_h
            float* oh = xh + rows_max * dh;
            float* p2 = oh + rows_max * dh;
            float* dp = p2 + tt;
            float* ds_scratch = dp + tt;
            // The dV and dK GEMMs read P2 and dS0 across whole key blocks:
            // +0 off the bands.
            std::fill(p2, p2 + 2 * tt, 0.0f);
            for (int64_t bi = b0; bi < b1; ++bi) {
              const int64_t block = h * b + bi;
              const float* p0 = probs.data() + block * tt;
              const uint8_t* kp = dropout ? keep.data() + block * tt : nullptr;
              GatherHead(g + bi * tq * d + lo, tq, d, dh, gh);
              if (need_v) {
                // dV_h = P2ᵀ G_h.
                DropoutProbs(p0, row_any.data(), kp, drop_scale, bands, tq,
                             tk, nullptr, p2);
                std::fill(oh, oh + tk * dh, 0.0f);
                GemmBandedAccumulate(GemmForm::kTransA, p2, gh, oh, tk, tq,
                                     dh, bands.key.data());
                ScatterHead(oh, tk, d, dh, dv.data() + bi * tk * d + lo);
              }
              if (!need_scores) continue;
              // dP2 = G_h V_hᵀ, then per row: dropout, row mask, softmax.
              GatherHead(vn->value.data() + bi * tk * d + lo, tk, d, dh, xh);
              ZeroBands(bands, tq, tk, dp);
              GemmBandedAccumulate(GemmForm::kTransB, gh, xh, dp, tq, dh, tk,
                                   bands.query.data());
              float* ds = need_decay ? ds_head.data() + bi * tt : ds_scratch;
              for (int64_t i = 0; i < tq; ++i) {
                const int64_t c0 = bands.lo(i), c1 = bands.hi(i);
                float* gr = dp + i * tk;
                const float* yr = p0 + i * tk;
                float* dsr = ds + i * tk;
                if (kp != nullptr) {
                  const uint8_t* kr = kp + i * tk;
                  for (int64_t c = c0; c < c1; ++c)
                    gr[c] = gr[c] * SelectOrZero(kr[c], drop_scale);
                }
                const float ra = row_any[static_cast<size_t>(i)];
                float sum = 0.0f;
                for (int64_t c = c0; c < c1; ++c) {
                  gr[c] = gr[c] * ra;
                  sum += gr[c] * yr[c];
                }
                for (int64_t c = c0; c < c1; ++c)
                  dsr[c] = yr[c] * (gr[c] - sum);
              }
              if (!need_q && !need_k) continue;
              // dS0 = dS·scale; dQ_h = dS0 K_h, dK_h = dS0ᵀ Q_h.
              for (int64_t i = 0; i < tq; ++i) {
                for (int64_t c = i * tk + bands.lo(i); c < i * tk + bands.hi(i);
                     ++c)
                  dp[c] = ds[c] * scale;
              }
              if (need_q) {
                GatherHead(kn->value.data() + bi * tk * d + lo, tk, d, dh, xh);
                std::fill(oh, oh + tq * dh, 0.0f);
                GemmBandedAccumulate(GemmForm::kNN, dp, xh, oh, tq, tk, dh,
                                     bands.query.data());
                ScatterHead(oh, tq, d, dh, dq.data() + bi * tq * d + lo);
              }
              if (need_k) {
                GatherHead(qn->value.data() + bi * tq * d + lo, tq, d, dh,
                           xh);
                std::fill(oh, oh + tk * dh, 0.0f);
                GemmBandedAccumulate(GemmForm::kTransA, dp, xh, oh, tk, tq,
                                     dh, bands.key.data());
                ScatterHead(oh, tk, d, dh, dk.data() + bi * tk * d + lo);
              }
            }
          });
          if (need_decay) {
            // The composed reductions in order: Neg and Sum over B
            // (ascending), × dist, Sum over Tq, then over Tk; then the
            // chain rule through log(a) and a = exp(θ) + 1.
            std::vector<float> penalty_grad(static_cast<size_t>(tt), 0.0f);
            for (int64_t bi = 0; bi < b; ++bi) {
              const float* ds = ds_head.data() + bi * tt;
              for (int64_t c = 0; c < tt; ++c) penalty_grad[c] += -ds[c];
            }
            std::vector<float> col(static_cast<size_t>(tk), 0.0f);
            for (int64_t i = 0; i < tq; ++i)
              for (int64_t c = 0; c < tk; ++c)
                col[c] += penalty_grad[i * tk + c] * dist[i * tk + c];
            float total = 0.0f;
            for (int64_t c = 0; c < tk; ++c) total += col[c];
            decay_grad.data()[h] = (total / softplus_arg[h]) * exp_theta[h];
          }
        }
        if (need_q) qn->AccumulateGrad(std::move(dq));
        if (need_k) kn->AccumulateGrad(std::move(dk));
        if (need_v) vn->AccumulateGrad(std::move(dv));
        if (need_decay) dn->AccumulateGrad(std::move(decay_grad));
      });
}

}  // namespace ag
}  // namespace kt

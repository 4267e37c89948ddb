#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "autograd/grad_check.h"
#include "composed_reference.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace ag {
namespace {

Variable Param(Tensor t) { return Variable::Leaf(std::move(t), true); }

// Convenience: run CheckGradients on a 1-param function.
void ExpectGradOk(
    const std::function<Variable(const std::vector<Variable>&)>& fn,
    std::vector<Variable> params) {
  GradCheckResult result = CheckGradients(fn, params);
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error
                         << " max rel err " << result.max_rel_error;
}

TEST(VariableTest, LeafHoldsValueAndGrad) {
  Variable v = Param(Tensor({2}, {1, 2}));
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FLOAT_EQ(v.grad().flat(0), 0.0f);  // zeros before backward
}

TEST(VariableTest, BackwardRequiresScalar) {
  Variable v = Param(Tensor({2}, {1, 2}));
  EXPECT_DEATH(v.Backward(), "scalar");
}

TEST(VariableTest, SimpleChainRule) {
  // loss = sum(3 * x) -> dx = 3 everywhere.
  Variable x = Param(Tensor({4}, {1, 2, 3, 4}));
  Variable loss = SumAll(MulScalar(x, 3.0f));
  loss.Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad().flat(i), 3.0f);
}

TEST(VariableTest, GradAccumulatesAcrossUses) {
  // loss = sum(x + x): dx = 2.
  Variable x = Param(Tensor({3}, {1, 1, 1}));
  Variable loss = SumAll(Add(x, x));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().flat(0), 2.0f);
}

TEST(VariableTest, ZeroGradResets) {
  Variable x = Param(Tensor({2}, {1, 2}));
  SumAll(x).Backward();
  EXPECT_FLOAT_EQ(x.grad().flat(0), 1.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().flat(0), 0.0f);
}

TEST(VariableTest, NoGradGuardSkipsTape) {
  Variable x = Param(Tensor({2}, {1, 2}));
  NoGradGuard guard;
  Variable y = MulScalar(x, 2.0f);
  EXPECT_FALSE(y.requires_grad());
}

TEST(VariableTest, ConstantDoesNotRequireGrad) {
  Variable c = Constant(Tensor({2}, {1, 2}));
  EXPECT_FALSE(c.requires_grad());
  Variable y = MulScalar(c, 2.0f);
  EXPECT_FALSE(y.requires_grad());
}

TEST(VariableTest, DiamondGraphAccumulates) {
  // y = x*x; z = y + y; loss = sum(z). dz/dx = 4x.
  Variable x = Param(Tensor({2}, {3, -2}));
  Variable y = Mul(x, x);
  Variable loss = SumAll(Add(y, y));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().flat(0), 12.0f);
  EXPECT_FLOAT_EQ(x.grad().flat(1), -8.0f);
}

// ---- Gradient lifetime and first-contribution handover ----

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(VariableTest, BackwardReleasesInteriorGradsAndKeepsLeafGrads) {
  // loss = sum((2x)^2) -> dx = 8x.
  Variable x = Param(Tensor({3}, {1, -2, 3}));
  Variable y = MulScalar(x, 2.0f);
  Variable z = Mul(y, y);
  Variable loss = SumAll(z);
  loss.Backward();
  for (int64_t i = 0; i < 3; ++i)
    EXPECT_EQ(x.grad().flat(i), 8.0f * x.value().flat(i));
  for (const Variable* interior : {&y, &z, &loss}) {
    EXPECT_FALSE(interior->node()->has_grad);
    const Tensor g = interior->grad();
    EXPECT_EQ(g.shape(), interior->shape());
    for (int64_t i = 0; i < g.numel(); ++i) EXPECT_EQ(Bits(g.flat(i)), 0u);
  }

  // A second loss over the same interior node adds only its own gradient:
  // the first pass's gradient at `y` is gone, not propagated again.
  SumAll(MulScalar(y, 0.5f)).Backward();  // adds 2 * 0.5 = 1 to dx
  for (int64_t i = 0; i < 3; ++i)
    EXPECT_EQ(x.grad().flat(i), 8.0f * x.value().flat(i) + 1.0f);
}

TEST(VariableTest, HandoverTurnsNegativeZeroIntoPositiveZero) {
  // The only contribution to dx is 1 * -0 = -0, a fresh tensor the leaf
  // adopts. The zero-then-add path computed 0 + -0 = +0; so must this.
  Variable x = Param(Tensor({4}, {1, -2, 3, -4}));
  SumAll(MulScalar(x, -0.0f)).Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(Bits(x.grad().flat(i)), 0u);
}

TEST(VariableTest, HandoverNeverAliasesSiblingGradients) {
  // s = p + q hands one gradient tensor to both p and q. p then gets a
  // second contribution from `first` while its gradient buffer is live;
  // if p and q shared that buffer, q (and b) would see p's addition.
  Variable a = Param(Tensor({2}, {1, 2}));
  Variable b = Param(Tensor({2}, {3, 4}));
  Variable p = MulScalar(a, 2.0f);
  Variable q = MulScalar(b, 3.0f);
  Variable first = Add(p, MulScalar(q, 5.0f));
  Variable s = Add(p, q);
  SumAll(Add(first, s)).Backward();
  // dp = 1 + 1 -> da = 2 * 2; dq = 5 + 1 -> db = 3 * 6.
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.grad().flat(i), 4.0f);
    EXPECT_EQ(b.grad().flat(i), 18.0f);
  }
}

TEST(VariableTest, BroadcastFirstContributionStillReduces) {
  // bias [3] broadcast over m [2, 3]; d(sum(w * (m + bias))) / dbias is the
  // column sum of w, reduced into zeros (so -0 + -0 = -0 ends as +0).
  Variable m = Param(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  Variable bias = Param(Tensor({3}, {7, 8, 9}));
  Tensor w({2, 3}, {0.5f, -0.0f, 1.25f, 0.25f, -0.0f, -3.0f});
  SumAll(Mul(Add(m, bias), Constant(w))).Backward();
  const Tensor db = bias.grad();
  ASSERT_EQ(db.shape(), (Shape{3}));
  EXPECT_EQ(db.flat(0), 0.75f);
  EXPECT_EQ(Bits(db.flat(1)), 0u);
  EXPECT_EQ(db.flat(2), -1.75f);
  const Tensor dm = m.grad();
  for (int64_t i = 0; i < 6; ++i)
    EXPECT_EQ(Bits(dm.flat(i)), Bits(w.flat(i) + 0.0f));
}

// ---- Gradient checks per op ----

TEST(GradCheckTest, AddSubMulDiv) {
  Rng rng(1);
  auto make = [&]() {
    return std::vector<Variable>{
        Param(Tensor::Uniform({2, 3}, 0.5f, 2.0f, rng)),
        Param(Tensor::Uniform({2, 3}, 0.5f, 2.0f, rng))};
  };
  ExpectGradOk([](const auto& p) { return SumAll(Add(p[0], p[1])); }, make());
  ExpectGradOk([](const auto& p) { return SumAll(Sub(p[0], p[1])); }, make());
  ExpectGradOk([](const auto& p) { return SumAll(Mul(p[0], p[1])); }, make());
  ExpectGradOk([](const auto& p) { return SumAll(Div(p[0], p[1])); }, make());
}

TEST(GradCheckTest, BroadcastBinary) {
  Rng rng(2);
  std::vector<Variable> params{
      Param(Tensor::Uniform({2, 3}, 0.5f, 2.0f, rng)),
      Param(Tensor::Uniform({3}, 0.5f, 2.0f, rng))};
  ExpectGradOk([](const auto& p) { return SumAll(Mul(p[0], p[1])); }, params);
  std::vector<Variable> params2{
      Param(Tensor::Uniform({2, 1}, 0.5f, 2.0f, rng)),
      Param(Tensor::Uniform({1, 4}, 0.5f, 2.0f, rng))};
  ExpectGradOk([](const auto& p) { return SumAll(Add(p[0], p[1])); }, params2);
}

TEST(GradCheckTest, Activations) {
  Rng rng(3);
  auto one = [&](float lo, float hi) {
    return std::vector<Variable>{Param(Tensor::Uniform({3, 2}, lo, hi, rng))};
  };
  ExpectGradOk([](const auto& p) { return SumAll(Sigmoid(p[0])); },
               one(-2, 2));
  ExpectGradOk([](const auto& p) { return SumAll(Tanh(p[0])); }, one(-2, 2));
  ExpectGradOk([](const auto& p) { return SumAll(Exp(p[0])); }, one(-1, 1));
  ExpectGradOk([](const auto& p) { return SumAll(Log(p[0])); },
               one(0.5f, 3.0f));
  ExpectGradOk([](const auto& p) { return SumAll(Sqrt(p[0])); },
               one(0.5f, 3.0f));
  // Relu away from the kink.
  ExpectGradOk([](const auto& p) { return SumAll(Relu(p[0])); },
               one(0.5f, 2.0f));
}

TEST(GradCheckTest, MatMulAndBatched) {
  Rng rng(4);
  std::vector<Variable> params{
      Param(Tensor::Uniform({3, 4}, -1, 1, rng)),
      Param(Tensor::Uniform({4, 2}, -1, 1, rng))};
  ExpectGradOk([](const auto& p) { return SumAll(MatMul(p[0], p[1])); },
               params);

  std::vector<Variable> batched{
      Param(Tensor::Uniform({2, 3, 4}, -1, 1, rng)),
      Param(Tensor::Uniform({2, 4, 2}, -1, 1, rng))};
  ExpectGradOk(
      [](const auto& p) { return SumAll(BatchMatMul(p[0], p[1])); }, batched);
}

TEST(GradCheckTest, SoftmaxComposition) {
  Rng rng(5);
  std::vector<Variable> params{Param(Tensor::Uniform({2, 5}, -2, 2, rng))};
  // Weighted sum so the softmax gradient isn't identically zero.
  Tensor weights = Tensor::Uniform({2, 5}, -1, 1, rng);
  ExpectGradOk(
      [weights](const auto& p) {
        return SumAll(Mul(SoftmaxLastDim(p[0]), Constant(weights)));
      },
      params);
}

TEST(GradCheckTest, ShapeOps) {
  Rng rng(6);
  std::vector<Variable> params{Param(Tensor::Uniform({2, 6}, -1, 1, rng))};
  Tensor w1 = Tensor::Uniform({3, 4}, -1, 1, rng);
  ExpectGradOk(
      [w1](const auto& p) {
        return SumAll(Mul(Reshape(p[0], {3, 4}), Constant(w1)));
      },
      params);
  Tensor w2 = Tensor::Uniform({6, 2}, -1, 1, rng);
  ExpectGradOk(
      [w2](const auto& p) {
        return SumAll(Mul(TransposeLast2(p[0]), Constant(w2)));
      },
      params);
  Tensor w3 = Tensor::Uniform({2, 3}, -1, 1, rng);
  ExpectGradOk(
      [w3](const auto& p) {
        return SumAll(Mul(Slice(p[0], 1, 2, 5), Constant(w3)));
      },
      params);
}

TEST(GradCheckTest, ConcatRoutesGradients) {
  Rng rng(7);
  std::vector<Variable> params{
      Param(Tensor::Uniform({2, 2}, -1, 1, rng)),
      Param(Tensor::Uniform({2, 3}, -1, 1, rng))};
  Tensor w = Tensor::Uniform({2, 5}, -1, 1, rng);
  ExpectGradOk(
      [w](const auto& p) {
        return SumAll(Mul(Concat({p[0], p[1]}, 1), Constant(w)));
      },
      params);
}

TEST(GradCheckTest, Reductions) {
  Rng rng(8);
  std::vector<Variable> params{Param(Tensor::Uniform({3, 4}, -1, 1, rng))};
  ExpectGradOk([](const auto& p) { return MeanAll(p[0]); }, params);
  Tensor w = Tensor::Uniform({4}, -1, 1, rng);
  ExpectGradOk(
      [w](const auto& p) { return SumAll(Mul(Sum(p[0], 0), Constant(w))); },
      params);
  Tensor w2 = Tensor::Uniform({3, 1}, -1, 1, rng);
  ExpectGradOk(
      [w2](const auto& p) {
        return SumAll(Mul(Mean(p[0], 1, true), Constant(w2)));
      },
      params);
}

TEST(GradCheckTest, MaximumRoutesToWinner) {
  // Values chosen away from ties so the subgradient is unambiguous.
  std::vector<Variable> params{Param(Tensor({3}, {1.0f, 5.0f, -2.0f})),
                               Param(Tensor({3}, {2.0f, 1.0f, 3.0f}))};
  ExpectGradOk(
      [](const auto& p) { return SumAll(Maximum(p[0], p[1])); }, params);

  Variable a = Param(Tensor({3}, {1.0f, 5.0f, -2.0f}));
  Variable b = Param(Tensor({3}, {2.0f, 1.0f, 3.0f}));
  SumAll(Maximum(a, b)).Backward();
  EXPECT_FLOAT_EQ(a.grad().flat(0), 0.0f);
  EXPECT_FLOAT_EQ(a.grad().flat(1), 1.0f);
  EXPECT_FLOAT_EQ(b.grad().flat(2), 1.0f);
}

TEST(GradCheckTest, EmbeddingScattersIntoRows) {
  Rng rng(9);
  Variable table = Param(Tensor::Uniform({5, 3}, -1, 1, rng));
  std::vector<int64_t> indices = {1, 3, 1};
  Variable out = EmbeddingLookup(table, indices);
  EXPECT_EQ(out.shape(), (Shape{3, 3}));
  SumAll(out).Backward();
  // Row 1 was looked up twice, row 3 once, others never.
  EXPECT_FLOAT_EQ(table.grad().at({1, 0}), 2.0f);
  EXPECT_FLOAT_EQ(table.grad().at({3, 0}), 1.0f);
  EXPECT_FLOAT_EQ(table.grad().at({0, 0}), 0.0f);
}

TEST(GradCheckTest, EmbeddingBagMean) {
  Rng rng(10);
  Variable table = Param(Tensor::Uniform({4, 2}, -1, 1, rng));
  std::vector<std::vector<int64_t>> bags = {{0, 1}, {2}, {}};
  Variable out = EmbeddingBagMean(table, bags);
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  // Bag 0 is the mean of rows 0 and 1.
  EXPECT_NEAR(out.value().at({0, 0}),
              0.5f * (table.value().at({0, 0}) + table.value().at({1, 0})),
              1e-6f);
  // Empty bag yields zeros.
  EXPECT_FLOAT_EQ(out.value().at({2, 0}), 0.0f);
  SumAll(out).Backward();
  EXPECT_FLOAT_EQ(table.grad().at({0, 0}), 0.5f);
  EXPECT_FLOAT_EQ(table.grad().at({2, 0}), 1.0f);
  EXPECT_FLOAT_EQ(table.grad().at({3, 0}), 0.0f);
}

TEST(DropoutTest, IdentityWhenNotTraining) {
  Rng rng(11);
  Variable x = Param(Tensor::Uniform({4, 4}, -1, 1, rng));
  Variable y = Dropout(x, 0.5f, rng, /*train=*/false);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

TEST(DropoutTest, ScalesKeptUnits) {
  Rng rng(12);
  Variable x = Param(Tensor::Ones({1000}));
  Variable y = Dropout(x, 0.5f, rng, /*train=*/true);
  // Each kept unit is 2.0; expectation preserved.
  int64_t kept = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float v = y.value().flat(i);
    EXPECT_TRUE(v == 0.0f || v == 2.0f);
    if (v != 0.0f) ++kept;
  }
  EXPECT_NEAR(static_cast<double>(kept) / 1000.0, 0.5, 0.08);
  // Gradient uses the same mask.
  SumAll(y).Backward();
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_FLOAT_EQ(x.grad().flat(i), y.value().flat(i));
  }
}

TEST(GradCheckTest, CompositeExpressionMatchesNumeric) {
  // A small MLP-like composite: sum(sigmoid(x W1) W2).
  Rng rng(13);
  std::vector<Variable> params{
      Param(Tensor::Uniform({2, 3}, -1, 1, rng)),
      Param(Tensor::Uniform({3, 4}, -1, 1, rng)),
      Param(Tensor::Uniform({4, 1}, -1, 1, rng))};
  ExpectGradOk(
      [](const auto& p) {
        return SumAll(MatMul(Sigmoid(MatMul(p[0], p[1])), p[2]));
      },
      params);
}

// ---- Fused ops (DESIGN.md §9) ----
//
// Each fused op must (1) match its composed primitive chain bit-for-bit in
// the forward pass and (2) pass a numeric gradient check through its
// single-node backward.

bool BitEqualTensors(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(FusedOpsTest, LinearBiasActMatchesComposedBitForBit) {
  Rng rng(21);
  Variable x = Param(Tensor::Uniform({9, 5}, -2, 2, rng));
  Variable w = Param(Tensor::Uniform({5, 7}, -1, 1, rng));
  Variable b = Param(Tensor::Uniform({7}, -1, 1, rng));
  for (Act act : {Act::kIdentity, Act::kRelu, Act::kSigmoid, Act::kTanh}) {
    Variable fused = LinearBiasAct(x, w, b, act);
    Variable composed = reference::ComposedLinearAct(x, w, b, act);
    EXPECT_TRUE(BitEqualTensors(fused.value(), composed.value()))
        << "act=" << static_cast<int>(act);
  }
  // No-bias form.
  Variable fused = LinearBiasAct(x, w, Variable(), Act::kSigmoid);
  Variable composed =
      reference::ComposedLinearAct(x, w, Variable(), Act::kSigmoid);
  EXPECT_TRUE(BitEqualTensors(fused.value(), composed.value()));
}

TEST(FusedOpsTest, LinearBiasActGradients) {
  Rng rng(22);
  for (Act act : {Act::kIdentity, Act::kRelu, Act::kSigmoid, Act::kTanh}) {
    std::vector<Variable> params{Param(Tensor::Uniform({4, 3}, 0.1f, 2, rng)),
                                 Param(Tensor::Uniform({3, 5}, -1, 1, rng)),
                                 Param(Tensor::Uniform({5}, -1, 1, rng))};
    ExpectGradOk(
        [act](const auto& p) {
          return SumAll(LinearBiasAct(p[0], p[1], p[2], act));
        },
        params);
  }
}

// An input with no gradient yet gets its dX from the store-form GemmTransB;
// one that already holds a gradient P gets P + dX, from
// GemmTransBAccumulate or, for the recurrent layer's x, from adding its
// store-form dX. Both must give the bits of the old zero-fill plus
// accumulate: dX itself, and P[i] + dX[i]. Checked for MatMul,
// LinearBiasAct (every activation) and both recurrent layers (x over three
// steps, and the LSTM's seeded h), on shapes that take the reference and
// the tiled kernels, with an upstream gradient that contains +0 and -0 and
// a held gradient that contains zeros. The GRU's seeded h is left out: it
// sums two terms (u * dh, then dz W_hᵀ), so P + dX does not describe it.
TEST(FusedOpsTest, InputGradientSameWhetherOrNotInputHoldsGradient) {
  Rng rng(26);
  auto signed_zeros = [&rng](const Shape& shape) {
    Tensor t = Tensor::Uniform(shape, -1, 1, rng);
    for (int64_t i = 0; i < t.numel(); i += 3)
      t.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
    return t;
  };
  struct Op {
    const char* name;
    Shape x_shape;
    std::function<Variable(const Variable&, const Variable&)> run;
  };
  for (const Shape& dims : {Shape{3, 2, 5}, Shape{37, 19, 21},
                            Shape{50, 32, 64}}) {
    const int64_t m = dims[0], in = dims[1], out = dims[2];
    const Tensor hv = Tensor::Uniform({m, in}, -1, 1, rng);
    const Variable w = Param(Tensor::Uniform({in, out}, -1, 1, rng));
    const Variable b = Param(Tensor::Uniform({out}, -1, 1, rng));
    // Recurrent weights with hidden size `in`, so h is a [m, in] state.
    const Variable lstm_wx = Param(Tensor::Uniform({in, 4 * in}, -1, 1, rng));
    const Variable lstm_wh = Param(Tensor::Uniform({in, 4 * in}, -1, 1, rng));
    const Variable lstm_b = Param(Tensor::Uniform({4 * in}, -1, 1, rng));
    const Variable gru_wx = Param(Tensor::Uniform({in, 3 * in}, -1, 1, rng));
    const Variable gru_wh = Param(Tensor::Uniform({in, 3 * in}, -1, 1, rng));
    const Variable gru_b = Param(Tensor::Uniform({3 * in}, -1, 1, rng));
    const Variable c0 = Constant(Tensor::Zeros({m, in}));
    std::vector<Op> ops = {
        {"MatMul", {m, in},
         [&](const Variable& x, const Variable&) { return MatMul(x, w); }},
        {"LSTM layer", {m, 3, in},
         [&](const Variable& x, const Variable& h) {
           return RecurrentLayer(RecurrentCell::kLstm, x, lstm_wx, lstm_wh,
                                 lstm_b, /*reverse=*/false, {h, c0}, nullptr);
         }},
        {"GRU layer", {m, 3, in},
         [&](const Variable& x, const Variable&) {
           return RecurrentLayer(RecurrentCell::kGru, x, gru_wx, gru_wh,
                                 gru_b, /*reverse=*/true, {}, nullptr);
         }}};
    for (Act act : {Act::kIdentity, Act::kRelu, Act::kSigmoid, Act::kTanh}) {
      ops.push_back({"LinearBiasAct", {m, in},
                     [&, act](const Variable& x, const Variable&) {
                       return LinearBiasAct(x, w, b, act);
                     }});
    }
    for (const Op& op : ops) {
      SCOPED_TRACE(::testing::Message() << op.name << " " << m << "x" << in
                                        << "x" << out);
      const Tensor xv = Tensor::Uniform(op.x_shape, -1, 1, rng);
      const Tensor held_x = signed_zeros(op.x_shape);
      const Tensor held_h = signed_zeros({m, in});
      Variable x = Param(xv);
      Variable h = Param(hv);
      const Tensor upstream = signed_zeros(op.run(x, h).shape());
      SumAll(Mul(op.run(x, h), Constant(upstream))).Backward();
      const Tensor fresh_x = x.grad();
      const Tensor fresh_h = h.grad();

      Variable x2 = Param(xv);
      Variable h2 = Param(hv);
      SumAll(Add(SumAll(Mul(x2, Constant(held_x))),
                 SumAll(Mul(h2, Constant(held_h)))))
          .Backward();
      const Tensor before_x = x2.grad().Clone();
      const Tensor before_h = h2.grad().Clone();
      SumAll(Mul(op.run(x2, h2), Constant(upstream))).Backward();
      const Tensor after_x = x2.grad();
      const Tensor after_h = h2.grad();
      for (int64_t i = 0; i < xv.numel(); ++i) {
        ASSERT_EQ(Bits(after_x.flat(i)),
                  Bits(before_x.flat(i) + fresh_x.flat(i)))
            << "x element " << i;
      }
      for (int64_t i = 0; i < m * in; ++i) {
        ASSERT_EQ(Bits(after_h.flat(i)),
                  Bits(before_h.flat(i) + fresh_h.flat(i)))
            << "h element " << i;
      }
    }
  }
}

TEST(FusedOpsTest, MultiHeadAttentionCoreGradients) {
  Rng rng(25);
  Tensor mask(Shape{3, 4});  // row 0 attends nowhere
  for (int64_t i = 1; i < 3; ++i)
    for (int64_t j = 0; j <= i + 1; ++j) mask.at({i, j}) = 1.0f;
  const Tensor weights = Tensor::Uniform({2, 3, 4}, -1, 1, rng);
  AttentionCoreOptions options;
  options.num_heads = 2;
  options.query_offset = 1;
  std::vector<Variable> params{Param(Tensor::Uniform({2, 3, 4}, -1, 1, rng)),
                               Param(Tensor::Uniform({2, 4, 4}, -1, 1, rng)),
                               Param(Tensor::Uniform({2, 4, 4}, -1, 1, rng)),
                               Param(Tensor::Uniform({2}, -1, 1, rng))};
  ExpectGradOk(
      [&](const auto& p) {
        return SumAll(Mul(MultiHeadAttentionCore(p[0], p[1], p[2], mask,
                                                 p[3], options, nullptr),
                          Constant(weights)));
      },
      params);
}

// Bitwise equality with the composed LayerNorm chain (ComposedLayerNorm) is
// checked at module level (nn_test.cc, ComposedParityTest); this pins the
// gradients of x, gamma and beta against finite differences.
TEST(FusedOpsTest, LayerNormCoreGradients) {
  Rng rng(26);
  const Tensor weights = Tensor::Uniform({2, 3, 5}, -1, 1, rng);
  std::vector<Variable> params{Param(Tensor::Uniform({2, 3, 5}, -2, 2, rng)),
                               Param(Tensor::Uniform({5}, 0.5f, 1.5f, rng)),
                               Param(Tensor::Uniform({5}, -1, 1, rng))};
  ExpectGradOk(
      [&](const auto& p) {
        return SumAll(
            Mul(LayerNormCore(p[0], p[1], p[2], 1e-5f), Constant(weights)));
      },
      params);
}

}  // namespace
}  // namespace ag
}  // namespace kt

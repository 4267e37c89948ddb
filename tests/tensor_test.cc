#include "tensor/tensor.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/cpu.h"
#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace {

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(TensorTest, ZerosOnesFull) {
  Tensor z = Tensor::Zeros({2, 3});
  Tensor o = Tensor::Ones({2, 3});
  Tensor f = Tensor::Full({2, 3}, 2.5f);
  EXPECT_EQ(z.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(z.flat(i), 0.0f);
    EXPECT_FLOAT_EQ(o.flat(i), 1.0f);
    EXPECT_FLOAT_EQ(f.flat(i), 2.5f);
  }
}

TEST(TensorTest, AtIndexing) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_FLOAT_EQ(t.at({1, 2}), 7.0f);
  EXPECT_FLOAT_EQ(t.flat(5), 7.0f);
}

TEST(TensorTest, FromValuesChecksCount) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_DEATH(Tensor({2, 2}, {1, 2, 3}), "KT_CHECK");
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor t({2, 3});
  Tensor r = t.Reshape({3, 2});
  r.flat(0) = 9.0f;
  EXPECT_FLOAT_EQ(t.flat(0), 9.0f);
}

TEST(TensorTest, ReshapeInfersDimension) {
  Tensor t({2, 6});
  Tensor r = t.Reshape({4, -1});
  EXPECT_EQ(r.size(1), 3);
  EXPECT_DEATH(t.Reshape({5, -1}), "KT_CHECK");
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t({3});
  Tensor c = t.Clone();
  c.flat(0) = 5.0f;
  EXPECT_FLOAT_EQ(t.flat(0), 0.0f);
}

TEST(TensorTest, TransposeLast2) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.TransposeLast2();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(tt.at({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(tt.at({2, 0}), 3.0f);
}

TEST(TensorTest, TransposeLast2Batched) {
  Tensor t({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor tt = t.TransposeLast2();
  EXPECT_FLOAT_EQ(tt.at({0, 0, 1}), 3.0f);
  EXPECT_FLOAT_EQ(tt.at({1, 1, 0}), 6.0f);
}

TEST(TensorTest, SliceMiddleDim) {
  Tensor t({2, 4, 2});
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = static_cast<float>(i);
  Tensor s = t.Slice(1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(s.at({0, 0, 0}), t.at({0, 1, 0}));
  EXPECT_FLOAT_EQ(s.at({1, 1, 1}), t.at({1, 2, 1}));
}

TEST(TensorTest, SliceNegativeDim) {
  Tensor t({2, 4});
  Tensor s = t.Slice(-1, 0, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
}

TEST(TensorTest, ConcatDim0AndDim1) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({1, 2}, {3, 4});
  Tensor c0 = Tensor::Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c0.at({1, 1}), 4.0f);
  Tensor c1 = Tensor::Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), (Shape{1, 4}));
  EXPECT_FLOAT_EQ(c1.at({0, 2}), 3.0f);
}

TEST(TensorTest, ConcatRoundTripsWithSlice) {
  Rng rng(3);
  Tensor a = Tensor::Uniform({2, 3, 4}, -1, 1, rng);
  Tensor b = Tensor::Uniform({2, 2, 4}, -1, 1, rng);
  Tensor c = Tensor::Concat({a, b}, 1);
  EXPECT_TRUE(c.Slice(1, 0, 3).AllClose(a));
  EXPECT_TRUE(c.Slice(1, 3, 5).AllClose(b));
}

TEST(TensorTest, IndexSelectRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor rows = Tensor::IndexSelectRows(table, {2, 0, 2});
  EXPECT_EQ(rows.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(rows.at({0, 0}), 5.0f);
  EXPECT_FLOAT_EQ(rows.at({1, 1}), 2.0f);
  EXPECT_FLOAT_EQ(rows.at({2, 1}), 6.0f);
}

TEST(TensorTest, AllCloseDetectsNanAndDiff) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.0f + 1e-3f});
  EXPECT_FALSE(a.AllClose(b));
  EXPECT_TRUE(a.AllClose(b, /*rtol=*/1e-2f));
  Tensor n({2}, {1.0f, NAN});
  EXPECT_FALSE(n.AllClose(n));
}

// ---- Broadcasting ----

TEST(BroadcastTest, ShapeRules) {
  EXPECT_EQ(BroadcastShape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 1}, {1, 4}), (Shape{2, 4}));
  EXPECT_EQ(BroadcastShape({}, {5}), (Shape{5}));
  EXPECT_EQ(BroadcastShape({0, 3}, {3}), (Shape{0, 3}));
  EXPECT_EQ(BroadcastShape({1}, {0}), (Shape{0}));
  EXPECT_DEATH(BroadcastShape({2, 3}, {4}), "KT_CHECK");
}

TEST(BroadcastTest, BroadcastsTo) {
  EXPECT_TRUE(BroadcastsTo({3}, {2, 3}));
  EXPECT_TRUE(BroadcastsTo({1, 3}, {2, 3}));
  EXPECT_FALSE(BroadcastsTo({2}, {2, 3}));
  EXPECT_FALSE(BroadcastsTo({2, 3}, {3}));
}

TEST(BroadcastTest, AddBiasPattern) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias({3}, {10, 20, 30});
  Tensor y = Add(x, bias);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 11.0f);
  EXPECT_FLOAT_EQ(y.at({1, 2}), 36.0f);
}

TEST(BroadcastTest, MulColumnBroadcast) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col({2, 1}, {2, 10});
  Tensor y = Mul(x, col);
  EXPECT_FLOAT_EQ(y.at({0, 2}), 6.0f);
  EXPECT_FLOAT_EQ(y.at({1, 0}), 40.0f);
}

TEST(BroadcastTest, ReduceToShapeIsAdjoint) {
  Rng rng(5);
  Tensor g = Tensor::Uniform({2, 3, 4}, -1, 1, rng);
  Tensor reduced = ReduceToShape(g, {3, 1});
  EXPECT_EQ(reduced.shape(), (Shape{3, 1}));
  // Entry (j, 0) must equal the sum over dims 0 and 2.
  float expected = 0.0f;
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t k = 0; k < 4; ++k) expected += g.at({i, 1, k});
  EXPECT_NEAR(reduced.at({1, 0}), expected, 1e-5f);
}

// Uninitialized hands out a buffer of the right shape that a kernel then
// overwrites; sanitizer builds poison it with one fixed quiet NaN so a
// missed element shows up in the bitwise tests. Tensor(shape) stays zeroed.
TEST(TensorTest, UninitializedHasShapeAndIsPoisonedUnderSanitizers) {
  Tensor t = Tensor::Uninitialized({3, 5});
  EXPECT_EQ(t.shape(), (Shape{3, 5}));
  EXPECT_EQ(t.numel(), 15);
#ifdef KT_POISON_UNINITIALIZED
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_EQ(std::bit_cast<uint32_t>(t.flat(i)), 0x7FC0DEADu) << i;
#endif
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = static_cast<float>(i);
  EXPECT_FLOAT_EQ(t.at({2, 4}), 14.0f);
  EXPECT_EQ(Tensor::Uninitialized({0, 4}).numel(), 0);
  Tensor z({4, 4});
  for (int64_t i = 0; i < z.numel(); ++i)
    EXPECT_EQ(std::bit_cast<uint32_t>(z.flat(i)), 0u) << i;
}

// ---- Elementwise ops ----

TEST(OpsTest, UnaryFunctions) {
  Tensor x({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(x).flat(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).flat(2), 2.0f);
  EXPECT_NEAR(Sigmoid(x).flat(1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(x).flat(2), std::tanh(2.0f), 1e-6f);
  EXPECT_NEAR(Exp(x).flat(0), std::exp(-1.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Abs(x).flat(0), 1.0f);
  EXPECT_FLOAT_EQ(Neg(x).flat(2), -2.0f);
}

TEST(OpsTest, GreaterEqualMask) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {2, 2, 2});
  Tensor m = GreaterEqualMask(a, b);
  EXPECT_FLOAT_EQ(m.flat(0), 0.0f);
  EXPECT_FLOAT_EQ(m.flat(1), 1.0f);
  EXPECT_FLOAT_EQ(m.flat(2), 1.0f);
}

// The dropout and ReLU-backward loops pick their factor with a bit mask.
// That must be the ternary's float for every x, special values included,
// both one element at a time and in a loop the compiler vectorizes.
TEST(OpsTest, SelectOrZeroMatchesTernaryBitwise) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {
      0.0f,    -0.0f,   denorm, -denorm, 3e-39f, -3e-39f, inf,
      -inf,    std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      1.0f,    -1.0f,   0.37f,  -2.5f,   1e30f,  -1e-30f, 65504.0f};
  std::vector<float> scales = {1.0f};
  for (float p : {0.1f, 0.2f}) scales.push_back(1.0f / (1.0f - p));
  auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
  for (float s : scales) {
    // Every x with both keep values, laid out for a vectorized loop.
    std::vector<float> x;
    std::vector<uint8_t> keep;
    for (int rep = 0; rep < 5; ++rep) {
      for (float v : xs) {
        x.push_back(v);
        keep.push_back(static_cast<uint8_t>((rep + keep.size()) % 2));
      }
    }
    std::vector<float> masked(x.size()), ternary(x.size());
    for (size_t i = 0; i < x.size(); ++i)
      masked[i] = x[i] * SelectOrZero(keep[i], s);
    for (size_t i = 0; i < x.size(); ++i)
      ternary[i] = x[i] * (keep[i] ? s : 0.0f);
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(bits(masked[i]), bits(ternary[i]))
          << "x=" << x[i] << " keep=" << int{keep[i]} << " s=" << s;
    }
    EXPECT_EQ(bits(SelectOrZero(true, s)), bits(s));
    EXPECT_EQ(bits(SelectOrZero(false, s)), 0u);  // +0, never -0
  }
}

// ---- Matrix products ----

TEST(MatMulTest, Known2x2) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 50.0f);
}

TEST(MatMulTest, MatchesNaiveReference) {
  Rng rng(7);
  const int64_t m = 9, k = 13, n = 7;
  Tensor a = Tensor::Uniform({m, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, n}, -1, 1, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float expected = 0.0f;
      for (int64_t p = 0; p < k; ++p) expected += a.at({i, p}) * b.at({p, j});
      EXPECT_NEAR(c.at({i, j}), expected, 1e-4f);
    }
  }
}

TEST(MatMulTest, BatchMatMul) {
  Rng rng(9);
  Tensor a = Tensor::Uniform({3, 2, 4}, -1, 1, rng);
  Tensor b = Tensor::Uniform({3, 4, 5}, -1, 1, rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  // Batch 1 must equal the standalone 2-D product.
  Tensor a1 = a.Slice(0, 1, 2).Reshape({2, 4});
  Tensor b1 = b.Slice(0, 1, 2).Reshape({4, 5});
  Tensor c1 = c.Slice(0, 1, 2).Reshape({2, 5});
  EXPECT_TRUE(c1.AllClose(MatMul(a1, b1), 1e-4f));
}

TEST(GemmTest, TransposedVariantsAgree) {
  Rng rng(11);
  const int64_t m = 5, k = 6, n = 4;
  Tensor a = Tensor::Uniform({m, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, n}, -1, 1, rng);
  Tensor expected = MatMul(a, b);

  // GemmTransA: pass a^T stored as [k, m].
  Tensor at = a.TransposeLast2();
  Tensor c1 = Tensor::Zeros({m, n});
  GemmTransAAccumulate(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_TRUE(c1.AllClose(expected, 1e-4f));

  // GemmTransB: pass b^T stored as [n, k].
  Tensor bt = b.TransposeLast2();
  Tensor c2 = Tensor::Zeros({m, n});
  GemmTransBAccumulate(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_TRUE(c2.AllClose(expected, 1e-4f));
}

// ---- Reductions & softmax ----

TEST(ReduceTest, SumMeanAll) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(SumAll(t).item(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(t).item(), 2.5f);
}

TEST(ReduceTest, SumAlongDims) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(t, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.flat(0), 5.0f);
  Tensor s1 = Sum(t, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.flat(1), 15.0f);
  Tensor m1 = Mean(t, -1);
  EXPECT_FLOAT_EQ(m1.flat(0), 2.0f);
}

TEST(ReduceTest, MaxLastDimWithArgmax) {
  Tensor t({2, 3}, {1, 9, 3, 4, 2, 8});
  std::vector<int64_t> argmax;
  Tensor m = MaxLastDim(t, &argmax);
  EXPECT_FLOAT_EQ(m.flat(0), 9.0f);
  EXPECT_FLOAT_EQ(m.flat(1), 8.0f);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 2);
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  Rng rng(13);
  Tensor t = Tensor::Uniform({4, 6}, -5, 5, rng);
  Tensor s = SoftmaxLastDim(t);
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 6; ++c) total += s.at({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  // Softmax is monotone: argmax is preserved.
  std::vector<int64_t> before, after;
  MaxLastDim(t, &before);
  MaxLastDim(s, &after);
  EXPECT_EQ(before, after);
}

TEST(SoftmaxTest, StableForLargeInputs) {
  Tensor t({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxLastDim(t);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s.flat(i), 1.0f / 3.0f, 1e-5f);
}

// ---- Property-style parameterized sweep over broadcast shapes ----

struct BroadcastCase {
  Shape a, b, expected;
};

// Names each case after its operand shapes ("2x1x4+3x1", "scalar+2x2").
// Without it gtest prints the raw bytes of the three vectors, heap pointers
// included, so the discovered test names changed with every build.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  auto print_shape = [os](const Shape& s) {
    if (s.empty()) {
      *os << "scalar";
      return;
    }
    for (size_t i = 0; i < s.size(); ++i) *os << (i ? "x" : "") << s[i];
  };
  print_shape(c.a);
  *os << "+";
  print_shape(c.b);
}

class BroadcastShapeSweep : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastShapeSweep, AddProducesExpectedShapeAndValues) {
  const BroadcastCase& c = GetParam();
  Rng rng(17);
  Tensor a = Tensor::Uniform(c.a, -2, 2, rng);
  Tensor b = Tensor::Uniform(c.b, -2, 2, rng);
  Tensor sum = Add(a, b);
  EXPECT_EQ(sum.shape(), c.expected);
  // Commutativity under broadcasting.
  EXPECT_TRUE(sum.AllClose(Add(b, a)));
  // Sub(a+b, b) recovers a broadcast to the output shape.
  Tensor recovered = Sub(sum, b);
  Tensor a_broadcast = Add(a, Tensor::Zeros(c.expected));
  EXPECT_TRUE(recovered.AllClose(a_broadcast, 1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastShapeSweep,
    ::testing::Values(BroadcastCase{{2, 3}, {2, 3}, {2, 3}},
                      BroadcastCase{{2, 3}, {3}, {2, 3}},
                      BroadcastCase{{2, 1, 4}, {3, 1}, {2, 3, 4}},
                      BroadcastCase{{1}, {5, 5}, {5, 5}},
                      BroadcastCase{{4, 1}, {1, 6}, {4, 6}},
                      BroadcastCase{{}, {2, 2}, {2, 2}}));

// ---- Bitwise sweep: strided kernels vs the loops they replaced ----
//
// BinaryOp's broadcast path, Sum's 8-row interleave and Sum's backward
// expansion promise the old loops' exact bits: every output element is the
// same expression over the same inputs in the same order. The references
// below restate the replaced loops.

// The per-element odometer BinaryOp: one rank-deep index increment per
// output element, input offsets tracked through broadcast strides.
Tensor OdometerBinaryOp(const Tensor& a, const Tensor& b,
                        const std::function<float(float, float)>& fn) {
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  auto strides = [&out_shape](const Shape& shape) {
    std::vector<int64_t> base(shape.size(), 1);
    for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i)
      base[i] = base[i + 1] * shape[i + 1];
    std::vector<int64_t> out(out_shape.size(), 0);
    const size_t offset = out_shape.size() - shape.size();
    for (size_t i = 0; i < shape.size(); ++i)
      if (shape[i] != 1) out[offset + i] = base[i];
    return out;
  };
  const auto sa = strides(a.shape());
  const auto sb = strides(b.shape());
  Tensor out(out_shape);
  const size_t rank = out_shape.size();
  std::vector<int64_t> idx(rank, 0);
  int64_t ia = 0, ib = 0;
  for (int64_t flat = 0; flat < out.numel(); ++flat) {
    out.data()[flat] = fn(a.data()[ia], b.data()[ib]);
    for (size_t d = rank; d-- > 0;) {
      ++idx[d];
      ia += sa[d];
      ib += sb[d];
      if (idx[d] < out_shape[d]) break;
      ia -= sa[d] * out_shape[d];
      ib -= sb[d] * out_shape[d];
      idx[d] = 0;
    }
  }
  return out;
}

// The single-loop Sum: out[o, i] += src[o, j, i] for j ascending.
Tensor SerialSum(const Tensor& a, int64_t d, bool keepdim) {
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < d; ++i) outer *= a.size(i);
  for (int64_t i = d + 1; i < a.dim(); ++i) inner *= a.size(i);
  Shape out_shape = a.shape();
  if (keepdim) {
    out_shape[static_cast<size_t>(d)] = 1;
  } else {
    out_shape.erase(out_shape.begin() + d);
  }
  Tensor out(out_shape);
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t j = 0; j < a.size(d); ++j)
      for (int64_t i = 0; i < inner; ++i)
        out.data()[o * inner + i] += a.data()[(o * a.size(d) + j) * inner + i];
  return out;
}

bool BitIdentical(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         (x.numel() == 0 ||
          std::memcmp(x.data(), y.data(),
                      sizeof(float) * static_cast<size_t>(x.numel())) == 0);
}

// Uniform values with -0.0, +0.0, NaN, +inf and (unless `with_neg_inf` is
// false) -inf mixed in at seed-dependent positions.
Tensor SpecialValues(const Shape& shape, uint64_t seed,
                     bool with_neg_inf = true) {
  Rng rng(seed);
  Tensor t = Tensor::Uniform(shape, -2, 2, rng);
  const float specials[] = {-0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  const uint64_t num_specials = with_neg_inf ? 5 : 4;
  for (int64_t i = 0; i < t.numel(); ++i) {
    const uint64_t pick = (static_cast<uint64_t>(i) * 7 + seed) % 13;
    if (pick < num_specials) t.data()[i] = specials[pick];
  }
  return t;
}

TEST(KernelBitwiseSweep, BinaryOpsMatchOdometerReference) {
  using Op = Tensor (*)(const Tensor&, const Tensor&);
  const std::vector<std::pair<Op, std::function<float(float, float)>>> ops = {
      {&Add, [](float x, float y) { return x + y; }},
      {&Sub, [](float x, float y) { return x - y; }},
      {&Mul, [](float x, float y) { return x * y; }},
      {&Div, [](float x, float y) { return x / y; }},
      {&Maximum, [](float x, float y) { return std::max(x, y); }},
      {&Minimum, [](float x, float y) { return std::min(x, y); }},
      {&GreaterEqualMask,
       [](float x, float y) { return x >= y ? 1.0f : 0.0f; }},
  };
  // B, T, d of the SAKT attention and LayerNorm patterns.
  const int64_t B = 3, T = 7, D = 5;
  const std::vector<std::pair<Shape, Shape>> shapes = {
      {{}, {}},                      // rank 0
      {{}, {2, 3}},                  // scalar against a matrix
      {{1, 1}, {1}},                 // every dim size 1
      {{0, 3}, {3}},                 // size-0 dims
      {{2, 0}, {2, 1}},
      {{4, 33}, {4, 33}},            // same shape
      {{3}, {2, 3}},                 // mismatched ranks
      {{2, 1, 4}, {3, 1}},           // broadcasts on both sides
      {{4, 1}, {1, 6}},
      {{5, 9}, {5, 1}},              // innermost-dim broadcast
      {{2, 3, 1}, {2, 3, 4}},
      {{B, T, T}, {1, T, T}},        // SAKT patterns
      {{B, T, T}, {1, T, 1}},
      {{B, T, D}, {B, T, 1}},
      {{B, T, D}, {D}},
      {{2, 3, 4, 5}, {3, 1, 5}},     // odometer over two outer dims
  };
  for (const auto& [sa, sb] : shapes) {
    // Both operand orders, so each side plays the broadcast one.
    for (const auto& [x_shape, y_shape] :
         {std::pair{sa, sb}, std::pair{sb, sa}}) {
      const Tensor x = SpecialValues(x_shape, 3);
      const Tensor y = SpecialValues(y_shape, 5);
      for (size_t k = 0; k < ops.size(); ++k) {
        EXPECT_TRUE(BitIdentical(ops[k].first(x, y),
                                 OdometerBinaryOp(x, y, ops[k].second)))
            << "op " << k << " on " << ShapeToString(x_shape) << " and "
            << ShapeToString(y_shape);
      }
    }
  }
}

TEST(KernelBitwiseSweep, SumMatchesSerialReference) {
  std::vector<Shape> shapes = {{6}, {0}, {3, 5}, {2, 0, 3}, {2, 3, 4},
                               {3, 1, 5, 2}, {4, 9, 11}};
  // inner == 1 with every block/tail split of the 8-row interleave.
  for (int64_t outer : {0, 1, 7, 8, 9, 17}) {
    shapes.push_back({outer, 13});
    shapes.push_back({outer, 1});
  }
  shapes.push_back({8, 0});
  shapes.push_back({3, 3, 5});
  for (const Shape& shape : shapes) {
    // No -inf: inf + -inf makes a NaN with the sign bit set, and adding
    // that to a +NaN keeps whichever operand the compiler placed first, so
    // the NaN's sign says nothing about summation order.
    Rng rng(21);
    const std::vector<Tensor> inputs = {
        Tensor::Uniform(shape, -2, 2, rng),
        SpecialValues(shape, 7, /*with_neg_inf=*/false),
        Tensor::Full(shape, -0.0f)};
    for (const Tensor& x : inputs) {
      for (int64_t d = 0; d < x.dim(); ++d) {
        for (bool keepdim : {false, true}) {
          EXPECT_TRUE(BitIdentical(Sum(x, d, keepdim),
                                   SerialSum(x, d, keepdim)))
              << ShapeToString(shape) << " dim " << d << " keepdim "
              << keepdim;
        }
      }
    }
  }
}

// Sum's backward repeats the upstream gradient along the summed dim. The
// gradient carries inf and NaN but no -0.0: the backward pass adds it into
// zeroed grad buffers, which turns -0.0 into +0.0, so a plain copy would
// not be the reference.
TEST(KernelBitwiseSweep, SumBackwardMatchesMemcpyExpansion) {
  const std::vector<Shape> shapes = {{9, 6}, {17, 1}, {2, 3, 4}, {3, 0, 2},
                                     {5}};
  for (const Shape& shape : shapes) {
    for (int64_t d = 0; d < static_cast<int64_t>(shape.size()); ++d) {
      for (bool keepdim : {false, true}) {
        Rng rng(33);
        ag::Variable x =
            ag::Variable::Leaf(Tensor::Uniform(shape, -1, 1, rng), true);
        ag::Variable y = ag::Sum(x, d, keepdim);
        Tensor g = SpecialValues(y.value().shape(), 11);
        for (int64_t i = 0; i < g.numel(); ++i)
          if (std::signbit(g.data()[i]) && g.data()[i] == 0.0f)
            g.data()[i] = 0.5f;
        ag::SumAll(ag::Mul(y, ag::Variable::Leaf(g, false))).Backward();

        int64_t outer = 1, inner = 1;
        for (int64_t i = 0; i < d; ++i) outer *= shape[static_cast<size_t>(i)];
        for (size_t i = static_cast<size_t>(d) + 1; i < shape.size(); ++i)
          inner *= shape[i];
        const int64_t n = shape[static_cast<size_t>(d)];
        Tensor expected(shape);
        for (int64_t o = 0; o < outer && inner > 0; ++o)
          for (int64_t j = 0; j < n; ++j)
            std::memcpy(expected.data() + (o * n + j) * inner,
                        g.data() + o * inner,
                        sizeof(float) * static_cast<size_t>(inner));
        EXPECT_TRUE(BitIdentical(x.grad(), expected))
            << ShapeToString(shape) << " dim " << d << " keepdim " << keepdim;
      }
    }
  }
}

// ---- Tiled-vs-reference kernel equivalence ----
//
// The tiled/packed kernels promise the same bits as the serial reference
// loops for every shape: each C element is a single ascending-k accumulator
// chain in both families. Every sweep runs under each micro kernel the host
// can run (portable 4x8, AVX2 8x8, AVX-512 8x16 tiles), forced through
// the CPU probe's test hook; a kernel the CPU lacks is skipped.

struct MicroKernelCase {
  const char* name;
  cpu::Features features;
};

std::vector<MicroKernelCase> HostMicroKernels() {
  cpu::SetForTest(nullptr);
  const cpu::Features host = cpu::Get();
  std::vector<MicroKernelCase> kernels = {{"portable", cpu::Features{}}};
  cpu::Features features;
  if (host.avx2) {
    features.avx2 = true;
    kernels.push_back({"avx2", features});
  }
  if (host.avx2 && host.avx512f) {
    features.avx512f = true;
    kernels.push_back({"avx512f", features});
  }
  return kernels;
}

// Selects the micro kernel the tiled family runs (nullptr: the probed one).
void UseMicroKernel(const MicroKernelCase* kernel) {
  cpu::SetForTest(kernel != nullptr ? &kernel->features : nullptr);
}

// The sweep crosses awkward extents around the register tiles (4 and 8
// rows) and the 8/16-wide panels, the training prefix lengths T (5 ... 50),
// and empty dims, and checks tiled and auto against the reference result.
// The 64- and 65-row shapes with k = 64 and n = 65 sweep a whole 8-row
// tile stack plus a one-row edge over every panel width.
TEST(GemmKernelEquivalence, TiledAndAutoMatchReferenceBitForBit) {
  const GemmKernel previous_kernel = GetGemmKernel();
  const std::vector<int64_t> ms = {0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 17,
                                   23, 33, 47, 50, 64, 65};
  const std::vector<int64_t> ks = {0, 1, 3, 8, 17, 64};
  const std::vector<int64_t> ns = {0,  1,  4,  5,  7,  8,  9,  11, 15,
                                   16, 17, 23, 31, 33, 47, 50, 65};
  const std::vector<MicroKernelCase> micro_kernels = HostMicroKernels();
  Rng rng(97);
  auto fill = [&rng](std::vector<float>& v) {
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  };
  auto bits_equal = [](const std::vector<float>& x,
                       const std::vector<float>& y) {
    // Empty guard: data() of an empty vector may be null, and memcmp with a
    // null pointer is UB even for length 0.
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0);
  };
  for (int64_t m : ms) {
    for (int64_t k : ks) {
      for (int64_t n : ns) {
        std::vector<float> a(static_cast<size_t>(m * k));
        std::vector<float> b(static_cast<size_t>(k * n));
        std::vector<float> at(static_cast<size_t>(k * m));
        std::vector<float> bt(static_cast<size_t>(n * k));
        std::vector<float> seed(static_cast<size_t>(m * n));
        fill(a), fill(b), fill(at), fill(bt), fill(seed);

        struct Form {
          const char* name;
          std::function<void(std::vector<float>&)> run;
        };
        const std::vector<Form> forms = {
            {"Gemm",
             [&](std::vector<float>& out) {
               Gemm(a.data(), b.data(), out.data(), m, k, n);
             }},
            {"GemmAccumulate",
             [&](std::vector<float>& out) {
               out = seed;
               GemmAccumulate(a.data(), b.data(), out.data(), m, k, n);
             }},
            {"GemmTransAAccumulate",
             [&](std::vector<float>& out) {
               out = seed;
               GemmTransAAccumulate(at.data(), b.data(), out.data(), m, k, n);
             }},
            {"GemmTransBAccumulate",
             [&](std::vector<float>& out) {
               out = seed;
               GemmTransBAccumulate(a.data(), bt.data(), out.data(), m, k, n);
             }},
            {"GemmTransB",
             [&](std::vector<float>& out) {
               GemmTransB(a.data(), bt.data(), out.data(), m, k, n);
             }},
        };
        for (const Form& form : forms) {
          std::vector<float> reference(static_cast<size_t>(m * n));
          SetGemmKernel(GemmKernel::kReference);
          form.run(reference);
          for (const MicroKernelCase& micro : micro_kernels) {
            UseMicroKernel(&micro);
            for (GemmKernel kernel : {GemmKernel::kTiled, GemmKernel::kAuto}) {
              SetGemmKernel(kernel);
              std::vector<float> out(static_cast<size_t>(m * n));
              form.run(out);
              EXPECT_TRUE(bits_equal(out, reference))
                  << form.name << " " << m << "x" << k << "x" << n
                  << " diverges from the reference (kernel="
                  << GemmKernelName(kernel) << ", micro=" << micro.name
                  << ")";
            }
          }
        }
      }
    }
  }
  UseMicroKernel(nullptr);
  SetGemmKernel(previous_kernel);
}

// The banded entry point equals the full forms: kNN and kTransA wherever A
// is zero off the band, kTransB on the kept columns (the rest untouched),
// for both kernel families, every micro kernel, and bands that cross
// 8-row blocks.
TEST(GemmKernelEquivalence, BandedMatchesFullOnKeptRegion) {
  const GemmKernel previous_kernel = GetGemmKernel();
  const std::vector<MicroKernelCase> micro_kernels = HostMicroKernels();
  Rng rng(98);
  auto bits_equal = [](const std::vector<float>& x,
                       const std::vector<float>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0;
  };
  auto uniform = [&rng](size_t count) {
    std::vector<float> v(count);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    return v;
  };
  for (int64_t m : {1, 5, 7, 9, 11, 17, 23, 47, 50}) {
    for (int64_t k : {1, 5, 16, 33}) {
      for (int64_t n : {3, 5, 8, 16, 17, 47, 50}) {
        const int64_t blocks = (m + kGemmBandRows - 1) / kGemmBandRows;
        // k ranges for kNN/kTransA, whole-panel column ranges for kTransB.
        std::vector<int64_t> k_band, n_band;
        for (int64_t r = 0; r < blocks; ++r) {
          const int64_t lo = rng.UniformInt(k + 1);
          k_band.push_back(lo);
          k_band.push_back(lo + rng.UniformInt(k - lo + 1));
          const int64_t panels = (n + 7) / 8;
          const int64_t p0 = rng.UniformInt(panels + 1);
          const int64_t p1 = p0 + rng.UniformInt(panels - p0 + 1);
          n_band.push_back(std::min(n, p0 * 8));
          n_band.push_back(std::min(n, p1 * 8));
        }
        // A (and its [k, m] transpose) zero outside each row's k range.
        std::vector<float> a = uniform(static_cast<size_t>(m * k));
        std::vector<float> at(static_cast<size_t>(k * m));
        for (int64_t i = 0; i < m; ++i) {
          const int64_t r = i / kGemmBandRows;
          for (int64_t p = 0; p < k; ++p) {
            if (p < k_band[2 * r] || p >= k_band[2 * r + 1])
              a[i * k + p] = 0.0f;
            at[p * m + i] = a[i * k + p];
          }
        }
        const std::vector<float> b = uniform(static_cast<size_t>(k * n));
        const std::vector<float> bt = uniform(static_cast<size_t>(n * k));
        const std::vector<float> seed = uniform(static_cast<size_t>(m * n));
        for (const MicroKernelCase& micro : micro_kernels) {
          UseMicroKernel(&micro);
          for (GemmKernel kernel :
               {GemmKernel::kReference, GemmKernel::kTiled}) {
            SCOPED_TRACE(::testing::Message()
                         << m << "x" << k << "x" << n << " kernel="
                         << GemmKernelName(kernel) << " micro=" << micro.name);
            SetGemmKernel(kernel);
            std::vector<float> full(static_cast<size_t>(m * n), 0.0f);
            std::vector<float> banded = full;
            GemmAccumulate(a.data(), b.data(), full.data(), m, k, n);
            GemmBandedAccumulate(GemmForm::kNN, a.data(), b.data(),
                                 banded.data(), m, k, n, k_band.data());
            EXPECT_TRUE(bits_equal(banded, full)) << "kNN";

            std::fill(full.begin(), full.end(), 0.0f);
            std::fill(banded.begin(), banded.end(), 0.0f);
            GemmTransAAccumulate(at.data(), b.data(), full.data(), m, k, n);
            GemmBandedAccumulate(GemmForm::kTransA, at.data(), b.data(),
                                 banded.data(), m, k, n, k_band.data());
            EXPECT_TRUE(bits_equal(banded, full)) << "kTransA";

            full = seed;
            banded = seed;
            GemmTransBAccumulate(a.data(), bt.data(), full.data(), m, k, n);
            GemmBandedAccumulate(GemmForm::kTransB, a.data(), bt.data(),
                                 banded.data(), m, k, n, n_band.data());
            for (int64_t i = 0; i < m; ++i) {
              const int64_t r = i / kGemmBandRows;
              for (int64_t j = 0; j < n; ++j) {
                const bool kept = j >= n_band[2 * r] && j < n_band[2 * r + 1];
                const float want = kept ? full[i * n + j] : seed[i * n + j];
                EXPECT_EQ(
                    std::memcmp(&banded[i * n + j], &want, sizeof(float)), 0)
                    << "kTransB (" << i << ", " << j << ") kept=" << kept;
              }
            }
          }
        }
      }
    }
  }
  UseMicroKernel(nullptr);
  SetGemmKernel(previous_kernel);
}

// Operands for the store-form and in-place TransA sweeps: uniform values
// with about a quarter of them +0 or -0.
std::vector<float> SignedZeroOperand(Rng& rng, int64_t count) {
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) {
    const int64_t pick = rng.UniformInt(8);
    x = pick == 0 ? 0.0f
        : pick == 1 ? -0.0f
                    : static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return v;
}

bool BitsEqual(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0;
}

// Dims for the store-form and TransA sweeps: around the 8-row tile and the
// 16-wide panel, two training T values, and k from one step to several
// TransA k-blocks (1533 spans six).
const std::vector<int64_t> kSweepRows = {1, 5, 9, 16, 17, 33, 47};
const std::vector<int64_t> kSweepDepths = {1, 7, 300, 1533};
const std::vector<int64_t> kSweepCols = {3, 8, 13, 15, 16, 17, 31, 50};

// Gemm's tiled family stores each tile's chain from +0 instead of zeroing
// C and accumulating. Whatever C held before (-0, ordinary values), the
// result is the reference's zero-filled C plus GemmAccumulate, for both
// families and every micro kernel.
TEST(GemmKernelEquivalence, StoreFormMatchesZeroFillThenAccumulate) {
  const GemmKernel previous_kernel = GetGemmKernel();
  const std::vector<MicroKernelCase> micro_kernels = HostMicroKernels();
  Rng rng(99);
  for (int64_t m : kSweepRows) {
    for (int64_t k : kSweepDepths) {
      for (int64_t n : kSweepCols) {
        const std::vector<float> a = SignedZeroOperand(rng, m * k);
        const std::vector<float> b = SignedZeroOperand(rng, k * n);
        SetGemmKernel(GemmKernel::kReference);
        std::vector<float> expected(static_cast<size_t>(m * n), 0.0f);
        GemmAccumulate(a.data(), b.data(), expected.data(), m, k, n);
        for (GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled,
                                  GemmKernel::kAuto}) {
          SetGemmKernel(kernel);
          for (const MicroKernelCase& micro : micro_kernels) {
            UseMicroKernel(&micro);
            for (float preload : {-0.0f, 3.5f}) {
              std::vector<float> c(static_cast<size_t>(m * n), preload);
              Gemm(a.data(), b.data(), c.data(), m, k, n);
              EXPECT_TRUE(BitsEqual(c, expected))
                  << m << "x" << k << "x" << n
                  << " kernel=" << GemmKernelName(kernel)
                  << " micro=" << micro.name << " preload=" << preload;
            }
          }
        }
      }
    }
  }
  UseMicroKernel(nullptr);
  SetGemmKernel(previous_kernel);
}

// The store-form GemmTransB equals zero-filling C and calling
// GemmTransBAccumulate (the reference), whatever C held before: its dot
// chains start at +0, and a chain from +0 is never -0. Checked onto -0 and
// non-zero preloads, for both families and every micro kernel.
TEST(GemmKernelEquivalence, TransBStoreFormMatchesZeroFillThenAccumulate) {
  const GemmKernel previous_kernel = GetGemmKernel();
  const std::vector<MicroKernelCase> micro_kernels = HostMicroKernels();
  Rng rng(101);
  for (int64_t m : kSweepRows) {
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{300}}) {
      for (int64_t n : kSweepCols) {
        const std::vector<float> a = SignedZeroOperand(rng, m * k);
        const std::vector<float> bt = SignedZeroOperand(rng, n * k);
        SetGemmKernel(GemmKernel::kReference);
        std::vector<float> expected(static_cast<size_t>(m * n), 0.0f);
        GemmTransBAccumulate(a.data(), bt.data(), expected.data(), m, k, n);
        for (GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled,
                                  GemmKernel::kAuto}) {
          SetGemmKernel(kernel);
          for (const MicroKernelCase& micro : micro_kernels) {
            UseMicroKernel(&micro);
            for (float preload : {-0.0f, 3.5f}) {
              std::vector<float> c(static_cast<size_t>(m * n), preload);
              GemmTransB(a.data(), bt.data(), c.data(), m, k, n);
              EXPECT_TRUE(BitsEqual(c, expected))
                  << m << "x" << k << "x" << n
                  << " kernel=" << GemmKernelName(kernel)
                  << " micro=" << micro.name << " preload=" << preload;
            }
          }
        }
      }
    }
  }
  UseMicroKernel(nullptr);
  SetGemmKernel(previous_kernel);
}

// The tiled TransA form reads A [k, m] and B [k, n] in place, k-blocked. It
// must equal the packed form — A transposed into rows, then the packed-
// panel GemmAccumulate — and the reference, onto C preloaded with -0 and
// with ordinary values, for both families and every micro kernel.
TEST(GemmKernelEquivalence, TransAInPlaceMatchesPackedAndReference) {
  const GemmKernel previous_kernel = GetGemmKernel();
  const std::vector<MicroKernelCase> micro_kernels = HostMicroKernels();
  Rng rng(100);
  for (int64_t m : kSweepRows) {
    for (int64_t k : kSweepDepths) {
      for (int64_t n : kSweepCols) {
        const std::vector<float> at = SignedZeroOperand(rng, k * m);
        const std::vector<float> b = SignedZeroOperand(rng, k * n);
        std::vector<float> a(static_cast<size_t>(m * k));  // A^T, [m, k]
        for (int64_t p = 0; p < k; ++p)
          for (int64_t i = 0; i < m; ++i) a[i * k + p] = at[p * m + i];
        std::vector<float> nonzero = SignedZeroOperand(rng, m * n);
        for (const std::vector<float>& seed :
             {std::vector<float>(static_cast<size_t>(m * n), -0.0f),
              nonzero}) {
          SetGemmKernel(GemmKernel::kReference);
          std::vector<float> reference = seed;
          GemmTransAAccumulate(at.data(), b.data(), reference.data(), m, k, n);
          for (const MicroKernelCase& micro : micro_kernels) {
            UseMicroKernel(&micro);
            SetGemmKernel(GemmKernel::kTiled);
            std::vector<float> packed = seed;
            GemmAccumulate(a.data(), b.data(), packed.data(), m, k, n);
            EXPECT_TRUE(BitsEqual(packed, reference))
                << m << "x" << k << "x" << n << " packed micro=" << micro.name;
            for (GemmKernel kernel :
                 {GemmKernel::kReference, GemmKernel::kTiled}) {
              SetGemmKernel(kernel);
              std::vector<float> c = seed;
              GemmTransAAccumulate(at.data(), b.data(), c.data(), m, k, n);
              EXPECT_TRUE(BitsEqual(c, reference))
                  << m << "x" << k << "x" << n
                  << " kernel=" << GemmKernelName(kernel)
                  << " micro=" << micro.name;
            }
          }
        }
      }
    }
  }
  UseMicroKernel(nullptr);
  SetGemmKernel(previous_kernel);
}

// GEMM never forks, so serve shards and pool workers run it on several
// threads at once. Four threads each run every entry point 20 times on
// their own shape (64 x 64 x 65 is above 2^18 multiply-adds; 1 x 40 x 33
// stays on the reference family), and every result must equal the serial
// run's bits. This drives the thread-local B pack buffer and the cached
// micro kernel pick from concurrent callers.
TEST(GemmKernelEquivalence, ConcurrentCallersMatchSerial) {
  const GemmKernel previous_kernel = GetGemmKernel();
  SetGemmKernel(GemmKernel::kAuto);
  struct Case {
    int64_t m, k, n;
    std::vector<float> a, b, at, bt, seed;
    std::vector<int64_t> band;  // k range per 8-row block, for kNN
  };
  Rng rng(102);
  std::vector<Case> cases;
  const int64_t shapes[][3] = {
      {64, 64, 65}, {17, 33, 50}, {9, 300, 13}, {1, 40, 33}};
  for (const auto& [m, k, n] : shapes) {
    Case c{m, k, n,
           SignedZeroOperand(rng, m * k), SignedZeroOperand(rng, k * n),
           SignedZeroOperand(rng, k * m), SignedZeroOperand(rng, n * k),
           SignedZeroOperand(rng, m * n), {}};
    for (int64_t r = 0; r < (m + kGemmBandRows - 1) / kGemmBandRows; ++r) {
      c.band.push_back(r % k);
      c.band.push_back(k - r % 3);
    }
    cases.push_back(std::move(c));
  }
  auto run_all = [](const Case& c) {
    std::vector<std::vector<float>> out(5, c.seed);
    Gemm(c.a.data(), c.b.data(), out[0].data(), c.m, c.k, c.n);
    GemmAccumulate(c.a.data(), c.b.data(), out[1].data(), c.m, c.k, c.n);
    GemmTransAAccumulate(c.at.data(), c.b.data(), out[2].data(), c.m, c.k,
                         c.n);
    GemmTransBAccumulate(c.a.data(), c.bt.data(), out[3].data(), c.m, c.k,
                         c.n);
    GemmBandedAccumulate(GemmForm::kNN, c.a.data(), c.b.data(),
                         out[4].data(), c.m, c.k, c.n, c.band.data());
    return out;
  };
  std::vector<std::vector<std::vector<float>>> serial;
  for (const Case& c : cases) serial.push_back(run_all(c));

  std::vector<int> mismatches(cases.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < cases.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<std::vector<float>> out = run_all(cases[t]);
        for (size_t f = 0; f < out.size(); ++f)
          mismatches[t] += BitsEqual(out[f], serial[t][f]) ? 0 : 1;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < cases.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0)
        << cases[t].m << "x" << cases[t].k << "x" << cases[t].n;
  }
  SetGemmKernel(previous_kernel);
}

}  // namespace
}  // namespace kt

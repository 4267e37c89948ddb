#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"

namespace kt {
namespace {

// One loop of a broadcast loop nest: its extent and each operand's element
// stride along it (0 where that operand is broadcast).
struct LoopDim {
  int64_t size, stride_a, stride_b;
};

// The loop nest that broadcasts `a` and `b` over `out_shape`, outermost
// first. Size-1 dims are dropped, and adjacent dims merge wherever both
// operands' strides chain, so [B,T,T]+[1,T,T] becomes {B: T*T, 0} and
// {T*T: 1, 1}. The output is row-major over the kept dims, so it stays
// contiguous across every merge. A single element gets one dim {1: 1, 1}.
std::vector<LoopDim> BroadcastLoopNest(const Shape& a, const Shape& b,
                                       const Shape& out_shape) {
  std::vector<LoopDim> dims;
  int64_t stride_a = 1, stride_b = 1;
  for (size_t k = 0; k < out_shape.size(); ++k) {  // innermost first
    const int64_t n = out_shape[out_shape.size() - 1 - k];
    const int64_t da = k < a.size() ? a[a.size() - 1 - k] : 1;
    const int64_t db = k < b.size() ? b[b.size() - 1 - k] : 1;
    if (n != 1) {
      const int64_t sa = da == 1 ? 0 : stride_a;
      const int64_t sb = db == 1 ? 0 : stride_b;
      if (!dims.empty() && sa == dims.back().stride_a * dims.back().size &&
          sb == dims.back().stride_b * dims.back().size) {
        dims.back().size *= n;
      } else {
        dims.push_back({n, sa, sb});
      }
    }
    stride_a *= da;
    stride_b *= db;
  }
  if (dims.empty()) dims.push_back({1, 1, 1});
  std::reverse(dims.begin(), dims.end());
  return dims;
}

// out[i] = fn(a[i], b[i]) under broadcasting. Each output element is one
// call of `fn` on the same two input elements whatever the loop structure,
// so the result is bit-identical to a per-element walk of the index space;
// the structure only decides what vectorizes. An odometer walks the outer
// loops and a tight loop runs the innermost one.
template <typename Fn>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fn fn) {
  Tensor out = Tensor::Uninitialized(
      a.SameShape(b) ? a.shape() : BroadcastShape(a.shape(), b.shape()));
  if (out.numel() == 0) return out;
  const std::vector<LoopDim> dims =
      BroadcastLoopNest(a.shape(), b.shape(), out.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Every dim inside the innermost kept one has size 1, so each operand's
  // stride along it is 1 or 0, and not 0 for both (the dim has size > 1).
  const LoopDim inner = dims.back();
  const int64_t n = inner.size;
  auto row = [&](float* o, const float* x, const float* y) {
    if (inner.stride_a == inner.stride_b) {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(x[i], y[i]);
    } else if (inner.stride_b == 0) {
      const float s = *y;
      for (int64_t i = 0; i < n; ++i) o[i] = fn(x[i], s);
    } else {
      const float s = *x;
      for (int64_t i = 0; i < n; ++i) o[i] = fn(s, y[i]);
    }
  };
  const size_t outer_rank = dims.size() - 1;
  std::vector<int64_t> idx(outer_rank, 0);
  int64_t ia = 0, ib = 0;
  const int64_t rows = out.numel() / n;
  for (int64_t r = 0; r < rows; ++r) {
    row(po + r * n, pa + ia, pb + ib);
    for (size_t d = outer_rank; d-- > 0;) {
      ia += dims[d].stride_a;
      ib += dims[d].stride_b;
      if (++idx[d] < dims[d].size) break;
      ia -= dims[d].stride_a * dims[d].size;
      ib -= dims[d].stride_b * dims[d].size;
      idx[d] = 0;
    }
  }
  return out;
}

template <typename Fn>
Tensor UnaryOp(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da =
        i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db =
        i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    KT_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = da == 1 ? db : da;  // a size-0 dim broadcasts to 0, not 1
  }
  return out;
}

bool BroadcastsTo(const Shape& from, const Shape& to) {
  if (from.size() > to.size()) return false;
  const size_t offset = to.size() - from.size();
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i] != 1 && from[i] != to[offset + i]) return false;
  }
  return true;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  KT_CHECK(BroadcastsTo(target, t.shape()))
      << ShapeToString(target) << " does not broadcast to "
      << ShapeToString(t.shape());
  if (t.shape() == target) return t.Clone();

  // Sum out leading extra dims first, then dims where target has size 1.
  Tensor cur = t;
  while (cur.dim() > static_cast<int64_t>(target.size())) {
    cur = Sum(cur, 0, /*keepdim=*/false);
  }
  for (int64_t d = 0; d < cur.dim(); ++d) {
    if (target[static_cast<size_t>(d)] == 1 && cur.size(d) != 1) {
      cur = Sum(cur, d, /*keepdim=*/true);
    }
  }
  return cur.Reshape(target);
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return std::max(x, y); });
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return std::min(x, y); });
}
Tensor GreaterEqualMask(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x >= y ? 1.0f : 0.0f; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(x); });
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  return UnaryOp(a, fn);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  KT_CHECK_EQ(a.dim(), 2);
  KT_CHECK_EQ(b.dim(), 2);
  KT_CHECK_EQ(a.size(1), b.size(0))
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out = Tensor::Uninitialized(Shape{m, n});  // Gemm writes every C
  Gemm(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  KT_CHECK_GE(a.dim(), 2);
  KT_CHECK_EQ(a.dim(), b.dim());
  for (int64_t d = 0; d < a.dim() - 2; ++d) KT_CHECK_EQ(a.size(d), b.size(d));
  const int64_t m = a.size(-2), k = a.size(-1);
  KT_CHECK_EQ(b.size(-2), k)
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  const int64_t n = b.size(-1);
  const int64_t batch = a.numel() / (m * k);

  Shape out_shape = a.shape();
  out_shape[out_shape.size() - 1] = n;
  Tensor out = Tensor::Uninitialized(out_shape);  // Gemm writes every C
  for (int64_t i = 0; i < batch; ++i) {
    Gemm(a.data() + i * m * k, b.data() + i * k * n, out.data() + i * m * n,
         m, k, n);
  }
  return out;
}

Tensor SumAll(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += a.flat(i);
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& a) {
  KT_CHECK_GT(a.numel(), 0);
  return Tensor::Scalar(SumAll(a).item() / static_cast<float>(a.numel()));
}

Tensor Sum(const Tensor& a, int64_t d, bool keepdim) {
  if (d < 0) d += a.dim();
  KT_CHECK(d >= 0 && d < a.dim());
  const int64_t dim_size = a.size(d);
  int64_t outer = 1;
  for (int64_t i = 0; i < d; ++i) outer *= a.size(i);
  int64_t inner = 1;
  for (int64_t i = d + 1; i < a.dim(); ++i) inner *= a.size(i);

  Shape out_shape;
  for (int64_t i = 0; i < a.dim(); ++i) {
    if (i == d) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(i));
    }
  }
  Tensor out(out_shape);
  const float* src = a.data();
  float* dst = out.data();
  if (inner == 1) {
    // Each row is one serial chain 0 + s[0] + s[1] + ...; advancing eight
    // rows' chains together hides the add latency without reordering any.
    constexpr int64_t kRows = 8;
    int64_t o = 0;
    for (; o + kRows <= outer; o += kRows) {
      const float* s = src + o * dim_size;
      float acc[kRows] = {};
      for (int64_t j = 0; j < dim_size; ++j)
        for (int64_t r = 0; r < kRows; ++r) acc[r] += s[r * dim_size + j];
      for (int64_t r = 0; r < kRows; ++r) dst[o + r] = acc[r];
    }
    for (; o < outer; ++o) {
      const float* s = src + o * dim_size;
      float acc = 0.0f;
      for (int64_t j = 0; j < dim_size; ++j) acc += s[j];
      dst[o] = acc;
    }
    return out;
  }
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t j = 0; j < dim_size; ++j) {
      const float* s = src + (o * dim_size + j) * inner;
      float* t = dst + o * inner;
      for (int64_t i = 0; i < inner; ++i) t[i] += s[i];
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int64_t d, bool keepdim) {
  if (d < 0) d += a.dim();
  Tensor out = Sum(a, d, keepdim);
  out.MulInPlace(1.0f / static_cast<float>(a.size(d)));
  return out;
}

Tensor MaxLastDim(const Tensor& a, std::vector<int64_t>* argmax) {
  KT_CHECK_GE(a.dim(), 1);
  const int64_t cols = a.size(-1);
  KT_CHECK_GT(cols, 0);
  const int64_t rows = a.numel() / cols;
  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  Tensor out(out_shape);
  if (argmax) argmax->assign(static_cast<size_t>(rows), 0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* s = a.data() + r * cols;
    int64_t best = 0;
    for (int64_t c = 1; c < cols; ++c)
      if (s[c] > s[best]) best = c;
    out.flat(r) = s[best];
    if (argmax) (*argmax)[static_cast<size_t>(r)] = best;
  }
  return out;
}

void SoftmaxRow(const float* in, float* out, int64_t n) {
  // exp(z) is exactly 0.0f for every float z below -103.97, so entries this
  // far under the row maximum (masked ones sit near -1e9) skip the call
  // without changing a bit.
  constexpr float kExpZeroBelow = -128.0f;
  float max_val = in[0];
  for (int64_t c = 1; c < n; ++c) max_val = std::max(max_val, in[c]);
  float denom = 0.0f;
  for (int64_t c = 0; c < n; ++c) {
    const float z = in[c] - max_val;
    out[c] = z < kExpZeroBelow ? 0.0f : std::exp(z);
    denom += out[c];
  }
  const float inv = 1.0f / denom;
  for (int64_t c = 0; c < n; ++c) out[c] *= inv;
}

Tensor SoftmaxLastDim(const Tensor& a) {
  KT_CHECK_GE(a.dim(), 1);
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;
  Tensor out = Tensor::Uninitialized(a.shape());
  for (int64_t r = 0; r < rows; ++r)
    SoftmaxRow(a.data() + r * cols, out.data() + r * cols, cols);
  return out;
}

}  // namespace kt

#include "tensor/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

namespace kt {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    KT_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor() : Tensor(Shape{}) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(NumElements(shape_)),
      data_(std::make_shared<Storage>(static_cast<size_t>(numel_), 0.0f)) {}

Tensor::Tensor(Shape shape, const std::vector<float>& values)
    : shape_(std::move(shape)), numel_(NumElements(shape_)) {
  KT_CHECK_EQ(numel_, static_cast<int64_t>(values.size()))
      << "shape " << ShapeToString(shape_) << " vs " << values.size()
      << " values";
  data_ = std::make_shared<Storage>(values.begin(), values.end());
}

Tensor::Tensor(Shape shape, UninitializedTag)
    : shape_(std::move(shape)),
      numel_(NumElements(shape_)),
      data_(std::make_shared<Storage>(static_cast<size_t>(numel_))) {
#ifdef KT_POISON_UNINITIALIZED
  // A quiet NaN that no kernel computes by accident: an element a kernel
  // forgets to write reaches the bitwise tests as this NaN.
  std::fill(data_->begin(), data_->end(),
            std::bit_cast<float>(uint32_t{0x7FC0DEADu}));
#endif
}

Tensor Tensor::Uninitialized(Shape shape) {
  return Tensor(std::move(shape), UninitializedTag{});
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape{}};
  t.flat(0) = value;
  return t;
}

Tensor Tensor::Uniform(Shape shape, float lo, float hi, Rng& rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i)
    t.flat(i) = static_cast<float>(rng.Uniform(lo, hi));
  return t;
}

Tensor Tensor::Randn(Shape shape, float mean, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i)
    t.flat(i) = static_cast<float>(rng.Gaussian(mean, stddev));
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t(Shape{n});
  for (int64_t i = 0; i < n; ++i) t.flat(i) = static_cast<float>(i);
  return t;
}

int64_t Tensor::size(int64_t d) const {
  if (d < 0) d += dim();
  KT_CHECK(d >= 0 && d < dim()) << "dim " << d << " of " << ShapeToString(shape_);
  return shape_[static_cast<size_t>(d)];
}

// The two `at` overloads share index math via this helper.
namespace {
int64_t FlatIndex(const Shape& shape, std::initializer_list<int64_t> idx) {
  KT_CHECK_EQ(static_cast<int64_t>(idx.size()),
              static_cast<int64_t>(shape.size()));
  int64_t flat = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    KT_DCHECK(i >= 0 && i < shape[d]);
    flat = flat * shape[d] + i;
    ++d;
  }
  return flat;
}
}  // namespace

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return flat(FlatIndex(shape_, idx));
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return flat(FlatIndex(shape_, idx));
}

float Tensor::item() const {
  KT_CHECK_EQ(numel_, 1);
  return flat(0);
}

Tensor Tensor::Reshape(Shape new_shape) const {
  // Resolve a single -1 dimension.
  int64_t known = 1;
  int infer = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      KT_CHECK_EQ(infer, -1) << "at most one -1 dimension";
      infer = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    KT_CHECK_GT(known, 0);
    KT_CHECK_EQ(numel_ % known, 0);
    new_shape[static_cast<size_t>(infer)] = numel_ / known;
  }
  KT_CHECK_EQ(NumElements(new_shape), numel_)
      << ShapeToString(shape_) << " -> " << ShapeToString(new_shape);
  Tensor out = *this;  // shares data
  out.shape_ = std::move(new_shape);
  return out;
}

Tensor Tensor::Clone() const {
  Tensor out = Uninitialized(shape_);
  std::memcpy(out.data(), data(), sizeof(float) * static_cast<size_t>(numel_));
  return out;
}

Tensor Tensor::TransposeLast2() const {
  KT_CHECK_GE(dim(), 2);
  const int64_t rows = shape_[shape_.size() - 2];
  const int64_t cols = shape_[shape_.size() - 1];
  const int64_t batch = numel_ / (rows * cols);
  Shape out_shape = shape_;
  std::swap(out_shape[out_shape.size() - 2], out_shape[out_shape.size() - 1]);
  Tensor out = Uninitialized(out_shape);
  const float* src = data();
  float* dst = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* s = src + b * rows * cols;
    float* d = dst + b * rows * cols;
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t c = 0; c < cols; ++c) d[c * rows + r] = s[r * cols + c];
  }
  return out;
}

Tensor Tensor::Slice(int64_t d, int64_t start, int64_t end) const {
  if (d < 0) d += dim();
  KT_CHECK(d >= 0 && d < dim());
  const int64_t dim_size = shape_[static_cast<size_t>(d)];
  KT_CHECK(start >= 0 && start <= end && end <= dim_size)
      << "slice [" << start << ", " << end << ") of dim size " << dim_size;

  Shape out_shape = shape_;
  out_shape[static_cast<size_t>(d)] = end - start;
  Tensor out = Uninitialized(out_shape);

  // View the tensor as [outer, dim_size, inner] and copy contiguous spans.
  int64_t outer = 1;
  for (int64_t i = 0; i < d; ++i) outer *= shape_[static_cast<size_t>(i)];
  int64_t inner = 1;
  for (int64_t i = d + 1; i < dim(); ++i) inner *= shape_[static_cast<size_t>(i)];

  const int64_t span = (end - start) * inner;
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = data() + (o * dim_size + start) * inner;
    float* dst = out.data() + o * span;
    std::memcpy(dst, src, sizeof(float) * static_cast<size_t>(span));
  }
  return out;
}

Tensor Tensor::Concat(const std::vector<Tensor>& tensors, int64_t d) {
  KT_CHECK(!tensors.empty());
  const Tensor& first = tensors.front();
  int64_t axis = d < 0 ? d + first.dim() : d;
  KT_CHECK(axis >= 0 && axis < first.dim());

  int64_t total = 0;
  for (const Tensor& t : tensors) {
    KT_CHECK_EQ(t.dim(), first.dim());
    for (int64_t i = 0; i < first.dim(); ++i) {
      if (i != axis) KT_CHECK_EQ(t.size(i), first.size(i));
    }
    total += t.size(axis);
  }

  Shape out_shape = first.shape();
  out_shape[static_cast<size_t>(axis)] = total;
  Tensor out = Uninitialized(out_shape);

  int64_t outer = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= first.size(i);
  int64_t inner = 1;
  for (int64_t i = axis + 1; i < first.dim(); ++i) inner *= first.size(i);

  int64_t dst_offset = 0;  // running offset (in elements) within one outer row
  for (const Tensor& t : tensors) {
    const int64_t span = t.size(axis) * inner;
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = t.data() + o * span;
      float* dst = out.data() + o * total * inner + dst_offset;
      std::memcpy(dst, src, sizeof(float) * static_cast<size_t>(span));
    }
    dst_offset += span;
  }
  return out;
}

Tensor Tensor::IndexSelectRows(const Tensor& table,
                               const std::vector<int64_t>& indices) {
  KT_CHECK_EQ(table.dim(), 2);
  const int64_t rows = table.size(0);
  const int64_t cols = table.size(1);
  Tensor out =
      Uninitialized(Shape{static_cast<int64_t>(indices.size()), cols});
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    KT_CHECK(r >= 0 && r < rows) << "index " << r << " out of " << rows;
    std::memcpy(out.data() + static_cast<int64_t>(i) * cols,
                table.data() + r * cols,
                sizeof(float) * static_cast<size_t>(cols));
  }
  return out;
}

void Tensor::Fill(float value) {
  for (int64_t i = 0; i < numel_; ++i) flat(i) = value;
}

void Tensor::AddInPlace(const Tensor& other) {
  KT_CHECK(SameShape(other))
      << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0; i < numel_; ++i) dst[i] += src[i];
}

void Tensor::MulInPlace(float scalar) {
  float* dst = data();
  for (int64_t i = 0; i < numel_; ++i) dst[i] *= scalar;
}

bool Tensor::AllClose(const Tensor& other, float rtol, float atol) const {
  if (!SameShape(other)) return false;
  for (int64_t i = 0; i < numel_; ++i) {
    const float a = flat(i);
    const float b = other.flat(i);
    if (std::isnan(a) || std::isnan(b)) return false;
    if (std::fabs(a - b) > atol + rtol * std::fabs(b)) return false;
  }
  return true;
}

std::string Tensor::ToString(int64_t max_per_dim) const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min<int64_t>(numel_, max_per_dim * 4);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << flat(i);
  }
  if (n < numel_) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace kt

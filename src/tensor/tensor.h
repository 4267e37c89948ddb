// Dense float32 tensor with row-major contiguous storage.
//
// This is the numeric substrate under the autograd engine and every model in
// the repository. Design choices, deliberately simple for a CPU research
// library:
//   * storage is always contiguous row-major; slicing copies (no views),
//   * shapes are std::vector<int64_t>; a scalar is rank-0 with one element,
//   * data is shared via shared_ptr so Tensor is cheap to copy by value;
//     mutation through data() affects all copies. Autograd accumulates
//     gradients in place, so it adopts a tensor as a gradient buffer only
//     when StorageIsUnique() says no other copy can see that mutation,
//   * Tensor(shape) is zero-filled; Tensor::Uninitialized(shape) is not,
//     for kernels that write every element (DESIGN.md §9.7).
#ifndef KT_TENSOR_TENSOR_H_
#define KT_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/rng.h"

namespace kt {

using Shape = std::vector<int64_t>;

// Number of elements implied by `shape`.
int64_t NumElements(const Shape& shape);
// Human-readable "[2, 3]".
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  // Rank-0 scalar holding 0.
  Tensor();
  // Zero-initialized tensor of `shape`.
  explicit Tensor(Shape shape);
  // Copies `values` (numel(shape) of them).
  Tensor(Shape shape, const std::vector<float>& values);

  // A tensor of `shape` whose elements are unspecified until written. Only
  // for kernels that overwrite every element; anything that accumulates
  // into the buffer needs Tensor(shape). Sanitizer builds (KT_SANITIZE)
  // fill it with a quiet-NaN pattern, so a missed element shows up as a
  // NaN in the bitwise tests.
  static Tensor Uninitialized(Shape shape);

  // ---- Factories ----
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  // Uniform in [lo, hi).
  static Tensor Uniform(Shape shape, float lo, float hi, Rng& rng);
  // Gaussian(mean, stddev).
  static Tensor Randn(Shape shape, float mean, float stddev, Rng& rng);
  // 1-D tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n);

  // ---- Introspection ----
  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const { return numel_; }
  // True when this handle is the only one referencing its storage.
  bool StorageIsUnique() const { return data_.use_count() == 1; }

  float* data() { return data_->data(); }
  const float* data() const { return data_->data(); }

  // Element access for rank <= 4 convenience; bounds-checked in debug.
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;
  // Flat access.
  float& flat(int64_t i) {
    KT_DCHECK(i >= 0 && i < numel_);
    return (*data_)[static_cast<size_t>(i)];
  }
  float flat(int64_t i) const {
    KT_DCHECK(i >= 0 && i < numel_);
    return (*data_)[static_cast<size_t>(i)];
  }
  // Scalar value; requires numel() == 1.
  float item() const;

  // ---- Shape manipulation (Reshape shares storage; others copy) ----
  // Requires the same number of elements. One dimension may be -1 (inferred).
  Tensor Reshape(Shape new_shape) const;
  // Deep copy.
  Tensor Clone() const;
  // Swaps the last two dimensions (copying). Requires dim() >= 2.
  Tensor TransposeLast2() const;
  // Copies rows `start`..`end` (exclusive) along dimension `d`.
  Tensor Slice(int64_t d, int64_t start, int64_t end) const;
  // Concatenates along dimension `d`. All inputs must agree elsewhere.
  static Tensor Concat(const std::vector<Tensor>& tensors, int64_t d);
  // Gathers rows of a 2-D table: result[i, :] = table[indices[i], :].
  // `indices` values must be in [0, table.size(0)).
  static Tensor IndexSelectRows(const Tensor& table,
                                const std::vector<int64_t>& indices);

  // ---- Mutation helpers ----
  void Fill(float value);
  // this += other (same shape).
  void AddInPlace(const Tensor& other);
  void MulInPlace(float scalar);

  // ---- Comparison / debugging ----
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }
  // Max |a-b| <= atol + rtol*|b| elementwise.
  bool AllClose(const Tensor& other, float rtol = 1e-5f,
                float atol = 1e-6f) const;
  std::string ToString(int64_t max_per_dim = 8) const;

 private:
  struct UninitializedTag {};
  Tensor(Shape shape, UninitializedTag);

  // std::allocator that default-initializes: a vector sized with it leaves
  // its floats unwritten instead of zero-filling them.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  using Storage = std::vector<float, DefaultInitAllocator<float>>;

  Shape shape_;
  int64_t numel_ = 1;
  std::shared_ptr<Storage> data_;
};

}  // namespace kt

#endif  // KT_TENSOR_TENSOR_H_

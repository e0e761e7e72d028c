#ifndef DNLR_COMMON_ALIGNED_H_
#define DNLR_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/check.h"

namespace dnlr {

/// Cache-line / SIMD-register alignment used by the matrix kernels. 64 bytes
/// covers both AVX-512 loads and x86 cache lines.
inline constexpr size_t kSimdAlignment = 64;

/// Fixed-size heap buffer of floats aligned for vector loads. The GEMM
/// packing buffers and matrix storage use this instead of std::vector so the
/// micro-kernel can issue aligned loads unconditionally.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t count) { Resize(count); }

  AlignedBuffer(const AlignedBuffer& other) { CopyFrom(other); }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }
  ~AlignedBuffer() { Free(); }

  /// Resizes to hold `count` floats. Contents are NOT preserved and the new
  /// storage is zero-initialized. Shrinking (or growing within the existing
  /// allocation) reuses the storage instead of reallocating, so buffers that
  /// are resized repeatedly stop hitting the allocator once they reach their
  /// high-water mark.
  void Resize(size_t count) {
    if (count > capacity_) {
      Free();
      // Round the byte size up to a multiple of the alignment, as required
      // by std::aligned_alloc.
      size_t bytes = count * sizeof(float);
      bytes = (bytes + kSimdAlignment - 1) / kSimdAlignment * kSimdAlignment;
      // NOLINTNEXTLINE(dnlr-raw-alloc): this class IS the RAII wrapper; SIMD kernels need 64-byte alignment
      data_ = static_cast<float*>(std::aligned_alloc(kSimdAlignment, bytes));
      DNLR_CHECK(data_ != nullptr) << "aligned_alloc failed for" << bytes;
      capacity_ = count;
    }
    count_ = count;
    for (size_t i = 0; i < count; ++i) data_[i] = 0.0f;
  }

  /// Ensures the buffer holds at least `count` floats WITHOUT the zero-fill
  /// Resize performs on reuse: fresh allocations are zeroed once, reused
  /// storage keeps its previous contents. For write-before-read scratch
  /// (the GEMM packing buffers and mm::PanelMatrix activations, which fully
  /// overwrite every region they later read), this turns the per-call cost
  /// into a capacity check.
  void GrowTo(size_t count) {
    if (count > capacity_) {
      Resize(count);
    } else if (count > count_) {
      count_ = count;
    }
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  float& operator[](size_t i) {
    DNLR_DCHECK(i < count_);
    return data_[i];
  }
  float operator[](size_t i) const {
    DNLR_DCHECK(i < count_);
    return data_[i];
  }

 private:
  void Free() {
    // NOLINTNEXTLINE(dnlr-raw-alloc): pairs with the aligned_alloc in Resize; owned by this class
    std::free(data_);
    data_ = nullptr;
    count_ = 0;
    capacity_ = 0;
  }
  void CopyFrom(const AlignedBuffer& other) {
    Resize(other.count_);
    for (size_t i = 0; i < count_; ++i) data_[i] = other.data_[i];
  }

  float* data_ = nullptr;
  size_t count_ = 0;
  size_t capacity_ = 0;
};

}  // namespace dnlr

#endif  // DNLR_COMMON_ALIGNED_H_

#ifndef DNLR_MM_MATRIX_H_
#define DNLR_MM_MATRIX_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/rng.h"

namespace dnlr::mm {

/// Dense row-major float matrix with SIMD-aligned storage. The leading
/// dimension equals the column count (no padding), which both the GEMM
/// packing routines and the neural layers assume.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(uint32_t rows, uint32_t cols)
      : rows_(rows), cols_(cols),
        storage_(static_cast<size_t>(rows) * cols) {}

  /// Builds from nested initializer lists: Matrix({{1, 2}, {3, 4}}).
  Matrix(std::initializer_list<std::initializer_list<float>> values);

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  size_t size() const { return static_cast<size_t>(rows_) * cols_; }

  float* data() { return storage_.data(); }
  const float* data() const { return storage_.data(); }
  float* Row(uint32_t r) { return data() + static_cast<size_t>(r) * cols_; }
  const float* Row(uint32_t r) const {
    return data() + static_cast<size_t>(r) * cols_;
  }

  float& At(uint32_t r, uint32_t c) {
    DNLR_DCHECK(r < rows_ && c < cols_);
    return data()[static_cast<size_t>(r) * cols_ + c];
  }
  float At(uint32_t r, uint32_t c) const {
    DNLR_DCHECK(r < rows_ && c < cols_);
    return data()[static_cast<size_t>(r) * cols_ + c];
  }

  /// Sets every entry to `value`.
  void Fill(float value) {
    for (size_t i = 0; i < size(); ++i) data()[i] = value;
  }

  /// Fills with i.i.d. uniform values in [lo, hi).
  void FillUniform(Rng& rng, float lo = -1.0f, float hi = 1.0f) {
    for (size_t i = 0; i < size(); ++i) {
      data()[i] = static_cast<float>(rng.Uniform(lo, hi));
    }
  }

  /// Fills with i.i.d. normal values.
  void FillNormal(Rng& rng, float mean = 0.0f, float stddev = 1.0f) {
    for (size_t i = 0; i < size(); ++i) {
      data()[i] = static_cast<float>(rng.Normal(mean, stddev));
    }
  }

  /// Fraction of exactly-zero entries (the paper's definition of sparsity).
  double Sparsity() const {
    if (size() == 0) return 0.0;
    size_t zeros = 0;
    for (size_t i = 0; i < size(); ++i) zeros += data()[i] == 0.0f;
    return static_cast<double>(zeros) / static_cast<double>(size());
  }

  /// Largest absolute element-wise difference to `other` (test helper).
  float MaxAbsDiff(const Matrix& other) const;

  /// Transposed copy.
  Matrix Transposed() const;

 private:
  uint32_t rows_;
  uint32_t cols_;
  AlignedBuffer storage_;
};

}  // namespace dnlr::mm

#endif  // DNLR_MM_MATRIX_H_

#ifndef DNLR_MM_PANEL_H_
#define DNLR_MM_PANEL_H_

#include <cstddef>
#include <cstdint>

#include "common/aligned.h"
#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dnlr::mm {

/// Activations in the GEMM's packed-B layout: the cols() columns are split
/// into num_panels() panels of nr() columns, and each panel stores its
/// rows() x nr() block row-major (nr consecutive floats per row). That is
/// the micro-panel order PackB builds, for every kc slice at once: slice
/// [pc, pc + kb) of panel p starts at Panel(p) + pc * nr. The served forward
/// pass keeps its activations in this form from input to score, so no layer
/// re-packs what the previous one wrote.
///
/// The last panel's columns past cols() are padding. Writers fill them with
/// finite values (the next layer's kernel multiplies them like any other
/// column); nothing reads them out.
class PanelMatrix {
 public:
  PanelMatrix() = default;

  /// Changes the shape without touching the contents: every kernel that
  /// writes a PanelMatrix writes all of it, padding included, so there is
  /// no zero-fill. Storage is reused once it reaches its high-water size.
  void Reshape(uint32_t rows, uint32_t cols, uint32_t nr) {
    DNLR_CHECK_GT(nr, 0u);
    rows_ = rows;
    cols_ = cols;
    nr_ = nr;
    storage_.GrowTo(static_cast<size_t>(rows) * padded_cols());
  }

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  uint32_t nr() const { return nr_; }
  uint32_t num_panels() const { return (cols_ + nr_ - 1) / nr_; }
  uint32_t padded_cols() const { return num_panels() * nr_; }
  /// Floats stored: rows() * padded_cols().
  size_t size() const { return static_cast<size_t>(rows_) * padded_cols(); }

  float* Panel(uint32_t p) {
    return storage_.data() + static_cast<size_t>(p) * rows_ * nr_;
  }
  const float* Panel(uint32_t p) const {
    return storage_.data() + static_cast<size_t>(p) * rows_ * nr_;
  }
  /// Row 0 of column j; entry (r, j) is Col(j)[r * nr()].
  float* Col(uint32_t j) { return Panel(j / nr_) + j % nr_; }
  const float* Col(uint32_t j) const { return Panel(j / nr_) + j % nr_; }

  float At(uint32_t r, uint32_t c) const {
    DNLR_DCHECK(r < rows_ && c < padded_cols());
    return Col(c)[static_cast<size_t>(r) * nr_];
  }
  float& At(uint32_t r, uint32_t c) {
    DNLR_DCHECK(r < rows_ && c < padded_cols());
    return Col(c)[static_cast<size_t>(r) * nr_];
  }

 private:
  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  uint32_t nr_ = 1;
  AlignedBuffer storage_;
};

/// ReLU6, min(max(x, 0), 6), written as two ordered compares so that -0.0f
/// and NaN pass through unchanged. The vector overload below is the same
/// function lane by lane.
inline float Relu6(float x) { return x < 0.0f ? 0.0f : (x > 6.0f ? 6.0f : x); }

#if defined(__AVX2__)
inline __m256 Relu6(__m256 x) {
  // MINPS(a, b) is (a < b) ? a : b and MAXPS(a, b) is (a > b) ? a : b,
  // lane by lane, so with the constant first they are exactly the scalar
  // compares: 6 < x ? 6 : x, then 0 > y ? 0 : y. A false compare (x is NaN,
  // or y is -0.0f against 0) returns the data operand unchanged; the
  // commuted max(x, 0) would turn -0.0f into +0.0f and NaN into 0.
  const __m256 y = _mm256_min_ps(_mm256_set1_ps(6.0f), x);
  return _mm256_max_ps(_mm256_setzero_ps(), y);
}
#endif

/// What a fused layer kernel applies to each output element on its way to
/// memory: act(acc + bias[row]), act being ReLU6 or the identity. The sum
/// comes first, exactly as a separate bias pass over the product would
/// compute it.
struct LayerEpilogue {
  const float* bias = nullptr;  // one entry per output row
  bool relu6 = false;

  float Apply(uint32_t row, float acc) const {
    const float z = acc + bias[row];
    return relu6 ? Relu6(z) : z;
  }
#if defined(__AVX2__)
  __m256 Apply(uint32_t row, __m256 acc) const {
    const __m256 z = _mm256_add_ps(acc, _mm256_set1_ps(bias[row]));
    return relu6 ? Relu6(z) : z;
  }
#endif
};

}  // namespace dnlr::mm

#endif  // DNLR_MM_PANEL_H_

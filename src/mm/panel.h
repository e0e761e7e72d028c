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
/// and NaN pass through unchanged. The vector overloads below are the same
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
#if defined(__AVX512F__)
inline __m512 Relu6(__m512 x) {
  // The scalar compares as lane masks: lanes with x < 0 take 0, lanes with
  // x > 6 take 6, and every other lane (NaN and -0.0f among them) keeps x.
  // Written with masked moves, not _mm512_min_ps/_mm512_max_ps, whose GCC 12
  // headers raise a spurious -Wmaybe-uninitialized when inlined.
  const __m512 six = _mm512_set1_ps(6.0f);
  const __m512 zero = _mm512_setzero_ps();
  const __mmask16 high = _mm512_cmp_ps_mask(x, six, _CMP_GT_OQ);
  const __mmask16 low = _mm512_cmp_ps_mask(x, zero, _CMP_LT_OQ);
  return _mm512_mask_mov_ps(_mm512_mask_mov_ps(x, high, six), low, zero);
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
#if defined(__AVX512F__)
  __m512 Apply(uint32_t row, __m512 acc) const {
    const __m512 z = _mm512_add_ps(acc, _mm512_set1_ps(bias[row]));
    return relu6 ? Relu6(z) : z;
  }
#endif
};

}  // namespace dnlr::mm

#endif  // DNLR_MM_PANEL_H_

#include "mm/sdmm.h"

#include <cmath>

#include "common/timer.h"
#include "obs/trace.h"

#if defined(__AVX2__) && defined(__FMA__)
#define DNLR_SDMM_SIMD 1
#include <immintrin.h>
#endif

namespace dnlr::mm {
namespace {

/// Column-strided read access shared by both B layouts: entry (r, j) is
/// Col(j)[r * row_stride]. A row-major Matrix is the one-panel case
/// (panel width = its column count); a PanelMatrix has one panel per nr
/// columns.
struct StridedCols {
  const float* data;
  uint32_t rows;
  uint32_t panel_width;
  const float* Col(uint32_t j) const {
    return data + static_cast<size_t>(j / panel_width) * rows * panel_width +
           j % panel_width;
  }
  size_t row_stride() const { return panel_width; }
};

/// One column block of the SDMM loop: columns [j, j + 8 * V) of every row,
/// V eight-float vectors that stay in registers across the whole row of A
/// (the paper's N_b blocks of n_b = 8, Section 4.3). Each non-zero a(i, t)
/// is broadcast and FMA'd against row t of B's block, so one scan of the A
/// row updates 8 * V output columns.
#ifdef DNLR_SDMM_SIMD
template <int V, typename Store>
void SdmmBlock(const CsrMatrix& a, StridedCols b, uint32_t j,
               const Store& store) {
  const uint32_t* offsets = a.row_offsets().data();
  const uint32_t* cols = a.col_index().data();
  const float* vals = a.values().data();
  const size_t b_stride = b.row_stride();
  const size_t c_stride = store.row_stride();
  const float* b_block[V];
  float* c_block[V];
  for (int v = 0; v < V; ++v) {
    b_block[v] = b.Col(j + 8 * v);
    c_block[v] = store.Col(j + 8 * v);
  }
  for (uint32_t i = 0; i < a.rows(); ++i) {
    __m256 acc[V];
    for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_ps();
    const uint32_t end = offsets[i + 1];
    for (uint32_t t = offsets[i]; t < end; ++t) {
      const __m256 x = _mm256_broadcast_ss(&vals[t]);
      const size_t b_row = cols[t] * b_stride;
      for (int v = 0; v < V; ++v) {
        acc[v] = _mm256_fmadd_ps(x, _mm256_loadu_ps(b_block[v] + b_row),
                                 acc[v]);
      }
    }
    for (int v = 0; v < V; ++v) {
      store.Vector(i, c_block[v] + i * c_stride, acc[v]);
    }
  }
}
#endif  // DNLR_SDMM_SIMD

/// The one SDMM loop. Columns [0, vector_cols) (a multiple of 8) run in
/// vector blocks of 32, 16 and 8; the rest of [0, cols) one at a time.
/// Column blocks run outermost (panel-major), so a block of B and of C stays
/// cache-resident across all rows. Every entry is summed from 0 in
/// non-zero order with one fused multiply-add per term, in either path, so
/// its bits do not depend on the block it falls in; each sum — including
/// the zero sums of rows with no non-zeros — goes to `store`.
/// `store.Col(j)` is C's column j at row 0 (row i is `store.row_stride()`
/// floats further); `store.Vector(i, dst, acc8)` stores eight columns of
/// row i at dst, `store.Scalar(i, dst, acc)` one.
template <typename Store>
void SdmmLoop(const CsrMatrix& a, uint32_t vector_cols, uint32_t cols,
              StridedCols b, const Store& store) {
  uint32_t j = 0;
#ifdef DNLR_SDMM_SIMD
  for (; j + 32 <= vector_cols; j += 32) SdmmBlock<4>(a, b, j, store);
  if (j + 16 <= vector_cols) {
    SdmmBlock<2>(a, b, j, store);
    j += 16;
  }
  if (j + 8 <= vector_cols) {
    SdmmBlock<1>(a, b, j, store);
    j += 8;
  }
#else
  (void)vector_cols;  // no SIMD loop compiled in
#endif
  const uint32_t* offsets = a.row_offsets().data();
  const uint32_t* col_index = a.col_index().data();
  const float* vals = a.values().data();
  const size_t b_stride = b.row_stride();
  const size_t c_stride = store.row_stride();
  for (; j < cols; ++j) {
    const float* b_col = b.Col(j);
    float* c_col = store.Col(j);
    for (uint32_t i = 0; i < a.rows(); ++i) {
      float acc = 0.0f;
      const uint32_t end = offsets[i + 1];
      for (uint32_t t = offsets[i]; t < end; ++t) {
#ifdef DNLR_SDMM_SIMD
        // The vector lanes' exact operation.
        acc = std::fma(vals[t], b_col[col_index[t] * b_stride], acc);
#else
        acc += vals[t] * b_col[col_index[t] * b_stride];
#endif
      }
      store.Scalar(i, c_col + i * c_stride, acc);
    }
  }
}

/// Sdmm's store: the sums as they are, into row-major C.
struct MatrixStore {
  Matrix* c;
  float* Col(uint32_t j) const { return c->data() + j; }
  size_t row_stride() const { return c->cols(); }
#ifdef DNLR_SDMM_SIMD
  void Vector(uint32_t /*i*/, float* dst, __m256 acc) const {
    _mm256_storeu_ps(dst, acc);
  }
#endif
  void Scalar(uint32_t /*i*/, float* dst, float acc) const { *dst = acc; }
};

/// SdmmLayer's store: bias + activation on the way into Y's panels.
struct LayerStore {
  const LayerEpilogue& epilogue;
  PanelMatrix* y;
  float* Col(uint32_t j) const { return y->Col(j); }
  size_t row_stride() const { return y->nr(); }
#ifdef DNLR_SDMM_SIMD
  void Vector(uint32_t i, float* dst, __m256 acc) const {
    _mm256_storeu_ps(dst, epilogue.Apply(i, acc));
  }
#endif
  void Scalar(uint32_t i, float* dst, float acc) const {
    *dst = epilogue.Apply(i, acc);
  }
};

}  // namespace

void Sdmm(const CsrMatrix& a, const Matrix& b, Matrix* c) {
  DNLR_CHECK_EQ(a.cols(), b.rows());
  DNLR_CHECK_EQ(c->rows(), a.rows());
  DNLR_CHECK_EQ(c->cols(), b.cols());
  DNLR_OBS_COUNT("mm.sdmm.calls", 1);
  DNLR_OBS_SPAN(sdmm_span, "mm.sdmm.total_us");
  const uint32_t n = b.cols();
  SdmmLoop(a, n / 8 * 8, n, StridedCols{b.data(), b.rows(), n},
           MatrixStore{c});
  // Debug builds sweep the result for NaN/Inf introduced by poisoned inputs.
  for (size_t i = 0; i < c->size(); ++i) DNLR_DCHECK_FINITE(c->data()[i]);
}

void SdmmLayer(const CsrMatrix& a, const PanelMatrix& x,
               const LayerEpilogue& epilogue, PanelMatrix* y) {
  DNLR_CHECK_EQ(a.cols(), x.rows());
  DNLR_OBS_COUNT("mm.sdmm.calls", 1);
  DNLR_OBS_SPAN(sdmm_span, "mm.sdmm.total_us");
  const uint32_t n = x.cols();
  const uint32_t nr = x.nr();
  y->Reshape(a.rows(), n, nr);
  // The padding columns are computed like the real ones (X's are finite,
  // so Y's are): with eight-float aligned panels every column is in a
  // vector block, with no scalar tail.
  const uint32_t padded = y->padded_cols();
  SdmmLoop(a, nr % 8 == 0 ? padded : 0, padded,
           StridedCols{x.Panel(0), x.rows(), nr}, LayerStore{epilogue, y});
  // Debug builds sweep the result, padding included, for NaN/Inf.
  for (size_t i = 0; i < y->size(); ++i) DNLR_DCHECK_FINITE(y->Panel(0)[i]);
}

void SdmmReference(const CsrMatrix& a, const Matrix& b, Matrix* c) {
  DNLR_CHECK_EQ(a.cols(), b.rows());
  DNLR_CHECK_EQ(c->rows(), a.rows());
  DNLR_CHECK_EQ(c->cols(), b.cols());
  c->Fill(0.0f);
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_index();
  const auto& vals = a.values();
  // Algorithm 1: for each row, for each non-zero, for each output column —
  // scalar, with an indexed B access in the inner loop.
  for (uint32_t i = 0; i < a.rows(); ++i) {
    for (uint32_t t = offsets[i]; t < offsets[i + 1]; ++t) {
      const uint32_t idx = cols[t];
      const float value = vals[t];
      for (uint32_t j = 0; j < b.cols(); ++j) {
        c->At(i, j) += value * b.At(idx, j);
      }
    }
  }
}

bool SdmmHasSimd() {
#ifdef DNLR_SDMM_SIMD
  return true;
#else
  return false;
#endif
}

namespace {

template <typename Kernel>
double MeasureKernel(const CsrMatrix& a, uint32_t n, int repeats,
                     uint64_t seed, Kernel&& kernel) {
  Rng rng(seed);
  Matrix b(a.cols(), n);
  Matrix c(a.rows(), n);
  b.FillUniform(rng);
  return TimeMicros([&] { kernel(a, b, &c); }, repeats);
}

}  // namespace

double MeasureSdmmMicros(const CsrMatrix& a, uint32_t n, int repeats,
                         uint64_t seed) {
  return MeasureKernel(a, n, repeats, seed, Sdmm);
}

double MeasureSdmmReferenceMicros(const CsrMatrix& a, uint32_t n, int repeats,
                                  uint64_t seed) {
  return MeasureKernel(a, n, repeats, seed, SdmmReference);
}

}  // namespace dnlr::mm

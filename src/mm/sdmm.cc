#include "mm/sdmm.h"

#include <cmath>
#include <vector>

#include "common/timer.h"
#include "mm/gemm.h"
#include "obs/trace.h"

#if defined(__AVX2__) && defined(__FMA__)
#define DNLR_SDMM_SIMD 1
#include <immintrin.h>
#endif

namespace dnlr::mm {
namespace {

/// One column block of the SDMM loop: columns [j, j + 8 * V) of every row,
/// V eight-float vectors that stay in registers across the whole row of A
/// (the paper's N_b blocks of n_b = 8, Section 4.3). Each non-zero a(i, t)
/// is broadcast and FMA'd against row t of X's block, so one scan of the A
/// row updates 8 * V output columns; the epilogue stores them into Y.
/// Eight-float blocks never straddle a panel, since nr is a multiple of 8.
#ifdef DNLR_SDMM_SIMD
template <int V>
void SdmmBlock(const CsrMatrix& a, const PanelMatrix& x, uint32_t j,
               const LayerEpilogue& epilogue, PanelMatrix* y) {
  const uint32_t* offsets = a.row_offsets().data();
  const uint32_t* cols = a.col_index().data();
  const float* vals = a.values().data();
  const size_t nr = x.nr();
  const float* x_block[V];
  float* y_block[V];
  for (int v = 0; v < V; ++v) {
    x_block[v] = x.Col(j + 8 * v);
    y_block[v] = y->Col(j + 8 * v);
  }
  for (uint32_t i = 0; i < a.rows(); ++i) {
    __m256 acc[V];
    for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_ps();
    const uint32_t end = offsets[i + 1];
    for (uint32_t t = offsets[i]; t < end; ++t) {
      const __m256 a_it = _mm256_broadcast_ss(&vals[t]);
      const size_t x_row = cols[t] * nr;
      for (int v = 0; v < V; ++v) {
        acc[v] = _mm256_fmadd_ps(a_it, _mm256_loadu_ps(x_block[v] + x_row),
                                 acc[v]);
      }
    }
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(y_block[v] + i * nr, epilogue.Apply(i, acc[v]));
    }
  }
}
#endif  // DNLR_SDMM_SIMD

}  // namespace

void SdmmLayer(const CsrMatrix& a, const PanelMatrix& x,
               const LayerEpilogue& epilogue, PanelMatrix* y) {
  DNLR_CHECK_EQ(a.cols(), x.rows());
  DNLR_OBS_COUNT("mm.sdmm.calls", 1);
  DNLR_OBS_SPAN(sdmm_span, "mm.sdmm.total_us");
  const uint32_t nr = x.nr();
  y->Reshape(a.rows(), x.cols(), nr);
  // The padding columns are computed like the real ones (X's are finite,
  // so Y's are). Column blocks run outermost (panel-major), so a block of
  // X and of Y stays cache-resident across all rows: with eight-float
  // aligned panels every column is in a vector block of 32, 16 or 8, else
  // every column runs one at a time.
  const uint32_t cols = y->padded_cols();
  uint32_t j = 0;
#ifdef DNLR_SDMM_SIMD
  if (nr % 8 == 0) {
    for (; j + 32 <= cols; j += 32) SdmmBlock<4>(a, x, j, epilogue, y);
    if (j + 16 <= cols) {
      SdmmBlock<2>(a, x, j, epilogue, y);
      j += 16;
    }
    if (j + 8 <= cols) {
      SdmmBlock<1>(a, x, j, epilogue, y);
      j += 8;
    }
  }
#endif
  // The remaining columns, one at a time. Every entry is summed from 0 in
  // non-zero order, with the vector lanes' fused multiply-add when they are
  // compiled in, so its bits do not depend on the block it falls in; each
  // sum — including the zero sums of rows with no non-zeros — goes through
  // the epilogue.
  const uint32_t* offsets = a.row_offsets().data();
  const uint32_t* col_index = a.col_index().data();
  const float* vals = a.values().data();
  const size_t stride = nr;
  for (; j < cols; ++j) {
    const float* x_col = x.Col(j);
    float* y_col = y->Col(j);
    for (uint32_t i = 0; i < a.rows(); ++i) {
      float acc = 0.0f;
      const uint32_t end = offsets[i + 1];
      for (uint32_t t = offsets[i]; t < end; ++t) {
#ifdef DNLR_SDMM_SIMD
        acc = std::fma(vals[t], x_col[col_index[t] * stride], acc);
#else
        acc += vals[t] * x_col[col_index[t] * stride];
#endif
      }
      y_col[i * stride] = epilogue.Apply(i, acc);
    }
  }
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

double MeasureSdmmMicros(const CsrMatrix& a, uint32_t n, int repeats) {
  // The served kernel: a ReLU6 layer over panel-resident activations.
  Rng rng(123);
  PanelMatrix x;
  x.Reshape(a.cols(), n, GemmParams().nr);
  for (uint32_t j = 0; j < x.padded_cols(); ++j) {
    for (uint32_t r = 0; r < a.cols(); ++r) {
      x.At(r, j) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  std::vector<float> bias(a.rows());
  for (float& value : bias) value = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const LayerEpilogue epilogue{bias.data(), /*relu6=*/true};
  PanelMatrix y;
  return TimeMicros([&] { SdmmLayer(a, x, epilogue, &y); }, repeats);
}

double MeasureSdmmReferenceMicros(const CsrMatrix& a, uint32_t n,
                                  int repeats) {
  // The same layer as MeasureSdmmMicros: Algorithm 1, then a separate bias
  // + ReLU6 pass over C.
  Rng rng(123);
  Matrix b(a.cols(), n);
  b.FillUniform(rng);
  std::vector<float> bias(a.rows());
  for (float& value : bias) value = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const LayerEpilogue epilogue{bias.data(), /*relu6=*/true};
  Matrix c(a.rows(), n);
  return TimeMicros(
      [&] {
        SdmmReference(a, b, &c);
        for (uint32_t i = 0; i < c.rows(); ++i) {
          float* row = c.Row(i);
          for (uint32_t j = 0; j < n; ++j) row[j] = epilogue.Apply(i, row[j]);
        }
      },
      repeats);
}

}  // namespace dnlr::mm

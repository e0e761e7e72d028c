#ifndef DNLR_MM_SDMM_H_
#define DNLR_MM_SDMM_H_

#include "mm/csr.h"
#include "mm/matrix.h"
#include "mm/panel.h"

namespace dnlr::mm {

/// Sparse-dense matrix multiplication C = A * B in the LIBXSMM style
/// (Section 4.3, Figures 8-9): iterate the rows of CSR A; keep the C row in
/// SIMD registers (N split into Nb blocks of nb = 8 floats); for every
/// non-zero a(i,j), broadcast it and FMA it against the whole j-th row of B.
/// Rows of A with no non-zeros get a zero C row. A is m x k sparse, B is
/// k x n dense, C is m x n dense and overwritten.
void Sdmm(const CsrMatrix& a, const Matrix& b, Matrix* c);

/// The same kernel as the hybrid scorer's first layer, Y = act(A * X +
/// bias) over panel-layout activations: reads X's panels in place and
/// stores bias + activation of each register block straight into Y's
/// panels (Y is reshaped to A.rows() x X.cols(), X's panel width; its
/// padding columns are computed like the real ones, from X's). Bitwise
/// equal to Sdmm followed by a separate bias + activation pass.
void SdmmLayer(const CsrMatrix& a, const PanelMatrix& x,
               const LayerEpilogue& epilogue, PanelMatrix* y);

/// Reference general-purpose CSR x dense kernel (Algorithm 1 of the paper):
/// the mundane loop nest with no register blocking or SIMD-aware layout.
/// Plays the role of the closed-source MKL routine in the Table 3
/// comparison.
void SdmmReference(const CsrMatrix& a, const Matrix& b, Matrix* c);

/// Whether the AVX2+FMA SDMM inner loop is compiled in.
bool SdmmHasSimd();

/// Measured wall time in microseconds of one C = A*B with the optimized
/// kernel, for the sparse predictor's calibration and validation.
double MeasureSdmmMicros(const CsrMatrix& a, uint32_t n, int repeats = 7,
                         uint64_t seed = 123);

/// Same measurement for the reference kernel (Table 3 baseline column).
double MeasureSdmmReferenceMicros(const CsrMatrix& a, uint32_t n,
                                  int repeats = 7, uint64_t seed = 123);

}  // namespace dnlr::mm

#endif  // DNLR_MM_SDMM_H_

#ifndef DNLR_MM_SDMM_H_
#define DNLR_MM_SDMM_H_

#include "mm/csr.h"
#include "mm/matrix.h"
#include "mm/panel.h"

namespace dnlr::mm {

/// Sparse-dense layer Y = act(A * X + bias) in the LIBXSMM style (Section
/// 4.3, Figures 8-9), the hybrid scorer's first layer: iterate the rows of
/// CSR A; keep the Y row in SIMD registers (N split into Nb blocks of nb = 8
/// floats); for every non-zero a(i,j), broadcast it and FMA it against the
/// whole j-th row of X. Reads X's panels in place and stores bias +
/// activation of each register block straight into Y's panels (Y is
/// reshaped to A.rows() x X.cols(), X's panel width; its padding columns
/// are computed like the real ones, from X's). Every product entry is
/// summed from 0 in non-zero order with one fused multiply-add per term
/// when SdmmHasSimd() (a multiply then an add otherwise), then goes through
/// LayerEpilogue::Apply; rows of A with no non-zeros get the epilogue of 0.
void SdmmLayer(const CsrMatrix& a, const PanelMatrix& x,
               const LayerEpilogue& epilogue, PanelMatrix* y);

/// Reference general-purpose CSR x dense kernel (Algorithm 1 of the paper):
/// the mundane loop nest with no register blocking or SIMD-aware layout.
/// Plays the role of the closed-source MKL routine in the Table 3
/// comparison. A is m x k sparse, B is k x n dense, C is m x n dense and
/// overwritten.
void SdmmReference(const CsrMatrix& a, const Matrix& b, Matrix* c);

/// Whether the AVX2+FMA SDMM inner loop is compiled in.
bool SdmmHasSimd();

/// Measured wall time in microseconds of the kernel the hybrid scorer
/// serves: SdmmLayer over A, a random a.cols() x n X in panels of
/// GemmParams().nr columns, a random bias and the ReLU6 epilogue. Median
/// of `repeats` runs (TimeMicros), for the sparse predictor's calibration
/// and validation.
double MeasureSdmmMicros(const CsrMatrix& a, uint32_t n, int repeats = 7);

/// The same layer through the reference kernel (the Table 3 baseline
/// column): SdmmReference over a row-major B, then a separate bias + ReLU6
/// pass over C.
double MeasureSdmmReferenceMicros(const CsrMatrix& a, uint32_t n,
                                  int repeats = 7);

}  // namespace dnlr::mm

#endif  // DNLR_MM_SDMM_H_

#ifndef DNLR_TESTS_MM_TEST_UTIL_H_
#define DNLR_TESTS_MM_TEST_UTIL_H_

// Test-side helpers shared by the kernel tests: conversions between
// row-major matrices and the panel layout, and the scalar oracle of the
// served sparse layer.

#include <cmath>
#include <cstdint>

#include "mm/csr.h"
#include "mm/matrix.h"
#include "mm/panel.h"
#include "mm/sdmm.h"

namespace dnlr::mm {

/// `m` in panel layout, padding columns set to zero.
inline PanelMatrix ToPanels(const Matrix& m, uint32_t nr) {
  PanelMatrix panels;
  panels.Reshape(m.rows(), m.cols(), nr);
  for (uint32_t r = 0; r < m.rows(); ++r) {
    for (uint32_t c = 0; c < panels.padded_cols(); ++c) {
      panels.At(r, c) = c < m.cols() ? m.At(r, c) : 0.0f;
    }
  }
  return panels;
}

/// The real (unpadded) columns of `panels` as a row-major matrix.
inline Matrix FromPanels(const PanelMatrix& panels) {
  Matrix m(panels.rows(), panels.cols());
  for (uint32_t r = 0; r < m.rows(); ++r) {
    for (uint32_t c = 0; c < m.cols(); ++c) m.At(r, c) = panels.At(r, c);
  }
  return m;
}

/// act(A * B + bias) in the order SdmmLayer documents, one scalar entry at
/// a time: each sum starts from 0 and runs over row i's non-zeros in CSR
/// order, one std::fma per term when SdmmHasSimd() (the vector lanes'
/// exact operation), a multiply then an add otherwise; the sum then goes
/// through LayerEpilogue::Apply. SdmmLayer's real columns must equal it
/// bit for bit.
inline Matrix SdmmLayerOracle(const CsrMatrix& a, const Matrix& b,
                              const LayerEpilogue& epilogue) {
  const bool fused = SdmmHasSimd();
  Matrix c(a.rows(), b.cols());
  for (uint32_t i = 0; i < a.rows(); ++i) {
    for (uint32_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (uint32_t t = a.row_offsets()[i]; t < a.row_offsets()[i + 1]; ++t) {
        const float b_entry = b.At(a.col_index()[t], j);
        acc = fused ? std::fma(a.values()[t], b_entry, acc)
                    : acc + a.values()[t] * b_entry;
      }
      c.At(i, j) = epilogue.Apply(i, acc);
    }
  }
  return c;
}

}  // namespace dnlr::mm

#endif  // DNLR_TESTS_MM_TEST_UTIL_H_

#ifndef DNLR_MM_GEMM_H_
#define DNLR_MM_GEMM_H_

#include <cstddef>
#include <cstdint>

#include "common/aligned.h"
#include "mm/matrix.h"
#include "mm/panel.h"

namespace dnlr::mm {

/// Micro-tile rows of the SIMD kernel the build's ISA selects: 12 rows of
/// one 16-float zmm each under AVX-512F, 6 rows of two 8-float ymm each
/// under AVX2+FMA (and on builds with no SIMD kernel, where it is only the
/// default blocking). Both divide the default mc.
#if defined(__AVX512F__)
inline constexpr uint32_t kGemmSimdMr = 12;
#else
inline constexpr uint32_t kGemmSimdMr = 6;
#endif

/// Blocking parameters of the Goto algorithm (Section 4.1 of the paper).
/// The macro-kernel streams an MC x KC packed block of A (L2-resident)
/// against a KC x NC packed panel of B (L3-resident); the micro-kernel
/// computes an MR x NR tile of C held entirely in vector registers.
struct GemmParams {
  uint32_t mc = 72;           // rows of the packed A block (multiple of mr)
  uint32_t kc = 256;          // shared dimension slice
  uint32_t nc = 4080;         // columns of the packed B panel (multiple of nr)
  uint32_t mr = kGemmSimdMr;  // micro-tile rows (register blocking)
  uint32_t nr = 16;           // micro-tile cols (one zmm, or two ymm)

  /// oneDNN-style tailoring for small shapes (the rnd_up logic quoted in
  /// Section 4.2): clamps each blocking parameter to the actual problem
  /// size, rounded up to the micro-kernel granularity, so tiny matrices do
  /// not pay full-size packing overhead.
  GemmParams TailoredTo(uint32_t m, uint32_t n, uint32_t k) const;
};

/// rnd_up(a, b): smallest multiple of b that is >= a (paper Section 4.2).
uint32_t RoundUp(uint32_t a, uint32_t b);

/// An A operand packed once, ahead of any multiplication: the PackA panels
/// of every (pc, ic) macro-block, in the layout the per-call pack writes.
/// TailoredTo sets mc from m alone and kc from k alone, so the layout does
/// not depend on B's width n; one PackedMatrix serves every batch, and a
/// GemmLayer through it is bitwise identical to the raw-A Gemm plus a bias
/// + activation pass. The neural scorers hold their constant weight
/// matrices this way.
class PackedMatrix {
 public:
  PackedMatrix() = default;

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  /// The blocking the panels were packed for (untailored).
  const GemmParams& params() const { return params_; }

  /// The packed block of rows [ic, ic + mc) and shared-dimension slice
  /// [pc, pc + kb), where ic is a multiple of the tailored mc and pc of
  /// the tailored kc.
  const float* Block(uint32_t ic, uint32_t pc, uint32_t kb) const;

 private:
  friend PackedMatrix PackWeights(const Matrix& a, const GemmParams& params);

  size_t Offset(uint32_t ic, uint32_t pc, uint32_t kb) const;

  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  GemmParams params_;
  AlignedBuffer panels_;  // RoundUp(rows, mr) * cols floats
};

/// Packs `a` for repeated use as the A operand of Gemm under `params`.
PackedMatrix PackWeights(const Matrix& a,
                         const GemmParams& params = GemmParams());

/// C = A * B with the blocked Goto algorithm. A is m x k, B is k x n, C is
/// m x n, all row-major. C is overwritten.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B with explicit blocking parameters (for the parameter-tuning
/// ablation; `params` is tailored internally to the problem shape).
void GemmWithParams(const Matrix& a, const Matrix& b, Matrix* c,
                    const GemmParams& params);

/// One dense layer of the served forward pass, Y = act(A * X + bias), with
/// A packed ahead by PackWeights and X, Y in panel layout (X's panel width
/// must be the nr A was packed for). The kernel reads X's panels in place,
/// with no PackB, and its epilogue writes each register tile straight into
/// Y's panels, padding columns included. A k > kc layer sums its slices as
/// (0 + tile_pc0) + tile_pc1 + ... before the bias, the order the raw-A
/// Gemm accumulates into its zero-filled C, so Y equals the raw-A product
/// followed by a separate bias + activation pass, bit for bit. Y is
/// reshaped to A.rows() x X.cols().
void GemmLayer(const PackedMatrix& a, const PanelMatrix& x,
               const LayerEpilogue& epilogue, PanelMatrix* y);

/// Reference triple-loop GEMM (ablation baseline and test oracle).
void GemmReference(const Matrix& a, const Matrix& b, Matrix* c);

/// Whether a SIMD micro-kernel is compiled in: the AVX-512F 12x16 kernel
/// on builds with __AVX512F__, else the AVX2+FMA 6x16 kernel on builds
/// with __AVX2__ and __FMA__. Either one computes every entry of a tile as
/// a chain of FMAs from 0 in k order, so scores do not depend on which.
bool GemmHasSimd();

/// Measured GFLOPS of the kernel the neural scorers serve: GemmLayer over
/// an m x k weight matrix packed outside the timed region, a k x n
/// panel-resident X and the ReLU6 epilogue. Runs it `repeats` times and
/// reports 2*m*n*k over the median time (TimeMicros). Used to build the
/// dense time predictor's calibration table.
double MeasureGemmGflops(uint32_t m, uint32_t k, uint32_t n, int repeats = 3);

/// Measured GFLOPS of the raw-A GemmWithParams under explicit blocking
/// parameters, packing included: the Figure 4-6 benches and the `stats`
/// span-overhead probe.
double MeasureGemmGflopsWithParams(const GemmParams& params, uint32_t m,
                                   uint32_t k, uint32_t n, int repeats = 3);

}  // namespace dnlr::mm

#endif  // DNLR_MM_GEMM_H_

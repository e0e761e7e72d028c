#include "mm/gemm.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/timer.h"
#include "obs/trace.h"

// One SIMD micro-kernel per build, chosen by the ISA the build targets.
#if defined(__AVX512F__)
#define DNLR_GEMM_AVX512 1
#elif defined(__AVX2__) && defined(__FMA__)
#define DNLR_GEMM_AVX2 1
#endif
#if defined(DNLR_GEMM_AVX512) || defined(DNLR_GEMM_AVX2)
#define DNLR_GEMM_SIMD 1
#include <immintrin.h>
#endif

namespace dnlr::mm {
namespace {

/// Packs the A block A[row0:row0+mb, col0:col0+kb] into `packed`, arranged
/// as ceil(mb/mr) row-panels; within a panel, entries are stored p-major
/// (mr consecutive A values per k step), exactly the order the micro-kernel
/// broadcasts them in. Rows beyond the block are zero padded.
void PackA(const Matrix& a, uint32_t row0, uint32_t mb, uint32_t col0,
           uint32_t kb, uint32_t mr, float* packed) {
  for (uint32_t ir = 0; ir < mb; ir += mr) {
    const uint32_t rows = std::min(mr, mb - ir);
    for (uint32_t p = 0; p < kb; ++p) {
      for (uint32_t r = 0; r < mr; ++r) {
        *packed++ =
            r < rows ? a.At(row0 + ir + r, col0 + p) : 0.0f;
      }
    }
  }
}

/// Packs the B panel B[row0:row0+kb, col0:col0+nb] into `packed`, arranged
/// as ceil(nb/nr) column-panels; within a panel, nr consecutive B values per
/// k step (row-major micro-panels). Columns beyond the panel are zero
/// padded.
void PackB(const Matrix& b, uint32_t row0, uint32_t kb, uint32_t col0,
           uint32_t nb, uint32_t nr, float* packed) {
  for (uint32_t jr = 0; jr < nb; jr += nr) {
    const uint32_t cols = std::min(nr, nb - jr);
    for (uint32_t p = 0; p < kb; ++p) {
      const float* row = b.Row(row0 + p) + col0 + jr;
      for (uint32_t c = 0; c < nr; ++c) {
        *packed++ = c < cols ? row[c] : 0.0f;
      }
    }
  }
}

/// Generic micro-kernel: accumulates an mr x nr rank-kb update into the
/// local tile buffer `acc` (row-major mr x nr).
void MicroKernelScalar(uint32_t kb, uint32_t mr, uint32_t nr,
                       const float* a_panel, const float* b_panel,
                       float* acc) {
  for (uint32_t p = 0; p < kb; ++p) {
    const float* a_col = a_panel + static_cast<size_t>(p) * mr;
    const float* b_row = b_panel + static_cast<size_t>(p) * nr;
    for (uint32_t r = 0; r < mr; ++r) {
      const float a_val = a_col[r];
      float* acc_row = acc + static_cast<size_t>(r) * nr;
      for (uint32_t c = 0; c < nr; ++c) acc_row[c] += a_val * b_row[c];
    }
  }
}

#if defined(DNLR_GEMM_AVX512)
/// AVX-512F micro-kernel for mr = sizeof...(R), nr = 16: each tile row
/// lives in one zmm accumulator; each k step is one B vector load and one
/// broadcast-FMA per row, the register-blocked rank-1 update of Figure 3 in
/// the paper. The pack expansions unroll the rows at compile time, so the
/// accumulators stay in registers.
template <size_t... R>
void MicroKernelAvx512(uint32_t kb, const float* a_panel,
                       const float* b_panel, float* acc,
                       std::index_sequence<R...>) {
  constexpr size_t kMr = sizeof...(R);
  __m512 c[kMr];
  ((c[R] = _mm512_setzero_ps()), ...);
  for (uint32_t p = 0; p < kb; ++p) {
    const __m512 b = _mm512_loadu_ps(b_panel);
    b_panel += 16;
    ((c[R] = _mm512_fmadd_ps(_mm512_set1_ps(a_panel[R]), b, c[R])), ...);
    a_panel += kMr;
  }
  (_mm512_storeu_ps(acc + R * 16, c[R]), ...);
}

void MicroKernelSimd(uint32_t kb, const float* a_panel, const float* b_panel,
                     float* acc) {
  MicroKernelAvx512(kb, a_panel, b_panel, acc,
                    std::make_index_sequence<kGemmSimdMr>());
}
#elif defined(DNLR_GEMM_AVX2)
/// AVX2+FMA micro-kernel for mr = 6, nr = 16: the 6x16 C tile lives in 12
/// ymm accumulators; each k step is one broadcast per row and two FMAs,
/// the register-blocked rank-1 update of Figure 3 in the paper.
void MicroKernelSimd(uint32_t kb, const float* a_panel, const float* b_panel,
                     float* acc) {
  static_assert(kGemmSimdMr == 6);
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (uint32_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b_panel);
    const __m256 b1 = _mm256_loadu_ps(b_panel + 8);
    b_panel += 16;
    __m256 a;
    a = _mm256_broadcast_ss(a_panel + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(a_panel + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(a_panel + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(a_panel + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(a_panel + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(a_panel + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
    a_panel += 6;
  }
  _mm256_storeu_ps(acc + 0, c00);
  _mm256_storeu_ps(acc + 8, c01);
  _mm256_storeu_ps(acc + 16, c10);
  _mm256_storeu_ps(acc + 24, c11);
  _mm256_storeu_ps(acc + 32, c20);
  _mm256_storeu_ps(acc + 40, c21);
  _mm256_storeu_ps(acc + 48, c30);
  _mm256_storeu_ps(acc + 56, c31);
  _mm256_storeu_ps(acc + 64, c40);
  _mm256_storeu_ps(acc + 72, c41);
  _mm256_storeu_ps(acc + 80, c50);
  _mm256_storeu_ps(acc + 88, c51);
}
#endif

/// Per-OS-thread packing scratch, reused across (jc, pc) iterations and
/// whole GEMM calls: nn::NeuralScorer's pool workers run GemmLayer
/// concurrently, so thread-local storage gives every executing thread one
/// persistent PackA block, micro-tile and packed-B panel without any
/// per-call allocation or locking. Contents are never read before being
/// written (PackA/PackB fully write every region the kernels later read,
/// and the tile is fully stored by both kernels), so reuse cannot change
/// results.
struct GemmScratch {
  AlignedBuffer packed_a;  // raw-A path only; prepacked A needs no scratch
  AlignedBuffer tile;
  AlignedBuffer packed_b;  // raw-A path only
};

GemmScratch& LocalGemmScratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

}  // namespace

uint32_t RoundUp(uint32_t a, uint32_t b) {
  DNLR_CHECK_GT(b, 0u);
  return (a + b - 1) / b * b;
}

GemmParams GemmParams::TailoredTo(uint32_t m, uint32_t n, uint32_t k) const {
  GemmParams tailored = *this;
  // The oneDNN small-shape refinement quoted in the paper:
  //   m_c = rnd_up(min(max(m, m_r), m_c), m_r), and similarly for n_c / k_c.
  tailored.mc = RoundUp(std::min(std::max(m, mr), mc), mr);
  tailored.nc = RoundUp(std::min(std::max(n, nr), nc), nr);
  tailored.kc = std::min(std::max(k, 1u), kc);
  return tailored;
}

namespace {

/// The packed B operand of one (jc, pc) iteration as the macro-kernel reads
/// it: the kb x nr micro-panel of columns [jc + jr, jc + jr + nr) starts at
/// data + (jr / nr) * panel_stride. The raw-A path points it at the panel
/// PackB just built; GemmLayer points it into X's own panels.
struct BPanels {
  const float* data;
  size_t panel_stride;
};

/// Runs the macro-kernel for one MC-row block of A: streams the micro-panels
/// of the already-packed A block `packed_a` against the B panels and hands
/// every finished register tile to `store_tile(pc, kb, row0, rows, col0,
/// cols, tile)`, which owns the epilogue. `tile` is the executing thread's
/// scratch.
template <typename StoreTileFn>
void RunMacroBlock(const float* packed_a, const GemmParams& params,
                   bool use_simd, uint32_t ic, uint32_t mb, uint32_t jc,
                   uint32_t nb, uint32_t pc, uint32_t kb, BPanels b,
                   float* tile, const StoreTileFn& store_tile) {
  const uint32_t mr = params.mr;
  const uint32_t nr = params.nr;
  DNLR_OBS_SPAN(kernel_span, "mm.gemm.kernel_us");
  // Macro-kernel: stream micro-panels of the packed blocks.
  for (uint32_t jr = 0; jr < nb; jr += nr) {
    const uint32_t cols = std::min(nr, nb - jr);
    const float* b_panel =
        b.data + static_cast<size_t>(jr / nr) * b.panel_stride;
    for (uint32_t ir = 0; ir < mb; ir += mr) {
      const uint32_t rows = std::min(mr, mb - ir);
      const float* a_panel = packed_a + static_cast<size_t>(ir / mr) * kb * mr;
#ifdef DNLR_GEMM_SIMD
      if (use_simd) {
        MicroKernelSimd(kb, a_panel, b_panel, tile);
      } else {
        std::memset(tile, 0, sizeof(float) * mr * nr);
        MicroKernelScalar(kb, mr, nr, a_panel, b_panel, tile);
      }
#else
      (void)use_simd;  // no SIMD kernel compiled in; flag has no effect here
      std::memset(tile, 0, sizeof(float) * mr * nr);
      MicroKernelScalar(kb, mr, nr, a_panel, b_panel, tile);
#endif
      store_tile(pc, kb, ic + ir, rows, jc + jr, cols, tile);
    }
  }
}

/// The Goto loop nest shared by every GEMM entry point. `a_block(ic, mb,
/// pc, kb, scratch)` returns the packed MC x KC block of the m x k A at
/// (ic, pc): the raw-A path packs it into the thread's scratch, the
/// prepacked path points into the stored panels. `b_block(jc, nb, pc, kb)`
/// returns the packed B panels of that (jc, pc) iteration. `store_tile` is
/// the epilogue (see RunMacroBlock).
template <typename ABlockFn, typename BBlockFn, typename StoreTileFn>
void GemmLoop(uint32_t m, uint32_t k, uint32_t n, const GemmParams& params,
              const ABlockFn& a_block, const BBlockFn& b_block,
              const StoreTileFn& store_tile) {
  const uint32_t mr = params.mr;
  const uint32_t nr = params.nr;

  DNLR_OBS_COUNT("mm.gemm.calls", 1);
  DNLR_OBS_SPAN(gemm_span, "mm.gemm.total_us");
  if (m == 0 || n == 0 || k == 0) return;

#ifdef DNLR_GEMM_SIMD
  const bool use_simd = (mr == kGemmSimdMr && nr == 16);
#else
  const bool use_simd = false;
#endif

  // The thread-local micro-tile (and, on the raw-A path, PackA block) is
  // reused across jc/pc iterations and GEMM calls: no per-call allocation.
  GemmScratch& scratch = LocalGemmScratch();
  scratch.tile.GrowTo(static_cast<size_t>(mr) * nr);
  for (uint32_t jc = 0; jc < n; jc += params.nc) {
    const uint32_t nb = std::min(params.nc, n - jc);
    for (uint32_t pc = 0; pc < k; pc += params.kc) {
      const uint32_t kb = std::min(params.kc, k - pc);
      const BPanels b = b_block(jc, nb, pc, kb);
      for (uint32_t ic = 0; ic < m; ic += params.mc) {
        const uint32_t mb = std::min(params.mc, m - ic);
        RunMacroBlock(a_block(ic, mb, pc, kb, scratch), params, use_simd,
                      ic, mb, jc, nb, pc, kb, b, scratch.tile.data(),
                      store_tile);
      }
    }
  }
}

/// GemmLayer's epilogue for one register tile of slice pc: rows [row0, row0
/// + rows) of the tile go to `out` (Y's panel, at row row0) as (0 + tile)
/// on the first slice and Y + tile after it, the raw-A path's order; the
/// last slice then applies bias + activation. All nr columns are written,
/// so the padding of Y's last panel ends up finite.
void StoreLayerTile(const LayerEpilogue& epilogue, bool first, bool last,
                    uint32_t row0, uint32_t rows, uint32_t nr,
                    const float* tile, float* out) {
  for (uint32_t r = 0; r < rows; ++r) {
    const float* tile_row = tile + static_cast<size_t>(r) * nr;
    float* out_row = out + static_cast<size_t>(r) * nr;
    uint32_t col = 0;
#if defined(DNLR_GEMM_AVX512)
    for (; col + 16 <= nr; col += 16) {
      __m512 v = _mm512_add_ps(
          first ? _mm512_setzero_ps() : _mm512_loadu_ps(out_row + col),
          _mm512_loadu_ps(tile_row + col));
      if (last) v = epilogue.Apply(row0 + r, v);
      _mm512_storeu_ps(out_row + col, v);
    }
#elif defined(DNLR_GEMM_AVX2)
    for (; col + 8 <= nr; col += 8) {
      __m256 v = _mm256_add_ps(
          first ? _mm256_setzero_ps() : _mm256_loadu_ps(out_row + col),
          _mm256_loadu_ps(tile_row + col));
      if (last) v = epilogue.Apply(row0 + r, v);
      _mm256_storeu_ps(out_row + col, v);
    }
#endif
    for (; col < nr; ++col) {
      float v = (first ? 0.0f : out_row[col]) + tile_row[col];
      if (last) v = epilogue.Apply(row0 + r, v);
      out_row[col] = v;
    }
  }
}

}  // namespace

size_t PackedMatrix::Offset(uint32_t ic, uint32_t pc, uint32_t kb) const {
  // Slices are stored pc-major, each RoundUp(rows, mr) x kb; within a
  // slice, every block before ic is a full mc x kb block (mc is a multiple
  // of mr), so the block starts ic * kb floats in.
  return static_cast<size_t>(pc) * RoundUp(rows_, params_.mr) +
         static_cast<size_t>(ic) * kb;
}

const float* PackedMatrix::Block(uint32_t ic, uint32_t pc,
                                 uint32_t kb) const {
  return panels_.data() + Offset(ic, pc, kb);
}

PackedMatrix PackWeights(const Matrix& a, const GemmParams& params) {
  PackedMatrix packed;
  packed.rows_ = a.rows();
  packed.cols_ = a.cols();
  packed.params_ = params;
  const uint32_t m = a.rows();
  const uint32_t k = a.cols();
  // n = 1: the mc / kc tailoring (all the layout depends on) ignores n.
  const GemmParams tailored = params.TailoredTo(m, 1, k);
  packed.panels_.Resize(static_cast<size_t>(RoundUp(m, tailored.mr)) * k);
  for (uint32_t pc = 0; pc < k; pc += tailored.kc) {
    const uint32_t kb = std::min(tailored.kc, k - pc);
    for (uint32_t ic = 0; ic < m; ic += tailored.mc) {
      const uint32_t mb = std::min(tailored.mc, m - ic);
      PackA(a, ic, mb, pc, kb, tailored.mr,
            packed.panels_.data() + packed.Offset(ic, pc, kb));
    }
  }
  return packed;
}

void GemmWithParams(const Matrix& a, const Matrix& b, Matrix* c,
                    const GemmParams& raw_params) {
  const uint32_t m = a.rows();
  const uint32_t k = a.cols();
  const uint32_t n = b.cols();
  DNLR_CHECK_EQ(b.rows(), k);
  DNLR_CHECK_EQ(c->rows(), m);
  DNLR_CHECK_EQ(c->cols(), n);
  const GemmParams params = raw_params.TailoredTo(m, n, k);
  const uint32_t nr = params.nr;
  const size_t packed_a_floats =
      static_cast<size_t>(RoundUp(params.mc, params.mr)) * params.kc;
  // The packed-B panel lives in the thread's scratch; PackB refills it once
  // per (jc, pc) iteration.
  AlignedBuffer& packed_b = LocalGemmScratch().packed_b;
  packed_b.GrowTo(static_cast<size_t>(params.kc) * RoundUp(params.nc, nr));
  c->Fill(0.0f);
  GemmLoop(
      m, k, n, params,
      [&](uint32_t ic, uint32_t mb, uint32_t pc, uint32_t kb,
          GemmScratch& scratch) -> const float* {
        scratch.packed_a.GrowTo(packed_a_floats);
        DNLR_OBS_SPAN(pack_span, "mm.gemm.pack_a_us");
        PackA(a, ic, mb, pc, kb, params.mr, scratch.packed_a.data());
        return scratch.packed_a.data();
      },
      [&](uint32_t jc, uint32_t nb, uint32_t pc, uint32_t kb) {
        DNLR_OBS_SPAN(pack_span, "mm.gemm.pack_b_us");
        PackB(b, pc, kb, jc, nb, nr, packed_b.data());
        return BPanels{packed_b.data(), static_cast<size_t>(kb) * nr};
      },
      [&](uint32_t /*pc*/, uint32_t /*kb*/, uint32_t row0, uint32_t rows,
          uint32_t col0, uint32_t cols, const float* tile) {
        // Accumulate the valid part of the tile into C.
        for (uint32_t r = 0; r < rows; ++r) {
          float* c_row = c->Row(row0 + r) + col0;
          const float* tile_row = tile + static_cast<size_t>(r) * nr;
          for (uint32_t col = 0; col < cols; ++col) {
            c_row[col] += tile_row[col];
          }
        }
      });
  // Debug builds sweep the result for NaN/Inf: a single poisoned input
  // element silently corrupts whole output panels otherwise.
  for (size_t i = 0; i < c->size(); ++i) DNLR_DCHECK_FINITE(c->data()[i]);
}

void GemmLayer(const PackedMatrix& a, const PanelMatrix& x,
               const LayerEpilogue& epilogue, PanelMatrix* y) {
  const uint32_t m = a.rows();
  const uint32_t k = a.cols();
  const uint32_t n = x.cols();
  const GemmParams params = a.params().TailoredTo(m, n, k);
  const uint32_t nr = params.nr;
  DNLR_CHECK_EQ(x.rows(), k);
  DNLR_CHECK_EQ(x.nr(), nr);
  DNLR_CHECK_GT(k, 0u);
  y->Reshape(m, n, nr);
  // X's panels already are the packed B: slice [pc, pc + kb) of panel p
  // starts pc * nr floats into it, and panels are k * nr floats apart.
  const size_t x_panel_stride = static_cast<size_t>(k) * nr;
  GemmLoop(
      m, k, n, params,
      [&](uint32_t ic, uint32_t /*mb*/, uint32_t pc, uint32_t kb,
          GemmScratch& /*scratch*/) { return a.Block(ic, pc, kb); },
      [&](uint32_t jc, uint32_t /*nb*/, uint32_t pc, uint32_t /*kb*/) {
        return BPanels{x.Panel(jc / nr) + static_cast<size_t>(pc) * nr,
                       x_panel_stride};
      },
      [&](uint32_t pc, uint32_t kb, uint32_t row0, uint32_t rows,
          uint32_t col0, uint32_t /*cols*/, const float* tile) {
        StoreLayerTile(epilogue, pc == 0, pc + kb == k, row0, rows, nr, tile,
                       y->Panel(col0 / nr) + static_cast<size_t>(row0) * nr);
      });
  // Debug builds sweep the result, padding included, for NaN/Inf.
  for (size_t i = 0; i < y->size(); ++i) DNLR_DCHECK_FINITE(y->Panel(0)[i]);
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  GemmWithParams(a, b, c, GemmParams());
}

void GemmReference(const Matrix& a, const Matrix& b, Matrix* c) {
  const uint32_t m = a.rows();
  const uint32_t k = a.cols();
  const uint32_t n = b.cols();
  DNLR_CHECK_EQ(b.rows(), k);
  DNLR_CHECK_EQ(c->rows(), m);
  DNLR_CHECK_EQ(c->cols(), n);
  c->Fill(0.0f);
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t p = 0; p < k; ++p) {
      const float a_val = a.At(i, p);
      const float* b_row = b.Row(p);
      float* c_row = c->Row(i);
      for (uint32_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

bool GemmHasSimd() {
#ifdef DNLR_GEMM_SIMD
  return true;
#else
  return false;
#endif
}

double MeasureGemmGflops(uint32_t m, uint32_t k, uint32_t n, int repeats) {
  // The served kernel: weights packed once, outside the timed region, and
  // a ReLU6 layer over panel-resident activations.
  Rng rng(99);
  Matrix a(m, k);
  a.FillUniform(rng);
  const PackedMatrix packed = PackWeights(a);
  PanelMatrix x;
  x.Reshape(k, n, packed.params().nr);
  for (uint32_t j = 0; j < x.padded_cols(); ++j) {
    for (uint32_t r = 0; r < k; ++r) {
      x.At(r, j) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  std::vector<float> bias(m);
  for (float& value : bias) value = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const LayerEpilogue epilogue{bias.data(), /*relu6=*/true};
  PanelMatrix y;
  const double micros =
      TimeMicros([&] { GemmLayer(packed, x, epilogue, &y); }, repeats);
  const double flops = 2.0 * m * n * k;
  return flops / (micros * 1e-6) / 1e9;
}

double MeasureGemmGflopsWithParams(const GemmParams& params, uint32_t m,
                                   uint32_t k, uint32_t n, int repeats) {
  Rng rng(99);
  Matrix a(m, k);
  Matrix b(k, n);
  Matrix c(m, n);
  a.FillUniform(rng);
  b.FillUniform(rng);
  const double micros =
      TimeMicros([&] { GemmWithParams(a, b, &c, params); }, repeats);
  const double flops = 2.0 * m * n * k;
  return flops / (micros * 1e-6) / 1e9;
}

}  // namespace dnlr::mm

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/matrix.h"
#include "mm/panel.h"
#include "mm/sdmm.h"
#include "mm_test_util.h"

namespace dnlr::mm {
namespace {

TEST(MatrixTest, InitializerListAndAccessors) {
  Matrix m({{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 6.0f);
  EXPECT_FLOAT_EQ(m.Row(1)[0], 4.0f);
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 5);
  for (uint32_t r = 0; r < 3; ++r) {
    for (uint32_t c = 0; c < 5; ++c) EXPECT_FLOAT_EQ(m.At(r, c), 0.0f);
  }
}

TEST(MatrixTest, TransposedRoundTrip) {
  Rng rng(1);
  Matrix m(7, 11);
  m.FillNormal(rng);
  Matrix tt = m.Transposed().Transposed();
  EXPECT_FLOAT_EQ(m.MaxAbsDiff(tt), 0.0f);
}

TEST(MatrixTest, SparsityCountsZeros) {
  Matrix m({{0.0f, 1.0f}, {0.0f, 0.0f}});
  EXPECT_DOUBLE_EQ(m.Sparsity(), 0.75);
}

TEST(GemmTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 6), 0u);
  EXPECT_EQ(RoundUp(1, 6), 6u);
  EXPECT_EQ(RoundUp(6, 6), 6u);
  EXPECT_EQ(RoundUp(7, 6), 12u);
}

TEST(GemmTest, TailoringClampsAndRounds) {
  GemmParams base;
  // Small problem: every blocking parameter shrinks to the (rounded)
  // problem size.
  GemmParams small = base.TailoredTo(10, 20, 30);
  EXPECT_EQ(small.mc, RoundUp(10, base.mr));
  EXPECT_EQ(small.nc, RoundUp(20, base.nr));
  EXPECT_EQ(small.kc, 30u);
  // Huge problem: parameters stay at their defaults.
  GemmParams big = base.TailoredTo(100000, 100000, 100000);
  EXPECT_EQ(big.mc, base.mc);
  EXPECT_EQ(big.nc, base.nc);
  EXPECT_EQ(big.kc, base.kc);
}

TEST(GemmTest, TinyExactProduct) {
  Matrix a({{1.0f, 2.0f}, {3.0f, 4.0f}});
  Matrix b({{5.0f, 6.0f}, {7.0f, 8.0f}});
  Matrix c(2, 2);
  Gemm(a, b, &c);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

/// Whether two same-shaped matrices hold bit-for-bit equal entries.
bool BitwiseEqual(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Whether every stored entry of `panels`, padding included, is finite.
bool AllFinite(const PanelMatrix& panels) {
  for (uint32_t r = 0; r < panels.rows(); ++r) {
    for (uint32_t c = 0; c < panels.padded_cols(); ++c) {
      if (!std::isfinite(panels.At(r, c))) return false;
    }
  }
  return true;
}

/// Reshapes `y` to rows x cols in nr-wide panels and sets every stored
/// float, padding included, to NaN. PanelMatrix::Reshape does not clear, so
/// a layer kernel that skips an entry or adds into what was there leaves a
/// NaN behind for BitwiseEqual or AllFinite to catch.
void Poison(uint32_t rows, uint32_t cols, uint32_t nr, PanelMatrix* y) {
  y->Reshape(rows, cols, nr);
  std::fill(y->Panel(0), y->Panel(0) + y->size(),
            std::numeric_limits<float>::quiet_NaN());
}

/// The separate bias + activation pass the fused layer kernels replace:
/// z += bias, then ReLU6 when `relu6`, element by element in scalar code.
void BiasActivateReference(const std::vector<float>& bias, bool relu6,
                           Matrix* z) {
  for (uint32_t o = 0; o < z->rows(); ++o) {
    for (uint32_t j = 0; j < z->cols(); ++j) {
      z->At(o, j) += bias[o];
      if (relu6) z->At(o, j) = Relu6(z->At(o, j));
    }
  }
}

/// Layer biases around the ReLU6 knees, every third one -0.0f.
std::vector<float> LayerBias(uint32_t m, Rng& rng) {
  std::vector<float> bias(m);
  for (uint32_t o = 0; o < m; ++o) {
    bias[o] = o % 3 == 0 ? -0.0f : static_cast<float>(rng.Normal(0.0, 3.0));
  }
  return bias;
}

// Property sweep: the blocked GEMM agrees with the reference triple loop on
// shapes that exercise every edge case of the micro/macro blocking, and A
// packed once by PackWeights gives bit-for-bit the raw-A product.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  // Mix the shape into a seed in uint64 space: the products overflow int.
  Rng rng(static_cast<uint64_t>(m) * 73856093u +
          static_cast<uint64_t>(k) * 19349663u +
          static_cast<uint64_t>(n) * 83492791u);
  Matrix a(m, k);
  Matrix b(k, n);
  a.FillNormal(rng);
  b.FillNormal(rng);
  Matrix c(m, n);
  Matrix expected(m, n);
  Gemm(a, b, &c);
  GemmReference(a, b, &expected);
  // FMA reassociation changes rounding; tolerance scales with k.
  const float tol = 1e-4f * std::sqrt(static_cast<float>(k)) + 1e-5f;
  EXPECT_LE(c.MaxAbsDiff(expected), tol)
      << "shape " << m << "x" << k << "x" << n;

  // The fused layer over packed weights and panel B, with and without
  // ReLU6: bit for bit the raw-A product plus a separate bias pass, within
  // tolerance of the reference, and finite in the padding columns.
  const std::vector<float> bias = LayerBias(m, rng);
  const PackedMatrix packed = PackWeights(a);
  const PanelMatrix x = ToPanels(b, packed.params().nr);
  PanelMatrix y;
  for (const bool relu6 : {false, true}) {
    Matrix raw = c;
    BiasActivateReference(bias, relu6, &raw);
    Matrix reference = expected;
    BiasActivateReference(bias, relu6, &reference);
    Poison(m, n, packed.params().nr, &y);
    GemmLayer(packed, x, LayerEpilogue{bias.data(), relu6}, &y);
    ASSERT_EQ(y.rows(), static_cast<uint32_t>(m));
    ASSERT_EQ(y.cols(), static_cast<uint32_t>(n));
    const Matrix fused = FromPanels(y);
    EXPECT_TRUE(BitwiseEqual(fused, raw))
        << "shape " << m << "x" << k << "x" << n << " relu6 " << relu6;
    EXPECT_LE(fused.MaxAbsDiff(reference), tol);
    EXPECT_TRUE(AllFinite(y));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(
        std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 1),
        std::make_tuple(6, 16, 16), std::make_tuple(5, 3, 15),
        std::make_tuple(7, 17, 19), std::make_tuple(12, 32, 32),
        std::make_tuple(13, 33, 31), std::make_tuple(64, 64, 64),
        std::make_tuple(100, 136, 64), std::make_tuple(136, 100, 1),
        std::make_tuple(73, 257, 129),   // crosses kc boundary when kc=256
        std::make_tuple(200, 50, 1000),  // wide C
        std::make_tuple(1, 300, 40),     // single-row A
        std::make_tuple(300, 1, 40)));   // rank-1 update

/// Row counts around the default blocking of this build's kernel: one row,
/// either side of mr, one past mc; plus 5 (inside one tile for every SIMD
/// mr) and 150 (past two mc blocks with a ragged last tile), sorted and
/// deduplicated.
std::vector<int> BlockingEdgeRows() {
  const GemmParams params;
  const int mr = static_cast<int>(params.mr);
  const int mc = static_cast<int>(params.mc);
  std::vector<int> rows = {1, 5, mr - 1, mr + 1, mc + 1, 150};
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// Edges of the default blocking: m crosses mr and mc, k crosses kc = 256
// (several pc slices of the packed A, summed by the fused layer's
// epilogue), n covers a single column, a ragged nr tail (a padded last
// panel), and the scorers' batch width.
INSTANTIATE_TEST_SUITE_P(
    BlockingEdges, GemmShapeTest,
    ::testing::Combine(::testing::ValuesIn(BlockingEdgeRows()),
                       ::testing::Values(1, 255, 257, 600),
                       ::testing::Values(1, 17, 64, 100)));

/// The served layer as the SIMD kernels compute it, in scalar code: each
/// entry is a std::fma chain from 0 over one kc slice in k order, the
/// slices are summed as (0 + s0) + s1 + ..., then the bias is added and
/// ReLU6 applied.
Matrix FmaLayerReference(const Matrix& a, const Matrix& b,
                         const std::vector<float>& bias, bool relu6,
                         uint32_t kc) {
  Matrix y(a.rows(), b.cols());
  for (uint32_t i = 0; i < a.rows(); ++i) {
    for (uint32_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (uint32_t pc = 0; pc < a.cols(); pc += kc) {
        float slice = 0.0f;
        for (uint32_t p = pc; p < std::min(pc + kc, a.cols()); ++p) {
          slice = std::fma(a.At(i, p), b.At(p, j), slice);
        }
        sum += slice;
      }
      const float z = sum + bias[i];
      y.At(i, j) = relu6 ? Relu6(z) : z;
    }
  }
  return y;
}

// The bits of the served layer are pinned across ISAs: whichever SIMD
// micro-kernel the build compiled in (AVX-512F 12x16 or AVX2 6x16), the
// default blocking gives bit for bit the scalar FMA reference, so a model
// scores the same on either build.
TEST(GemmTest, LayerMatchesScalarFmaReferenceBitwise) {
  if (!GemmHasSimd()) GTEST_SKIP() << "no SIMD micro-kernel compiled in";
  const GemmParams params;
  const uint32_t mr = params.mr;
  const uint32_t mc = params.mc;
  const uint32_t kc = params.kc;
  // m x k x n: single entries, the scoring layer, either side of mr, past
  // mc and kc, a hidden layer at the batch width, three kc slices, and two
  // mc blocks with a half tile and a ragged panel.
  const std::tuple<uint32_t, uint32_t, uint32_t> shapes[] = {
      {1, 1, 1},          {1, 25, 64},           {mr - 1, 17, 16},
      {mr + 1, 100, 64},  {mc + 1, kc + 1, 17},  {100, 200, 64},
      {50, 2 * kc + 1, 100}, {2 * mc + mr / 2, 136, 33}};
  for (const auto& [m, k, n] : shapes) {
    Rng rng(static_cast<uint64_t>(m) * 7919u + k * 131u + n);
    Matrix a(m, k);
    Matrix b(k, n);
    a.FillNormal(rng);
    b.FillNormal(rng);
    const std::vector<float> bias = LayerBias(m, rng);
    const PackedMatrix packed = PackWeights(a);
    const PanelMatrix x = ToPanels(b, params.nr);
    PanelMatrix y;
    for (const bool relu6 : {false, true}) {
      Poison(m, n, params.nr, &y);
      GemmLayer(packed, x, LayerEpilogue{bias.data(), relu6}, &y);
      EXPECT_TRUE(BitwiseEqual(FromPanels(y),
                               FmaLayerReference(a, b, bias, relu6, kc)))
          << "shape " << m << "x" << k << "x" << n << " relu6 " << relu6;
    }
  }
}

TEST(GemmTest, CustomMicroTileScalarPath) {
  // A non-default micro-tile disables the SIMD kernel; results must agree.
  GemmParams params;
  params.mr = 4;
  params.nr = 5;
  params.mc = 8;
  params.kc = 16;
  params.nc = 10;
  Rng rng(2);
  Matrix a(33, 47);
  Matrix b(47, 29);
  a.FillNormal(rng);
  b.FillNormal(rng);
  Matrix c(33, 29);
  Matrix expected(33, 29);
  GemmWithParams(a, b, &c, params);
  GemmReference(a, b, &expected);
  EXPECT_LE(c.MaxAbsDiff(expected), 1e-3f);
  // The fused layer runs the same scalar micro-kernel on the custom
  // blocking the weights were packed for: 5-wide panels (a padded last
  // one) and three kc slices summed in the epilogue.
  const std::vector<float> bias = LayerBias(33, rng);
  const PackedMatrix packed = PackWeights(a, params);
  const PanelMatrix x = ToPanels(b, params.nr);
  PanelMatrix y;
  for (const bool relu6 : {false, true}) {
    Matrix raw = c;
    BiasActivateReference(bias, relu6, &raw);
    Poison(33, 29, params.nr, &y);
    GemmLayer(packed, x, LayerEpilogue{bias.data(), relu6}, &y);
    EXPECT_EQ(y.nr(), params.nr);
    EXPECT_TRUE(BitwiseEqual(FromPanels(y), raw)) << "relu6 " << relu6;
    EXPECT_TRUE(AllFinite(y));
  }
}

TEST(GemmTest, LayerEpilogueKeepsRelu6Semantics) {
  // ReLU6 keeps -0.0f and NaN as nn::Relu6 does, in both the scalar and
  // the vector form the epilogues use.
  EXPECT_TRUE(std::signbit(Relu6(-0.0f)));
  EXPECT_TRUE(std::isnan(Relu6(NAN)));
#if defined(__AVX2__)
  const float specials[16] = {-0.0f,     0.0f,     -1.0f,   1e-30f,
                              5.999f,    6.0f,     6.0001f, 1e30f,
                              -INFINITY, INFINITY, NAN,     -NAN,
                              3.0f,      -6.0f,    7.5f,    -1e-30f};
  // Each of `width` lanes, bit for bit, the scalar Relu6 of specials[i...].
  const auto expect_scalar_lanes = [&](const float* lanes, size_t i,
                                       size_t width) {
    for (size_t lane = 0; lane < width; ++lane) {
      const float scalar = Relu6(specials[i + lane]);
      EXPECT_EQ(std::memcmp(&lanes[lane], &scalar, sizeof(float)), 0)
          << "input " << specials[i + lane] << " width " << width;
    }
  };
  for (size_t i = 0; i < 16; i += 8) {
    float lanes[8];
    _mm256_storeu_ps(lanes, Relu6(_mm256_loadu_ps(specials + i)));
    expect_scalar_lanes(lanes, i, 8);
  }
#if defined(__AVX512F__)
  float lanes[16];
  _mm512_storeu_ps(lanes, Relu6(_mm512_loadu_ps(specials)));
  expect_scalar_lanes(lanes, 0, 16);
#endif
#endif
  // Through the fused layer, with A = [1] and a -0.0f bias, each entry's
  // sum is ((0 + x) + -0.0f): -0.0f products become +0.0f exactly as in
  // the raw-A Gemm plus a separate bias pass.
  const std::vector<float> values = {-0.0f, 0.0f,    -1.0f, 1e-30f,
                                     5.999f, 6.0f,   6.0001f, 1e30f,
                                     3.0f,   -6.0f,  7.5f,  -1e-30f,
                                     -0.0f,  -0.0f,  2.0f,  -0.0f, 0.5f};
  const Matrix a({{1.0f}});
  Matrix b(1, static_cast<uint32_t>(values.size()));
  for (uint32_t j = 0; j < b.cols(); ++j) b.At(0, j) = values[j];
  const std::vector<float> bias(1, -0.0f);
  PanelMatrix y;
  for (const bool relu6 : {false, true}) {
    Matrix raw(1, b.cols());
    Gemm(a, b, &raw);
    BiasActivateReference(bias, relu6, &raw);
    Poison(1, b.cols(), GemmParams().nr, &y);
    GemmLayer(PackWeights(a), ToPanels(b, GemmParams().nr),
              LayerEpilogue{bias.data(), relu6}, &y);
    EXPECT_TRUE(BitwiseEqual(FromPanels(y), raw)) << "relu6 " << relu6;
    EXPECT_TRUE(AllFinite(y));
  }
}

TEST(GemmTest, OverwritesPreviousContents) {
  Matrix a({{1.0f}});
  Matrix b({{2.0f}});
  Matrix c(1, 1);
  c.Fill(123.0f);
  Gemm(a, b, &c);
  EXPECT_FLOAT_EQ(c.At(0, 0), 2.0f);
}

TEST(GemmTest, MeasureGflopsPositive) {
  const double gflops = MeasureGemmGflops(64, 64, 64, 2);
  EXPECT_GT(gflops, 0.01);
}

TEST(CsrTest, FromDenseRoundTrip) {
  Matrix dense({{0.0f, 1.5f, 0.0f}, {0.0f, 0.0f, 0.0f}, {-2.0f, 0.0f, 3.0f}});
  CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.cols(), 3u);
  EXPECT_EQ(csr.NumActiveRows(), 2u);
  EXPECT_EQ(csr.NumActiveCols(), 3u);
  EXPECT_FLOAT_EQ(csr.ToDense().MaxAbsDiff(dense), 0.0f);
}

TEST(CsrTest, SparsityFraction) {
  Matrix dense(10, 10);
  dense.At(0, 0) = 1.0f;
  CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_DOUBLE_EQ(csr.Sparsity(), 0.99);
}

TEST(CsrTest, EpsilonThresholding) {
  Matrix dense({{0.05f, 1.0f}});
  CsrMatrix csr = CsrMatrix::FromDense(dense, 0.1f);
  EXPECT_EQ(csr.nnz(), 1u);
  EXPECT_FLOAT_EQ(csr.values()[0], 1.0f);
}

TEST(CsrTest, ExplicitConstructionValidates) {
  CsrMatrix csr(2, 3, {0, 1, 2}, {2, 0}, {5.0f, -1.0f});
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_FLOAT_EQ(csr.ToDense().At(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(csr.ToDense().At(1, 0), -1.0f);
}

// Property sweep for the sparse kernel across shapes, sparsities and batch
// sizes, including non-multiple-of-8 batches (scalar remainder path).
class SdmmTest : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SdmmTest, MatchesReference) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + k * 37 + n * 41) + 5);
  Matrix dense(m, k);
  for (uint32_t r = 0; r < dense.rows(); ++r) {
    for (uint32_t c = 0; c < dense.cols(); ++c) {
      if (rng.Uniform() >= sparsity) {
        dense.At(r, c) = static_cast<float>(rng.Normal());
      }
    }
  }
  CsrMatrix a = CsrMatrix::FromDense(dense);
  Matrix b(k, n);
  b.FillNormal(rng);
  const PanelMatrix x = ToPanels(b, GemmParams().nr);

  // With a zero bias and no activation the served layer is the bare
  // product: it must agree with Algorithm 1 and with the dense product of
  // the expanded matrix.
  const std::vector<float> zero_bias(m, 0.0f);
  PanelMatrix y;
  SdmmLayer(a, x, LayerEpilogue{zero_bias.data(), false}, &y);
  const Matrix product = FromPanels(y);
  Matrix expected(m, n);
  SdmmReference(a, b, &expected);
  EXPECT_LE(product.MaxAbsDiff(expected), 1e-3f)
      << "shape " << m << "x" << k << "x" << n << " sparsity " << sparsity;
  Matrix dense_out(m, n);
  GemmReference(dense, b, &dense_out);
  EXPECT_LE(product.MaxAbsDiff(dense_out), 1e-3f);

  // With and without ReLU6: bit for bit the scalar oracle (inactive rows
  // included), and finite padding.
  const std::vector<float> bias = LayerBias(m, rng);
  for (const bool relu6 : {false, true}) {
    const LayerEpilogue epilogue{bias.data(), relu6};
    Poison(m, n, GemmParams().nr, &y);
    SdmmLayer(a, x, epilogue, &y);
    ASSERT_EQ(y.rows(), static_cast<uint32_t>(m));
    ASSERT_EQ(y.cols(), static_cast<uint32_t>(n));
    EXPECT_TRUE(BitwiseEqual(FromPanels(y), SdmmLayerOracle(a, b, epilogue)))
        << "shape " << m << "x" << k << "x" << n << " relu6 " << relu6;
    EXPECT_TRUE(AllFinite(y));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SdmmTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 0.0),
                      std::make_tuple(8, 8, 8, 0.5),
                      std::make_tuple(50, 136, 64, 0.97),
                      std::make_tuple(100, 136, 16, 0.99),
                      std::make_tuple(400, 136, 64, 0.996),
                      std::make_tuple(33, 47, 13, 0.9),   // scalar remainder
                      std::make_tuple(20, 30, 40, 1.0),   // fully sparse
                      std::make_tuple(20, 30, 40, 0.0),   // fully dense
                      std::make_tuple(64, 64, 33, 0.8),
                      std::make_tuple(10, 200, 7, 0.95)));

// The dense kernel's blocking-edge grid: m crosses 6 and 72, k crosses 256,
// n is one column, a padded 16-wide panel pair, and the batch width.
INSTANTIATE_TEST_SUITE_P(
    BlockingEdges, SdmmTest,
    ::testing::Combine(::testing::Values(1, 5, 73, 150),
                       ::testing::Values(1, 255, 257, 600),
                       ::testing::Values(1, 17, 64),
                       ::testing::Values(0.9)));

// A row with no non-zeros sums to 0, so its outputs are the epilogue of 0:
// act(bias[row]) in every column.
TEST(SdmmTest, InactiveRowsProduceZeroRows) {
  Matrix dense(4, 4);
  dense.At(1, 2) = 3.0f;  // only row 1 active
  CsrMatrix a = CsrMatrix::FromDense(dense);
  Rng rng(9);
  Matrix b(4, 8);
  b.FillNormal(rng);
  const std::vector<float> bias = {0.5f, -0.25f, 7.0f, -2.0f};
  const LayerEpilogue epilogue{bias.data(), /*relu6=*/true};
  PanelMatrix y;
  SdmmLayer(a, ToPanels(b, GemmParams().nr), epilogue, &y);
  for (uint32_t j = 0; j < 8; ++j) {
    EXPECT_EQ(y.At(0, j), 0.5f);
    EXPECT_EQ(y.At(2, j), 6.0f);
    EXPECT_EQ(y.At(3, j), 0.0f);
    EXPECT_EQ(y.At(1, j), epilogue.Apply(1, 3.0f * b.At(2, j)));
  }
}

TEST(SdmmTest, MeasureHelpersReturnPositive) {
  Matrix dense(32, 32);
  dense.At(3, 4) = 1.0f;
  CsrMatrix a = CsrMatrix::FromDense(dense);
  EXPECT_GT(MeasureSdmmMicros(a, 16, 2), 0.0);
  EXPECT_GT(MeasureSdmmReferenceMicros(a, 16, 2), 0.0);
}

}  // namespace
}  // namespace dnlr::mm

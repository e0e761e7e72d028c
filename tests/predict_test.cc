#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "mm/gemm.h"
#include "mm/sdmm.h"
#include "predict/architecture.h"
#include "predict/dense_predictor.h"
#include "predict/network_time.h"
#include "predict/sparse_predictor.h"

namespace dnlr::predict {
namespace {

TEST(ArchitectureTest, ParsePaperNotation) {
  auto arch = Architecture::Parse("400x200x200x100", 136);
  ASSERT_TRUE(arch.ok());
  EXPECT_EQ(arch->input_dim, 136u);
  EXPECT_EQ(arch->hidden, (std::vector<uint32_t>{400, 200, 200, 100}));
  EXPECT_EQ(arch->output_dim, 1u);
  EXPECT_EQ(arch->ToString(), "400x200x200x100");
}

TEST(ArchitectureTest, ParseUnicodeSeparator) {
  auto arch = Architecture::Parse("500\xC3\x97" "100", 136);
  ASSERT_TRUE(arch.ok());
  EXPECT_EQ(arch->hidden, (std::vector<uint32_t>{500, 100}));
}

TEST(ArchitectureTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Architecture::Parse("", 10).ok());
  EXPECT_FALSE(Architecture::Parse("axb", 10).ok());
  EXPECT_FALSE(Architecture::Parse("100x0x50", 10).ok());
}

TEST(ArchitectureTest, LayerShapesIncludeScoringLayer) {
  Architecture arch(136, {400, 200});
  const auto shapes = arch.LayerShapes();
  ASSERT_EQ(shapes.size(), 3u);
  EXPECT_EQ(shapes[0], std::make_pair(400u, 136u));
  EXPECT_EQ(shapes[1], std::make_pair(200u, 400u));
  EXPECT_EQ(shapes[2], std::make_pair(1u, 200u));
  EXPECT_EQ(arch.NumLayers(), 3u);
}

TEST(ArchitectureTest, MultiplyCountMatchesEquation3) {
  Architecture arch(136, {400, 200});
  // f*l1 + l1*l2 + l2*1.
  EXPECT_EQ(arch.MultiplyCount(), 136u * 400 + 400u * 200 + 200u);
}

DenseTimePredictor SyntheticDensePredictor() {
  // Three k-zones at n = 1000, mimicking Figure 6's structure.
  std::vector<DenseCalibrationPoint> points;
  for (const uint32_t m : {64u, 256u, 1024u}) {
    points.push_back({m, 64, 1000, 90.0});
    points.push_back({m, 256, 1000, 110.0});
    points.push_back({m, 1024, 1000, 130.0});
  }
  return DenseTimePredictor(points);
}

TEST(DensePredictorTest, NearestNeighbourPicksMatchingZone) {
  DenseTimePredictor predictor = SyntheticDensePredictor();
  EXPECT_DOUBLE_EQ(predictor.PredictGflops(256, 64, 1000), 90.0);
  EXPECT_DOUBLE_EQ(predictor.PredictGflops(256, 300, 1000), 110.0);
  EXPECT_DOUBLE_EQ(predictor.PredictGflops(200, 900, 1000), 130.0);
}

TEST(DensePredictorTest, GemmMicrosFollowsFlopFormula) {
  DenseTimePredictor predictor = SyntheticDensePredictor();
  // 2*m*k*n / (gflops * 1e3) microseconds.
  const double micros = predictor.PredictGemmMicros(256, 64, 1000);
  EXPECT_NEAR(micros, 2.0 * 256 * 64 * 1000 / (90.0 * 1e3), 1e-9);
}

TEST(DensePredictorTest, ForwardTimeSumsLayers) {
  DenseTimePredictor predictor = SyntheticDensePredictor();
  Architecture arch(136, {400, 200, 100});
  const auto layers = predictor.PredictLayerMicros(arch, 64);
  ASSERT_EQ(layers.size(), 4u);  // 3 hidden + scoring layer
  double total = 0.0;
  for (const double micros : layers) total += micros;
  EXPECT_NEAR(predictor.PredictForwardMicrosPerDoc(arch, 64), total / 64,
              1e-12);
}

TEST(DensePredictorTest, ImpactPercentSumsTo100) {
  DenseTimePredictor predictor = SyntheticDensePredictor();
  Architecture arch(136, {400, 200, 200, 100});
  const auto impact = predictor.PredictLayerImpactPercent(arch, 64);
  double sum = 0.0;
  for (const double pct : impact) sum += pct;
  EXPECT_NEAR(sum, 100.0, 1e-9);
  // The first layer dominates in the paper's architectures.
  EXPECT_GT(impact[0], impact[3]);
}

TEST(DensePredictorTest, PrunedTimeDropsFirstLayer) {
  DenseTimePredictor predictor = SyntheticDensePredictor();
  Architecture arch(136, {400, 200});
  const auto layers = predictor.PredictLayerMicros(arch, 64);
  const double pruned = predictor.PredictPrunedForwardMicrosPerDoc(arch, 64);
  EXPECT_NEAR(pruned, (layers[1] + layers[2]) / 64, 1e-12);
  EXPECT_LT(pruned, predictor.PredictForwardMicrosPerDoc(arch, 64));
}

TEST(DensePredictorTest, SerializeRoundTrip) {
  DenseTimePredictor predictor = SyntheticDensePredictor();
  auto parsed = DenseTimePredictor::Deserialize(predictor.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->PredictGflops(256, 300, 1000),
                   predictor.PredictGflops(256, 300, 1000));
}

TEST(DensePredictorTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DenseTimePredictor::Deserialize("nope").ok());
  EXPECT_FALSE(DenseTimePredictor::Deserialize("dense_predictor 0\n").ok());
}

TEST(DensePredictorTest, CalibrationOnTinyGridPredictsRealTimes) {
  DenseCalibrationConfig config;
  config.m_values = {32, 128};
  config.k_values = {32, 128};
  config.n_values = {64};
  config.repeats = 2;
  DenseTimePredictor predictor = DenseTimePredictor::Calibrate(config);
  EXPECT_EQ(predictor.points().size(), 4u);
  // Prediction at a calibrated shape should be close to a fresh
  // measurement (same machine, warm caches); allow generous tolerance for
  // noise on a shared core.
  const double measured_gflops = mm::MeasureGemmGflops(128, 128, 64, 3);
  const double predicted_gflops = predictor.PredictGflops(128, 128, 64);
  EXPECT_GT(predicted_gflops, measured_gflops * 0.2);
  EXPECT_LT(predicted_gflops, measured_gflops * 5.0);
}

TEST(SparsePredictorTest, Equation5) {
  SparseTimePredictor predictor(/*la=*/0.01, /*lb=*/0.002, /*lc=*/0.004);
  // T = n * (ar*Lc + nnz*La + ac*Lb).
  EXPECT_NEAR(predictor.PredictMicros(10, 100, 20, 64),
              64 * (10 * 0.004 + 100 * 0.01 + 20 * 0.002), 1e-12);
}

TEST(SparsePredictorTest, CsrOverloadReadsStructure) {
  SparseTimePredictor predictor(0.01, 0.002, 0.004);
  mm::Matrix dense(4, 6);
  dense.At(0, 1) = 1.0f;
  dense.At(0, 2) = 2.0f;
  dense.At(2, 1) = 3.0f;
  const mm::CsrMatrix csr = mm::CsrMatrix::FromDense(dense);
  // active rows 2, nnz 3, active cols 2.
  EXPECT_NEAR(predictor.PredictMicros(csr, 16),
              predictor.PredictMicros(2, 3, 2, 16), 1e-12);
}

TEST(SparsePredictorTest, WorstCaseMonotoneInSparsity) {
  SparseTimePredictor predictor(0.01, 0.002, 0.004);
  double previous = 1e300;
  for (const double sparsity : {0.5, 0.8, 0.9, 0.95, 0.99}) {
    const double micros = predictor.PredictMicrosWorstCase(400, 136, sparsity, 64);
    EXPECT_LT(micros, previous);
    previous = micros;
  }
}

TEST(SparsePredictorTest, SerializeRoundTrip) {
  SparseTimePredictor predictor(0.01, 0.002, 0.004);
  auto parsed = SparseTimePredictor::Deserialize(predictor.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->la(), 0.01);
  EXPECT_DOUBLE_EQ(parsed->lb(), 0.002);
  EXPECT_DOUBLE_EQ(parsed->lc(), 0.004);
  EXPECT_FALSE(SparseTimePredictor::Deserialize("bogus").ok());
}

TEST(SparsePredictorTest, CalibrationPredictsRealSdmmTimes) {
  SparseCalibrationConfig config;
  config.sizes = {128, 256};
  config.batch_sizes = {16, 32};
  config.repeats = 5;
  SparseTimePredictor predictor = SparseTimePredictor::Calibrate(config);
  EXPECT_GT(predictor.la(), 0.0);
  EXPECT_GT(predictor.lb(), 0.0);
  EXPECT_NEAR(predictor.lc(), 2.0 * predictor.lb(), 1e-12);

  // Validate on a realistic pruned-first-layer shape.
  Rng rng(5);
  mm::Matrix dense(200, 136);
  for (uint32_t r = 0; r < dense.rows(); ++r) {
    for (uint32_t c = 0; c < dense.cols(); ++c) {
      if (rng.Uniform() < 0.03) dense.At(r, c) = static_cast<float>(rng.Normal());
    }
  }
  const mm::CsrMatrix csr = mm::CsrMatrix::FromDense(dense);
  const double measured = mm::MeasureSdmmMicros(csr, 32, 7);
  const double predicted = predictor.PredictMicros(csr, 32);
  // Order-of-magnitude agreement is what the predictor promises; the paper
  // reports sub-30 % errors on a quiet machine.
  EXPECT_GT(predicted, measured / 8.0);
  EXPECT_LT(predicted, measured * 8.0);
}

TEST(NetworkTimeTest, HybridEstimateConsistency) {
  DenseTimePredictor dense = SyntheticDensePredictor();
  SparseTimePredictor sparse(0.001, 0.0002, 0.0004);
  Architecture arch(136, {400, 200, 200, 100});
  const HybridTimeEstimate estimate =
      EstimateHybridTime(arch, 64, 0.987, dense, sparse);
  EXPECT_GT(estimate.dense_us_per_doc, estimate.pruned_us_per_doc);
  EXPECT_GE(estimate.hybrid_us_per_doc, estimate.pruned_us_per_doc);
  EXPECT_LT(estimate.hybrid_us_per_doc, estimate.dense_us_per_doc);
  EXPECT_GT(estimate.first_layer_impact_percent, 0.0);
  EXPECT_LT(estimate.first_layer_impact_percent, 100.0);
}

TEST(NetworkTimeTest, SpeedupGrowsWithSparsity) {
  DenseTimePredictor dense = SyntheticDensePredictor();
  SparseTimePredictor sparse(0.001, 0.0002, 0.0004);
  double previous = 0.0;
  for (const double sparsity : {0.80, 0.90, 0.95, 0.99}) {
    const double speedup =
        PredictSparsitySpeedup(400, 136, sparsity, 64, dense, sparse);
    EXPECT_GT(speedup, previous);
    previous = speedup;
  }
}

}  // namespace
}  // namespace dnlr::predict

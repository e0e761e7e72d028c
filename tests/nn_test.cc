#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/normalize.h"
#include "data/synthetic.h"
#include "gbdt/booster.h"
#include "metrics/metrics.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/sdmm.h"
#include "mm_test_util.h"
#include "nn/adam.h"
#include "nn/distill.h"
#include "nn/mlp.h"
#include "nn/scorer.h"
#include "nn/trainer.h"

namespace dnlr::nn {
namespace {

using predict::Architecture;

TEST(ActivationTest, Relu6Clamps) {
  EXPECT_FLOAT_EQ(Relu6(-1.0f), 0.0f);
  EXPECT_FLOAT_EQ(Relu6(0.0f), 0.0f);
  EXPECT_FLOAT_EQ(Relu6(3.0f), 3.0f);
  EXPECT_FLOAT_EQ(Relu6(6.0f), 6.0f);
  EXPECT_FLOAT_EQ(Relu6(9.0f), 6.0f);
  // The compares pass -0.0f through: its sign bit survives.
  EXPECT_TRUE(std::signbit(Relu6(-0.0f)));
}

TEST(ActivationTest, Relu6GradSupport) {
  EXPECT_FLOAT_EQ(Relu6Grad(-1.0f), 0.0f);
  EXPECT_FLOAT_EQ(Relu6Grad(3.0f), 1.0f);
  EXPECT_FLOAT_EQ(Relu6Grad(7.0f), 0.0f);
}

TEST(MlpTest, ShapesFollowArchitecture) {
  Mlp mlp(Architecture(10, {8, 4}), 1);
  ASSERT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.layer(0).weight.rows(), 8u);
  EXPECT_EQ(mlp.layer(0).weight.cols(), 10u);
  EXPECT_EQ(mlp.layer(2).weight.rows(), 1u);
  EXPECT_EQ(mlp.layer(2).weight.cols(), 4u);
  EXPECT_EQ(mlp.NumWeights(), 8u * 10 + 4u * 8 + 1u * 4);
}

TEST(MlpTest, DeterministicInit) {
  Mlp a(Architecture(5, {4}), 7);
  Mlp b(Architecture(5, {4}), 7);
  EXPECT_FLOAT_EQ(a.layer(0).weight.MaxAbsDiff(b.layer(0).weight), 0.0f);
}

TEST(MlpTest, ForwardMatchesHandComputation) {
  // 2 -> 2 -> 1 network with known weights.
  Mlp mlp(Architecture(2, {2}), 0);
  mlp.layer(0).weight = mm::Matrix({{1.0f, 0.0f}, {0.0f, -1.0f}});
  mlp.layer(0).bias = {0.5f, 0.0f};
  mlp.layer(1).weight = mm::Matrix({{2.0f, 3.0f}});
  mlp.layer(1).bias = {-1.0f};
  // x = (1, 2): h = relu6([1*1+0.5, -2]) = [1.5, 0]; y = 2*1.5 + 0 - 1 = 2.
  const float x[2] = {1.0f, 2.0f};
  EXPECT_NEAR(mlp.ForwardOne(x), 2.0f, 1e-6f);
}

TEST(MlpTest, ForwardBatchMatchesForwardOne) {
  Mlp mlp(Architecture(7, {5, 3}), 3);
  Rng rng(4);
  mm::Matrix batch(6, 7);
  batch.FillNormal(rng);
  const auto scores = mlp.Forward(batch);
  for (uint32_t b = 0; b < 6; ++b) {
    EXPECT_NEAR(scores[b], mlp.ForwardOne(batch.Row(b)), 1e-5f);
  }
}

TEST(MlpTest, SerializeRoundTrip) {
  Mlp mlp(Architecture(6, {4, 2}), 9);
  auto parsed = Mlp::Deserialize(*mlp.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Rng rng(10);
  mm::Matrix batch(4, 6);
  batch.FillNormal(rng);
  const auto original = mlp.Forward(batch);
  const auto restored = parsed->Forward(batch);
  for (uint32_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(original[b], restored[b], 1e-4f);
  }
}

TEST(MlpTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Mlp::Deserialize("bogus").ok());
  EXPECT_FALSE(Mlp::Deserialize("mlp 4 1 8\nlayer 9 9\n").ok());
}

TEST(MlpTest, DeserializeReadsEveryWeightFromTheText) {
  // A decoded network holds exactly the text's numbers, whatever the
  // decoder allocated them with.
  const std::string text =
      "mlp 3 1 2\n"
      "layer 2 3\n"
      "0.5 -1.25 0.001 2 0.125 -3\n"
      "0.25 -0.5\n"
      "layer 1 2\n"
      "1.5 -2e-05\n"
      "0.75\n";
  auto parsed = Mlp::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_layers(), 2u);
  const std::vector<std::vector<float>> weights = {
      {0.5f, -1.25f, 0.001f, 2.0f, 0.125f, -3.0f}, {1.5f, -2e-05f}};
  const std::vector<std::vector<float>> biases = {{0.25f, -0.5f}, {0.75f}};
  for (uint32_t l = 0; l < 2; ++l) {
    const LinearLayer& layer = parsed->layer(l);
    ASSERT_EQ(layer.weight.size(), weights[l].size());
    for (size_t i = 0; i < weights[l].size(); ++i) {
      EXPECT_EQ(layer.weight.data()[i], weights[l][i])
          << "layer " << l << " weight " << i;
    }
    EXPECT_EQ(layer.bias, biases[l]) << "layer " << l;
  }
}

TEST(MlpTest, WeightSparsityCountsZeros) {
  Mlp mlp(Architecture(4, {4}), 2);
  EXPECT_NEAR(mlp.WeightSparsity(), 0.0, 1e-9);
  mlp.layer(0).weight.Fill(0.0f);
  // Layer 0 has 16 of the 20 weights.
  EXPECT_NEAR(mlp.WeightSparsity(), 16.0 / 20.0, 1e-9);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam.
  AdamConfig config;
  config.learning_rate = 0.1;
  AdamState state(1);
  float w = 0.0f;
  for (uint64_t step = 1; step <= 500; ++step) {
    const float grad = 2.0f * (w - 3.0f);
    state.Step(config, config.learning_rate, step, &w, &grad, 1);
  }
  EXPECT_NEAR(w, 3.0f, 0.05f);
}

TEST(AdamTest, WeightDecayShrinks) {
  AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1.0;
  AdamState state(1);
  float w = 1.0f;
  const float zero_grad = 0.0f;
  for (uint64_t step = 1; step <= 200; ++step) {
    state.Step(config, config.learning_rate, step, &w, &zero_grad, 1);
  }
  EXPECT_LT(std::fabs(w), 1.0f);
}

/// Shared training fixture: small synthetic data + a LambdaMART teacher.
class DistillFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig config;
    config.num_queries = 100;
    config.min_docs_per_query = 15;
    config.max_docs_per_query = 30;
    config.num_features = 20;
    config.seed = 55;
    splits_ = new data::DatasetSplits(data::GenerateSyntheticSplits(config));

    gbdt::BoosterConfig teacher_config;
    teacher_config.num_trees = 50;
    teacher_config.num_leaves = 16;
    teacher_config.learning_rate = 0.15;
    gbdt::Booster booster(teacher_config);
    teacher_ = new gbdt::Ensemble(
        booster.TrainLambdaMart(splits_->train, &splits_->valid));

    normalizer_ = new data::ZNormalizer();
    normalizer_->Fit(splits_->train);
  }
  static void TearDownTestSuite() {
    delete splits_;
    delete teacher_;
    delete normalizer_;
    splits_ = nullptr;
    teacher_ = nullptr;
    normalizer_ = nullptr;
  }

  static data::DatasetSplits* splits_;
  static gbdt::Ensemble* teacher_;
  static data::ZNormalizer* normalizer_;
};

data::DatasetSplits* DistillFixture::splits_ = nullptr;
gbdt::Ensemble* DistillFixture::teacher_ = nullptr;
data::ZNormalizer* DistillFixture::normalizer_ = nullptr;

TEST_F(DistillFixture, SamplerTargetsMatchTeacher) {
  DistillationSampler sampler(splits_->train, *teacher_, *normalizer_,
                              /*augment=*/false, 3);
  mm::Matrix inputs;
  std::vector<float> targets;
  sampler.SampleBatch(32, &inputs, &targets);
  ASSERT_EQ(inputs.rows(), 32u);
  ASSERT_EQ(inputs.cols(), splits_->train.num_features());
  ASSERT_EQ(targets.size(), 32u);
  // Targets must lie within the teacher's score range over the train set.
  const auto teacher_scores = teacher_->ScoreDataset(splits_->train);
  float lo = 1e30f;
  float hi = -1e30f;
  for (const float s : teacher_scores) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  for (const float t : targets) {
    EXPECT_GE(t, lo - 1e-3f);
    EXPECT_LE(t, hi + 1e-3f);
  }
}

TEST_F(DistillFixture, MidpointListsBracketSplitPoints) {
  DistillationSampler sampler(splits_->train, *teacher_, *normalizer_,
                              /*augment=*/true, 3);
  const auto splits = teacher_->SplitPointsPerFeature(
      splits_->train.num_features());
  for (uint32_t f = 0; f < splits_->train.num_features(); ++f) {
    const auto& mids = sampler.Midpoints(f);
    ASSERT_FALSE(mids.empty());
    if (splits[f].size() >= 2) {
      // Midpoints interleave the sorted split points.
      EXPECT_GE(mids.size(), splits[f].size() - 1);
    }
  }
}

TEST_F(DistillFixture, DistillationApproachesTeacherQuality) {
  TrainConfig config;
  // Enough epochs that convergence does not hinge on a lucky batch order:
  // the assertion below must hold for any uniform shuffle stream, not one
  // particular seed's.
  config.epochs = 60;
  config.batch_size = 128;
  config.adam.learning_rate = 2e-3;
  config.gamma_epochs = {40};
  config.seed = 11;
  Trainer trainer(config);
  Mlp student(Architecture(splits_->train.num_features(), {64, 32}), 11);
  const double final_mse = trainer.TrainDistillation(
      &student, splits_->train, *teacher_, *normalizer_);

  const auto teacher_scores = teacher_->ScoreDataset(splits_->test);
  const double teacher_ndcg =
      metrics::MeanNdcg(splits_->test, teacher_scores, 10);
  const auto student_scores =
      ScoreDatasetWithMlp(student, splits_->test, normalizer_);
  const double student_ndcg =
      metrics::MeanNdcg(splits_->test, student_scores, 10);

  // The residual MSE must be well below the teacher-score variance
  // (otherwise the student learned nothing about the teacher's function).
  const auto train_scores = teacher_->ScoreDataset(splits_->train);
  double mean = 0.0;
  for (const float s : train_scores) mean += s;
  mean /= train_scores.size();
  double variance = 0.0;
  for (const float s : train_scores) variance += (s - mean) * (s - mean);
  variance /= train_scores.size();
  EXPECT_LT(final_mse, 0.5 * variance) << "distillation loss did not decrease";
  // The student tracks the teacher closely (paper: within ~1 NDCG point).
  EXPECT_GT(student_ndcg, teacher_ndcg - 0.08)
      << "student " << student_ndcg << " teacher " << teacher_ndcg;
}

TEST_F(DistillFixture, MasksFreezeWeightsThroughTraining) {
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 64;
  config.seed = 12;
  Trainer trainer(config);
  Mlp student(Architecture(splits_->train.num_features(), {16, 8}), 12);
  // Mask half of the first layer.
  WeightMasks masks;
  for (uint32_t l = 0; l < student.num_layers(); ++l) {
    mm::Matrix mask(student.layer(l).weight.rows(),
                    student.layer(l).weight.cols());
    mask.Fill(1.0f);
    masks.push_back(std::move(mask));
  }
  for (size_t i = 0; i < masks[0].size(); i += 2) masks[0].data()[i] = 0.0f;
  trainer.TrainDistillation(&student, splits_->train, *teacher_, *normalizer_,
                            &masks);
  for (size_t i = 0; i < masks[0].size(); i += 2) {
    EXPECT_FLOAT_EQ(student.layer(0).weight.data()[i], 0.0f) << "index " << i;
  }
  // Unmasked weights moved away from zero (training happened).
  double moved = 0.0;
  for (size_t i = 1; i < masks[0].size(); i += 2) {
    moved += std::fabs(student.layer(0).weight.data()[i]);
  }
  EXPECT_GT(moved, 0.0);
}

TEST_F(DistillFixture, TrainOnLabelsRuns) {
  TrainConfig config;
  config.epochs = 8;
  config.batch_size = 128;
  config.seed = 13;
  Trainer trainer(config);
  Mlp model(Architecture(splits_->train.num_features(), {32, 16}), 13);
  trainer.TrainOnLabels(&model, splits_->train, *normalizer_);
  const auto scores = ScoreDatasetWithMlp(model, splits_->test, normalizer_);
  const double ndcg = metrics::MeanNdcg(splits_->test, scores, 10);
  std::vector<float> zeros(splits_->test.num_docs(), 0.0f);
  const double baseline = metrics::MeanNdcg(splits_->test, zeros, 10);
  EXPECT_GT(ndcg, baseline);
}

TEST_F(DistillFixture, DropoutTrainingStillLearns) {
  TrainConfig config;
  config.epochs = 10;
  config.batch_size = 128;
  config.dropout = 0.1;
  config.seed = 14;
  Trainer trainer(config);
  Mlp student(Architecture(splits_->train.num_features(), {32, 16}), 14);
  const double mse = trainer.TrainDistillation(&student, splits_->train,
                                               *teacher_, *normalizer_);
  // Teacher-score variance bound, as in DistillationApproachesTeacherQuality
  // (dropout slows convergence; only sanity is asserted here).
  const auto train_scores = teacher_->ScoreDataset(splits_->train);
  double mean = 0.0;
  for (const float s : train_scores) mean += s;
  mean /= train_scores.size();
  double variance = 0.0;
  for (const float s : train_scores) variance += (s - mean) * (s - mean);
  variance /= train_scores.size();
  EXPECT_LT(mse, variance);
}

TEST_F(DistillFixture, NeuralScorerMatchesReferenceForward) {
  Mlp mlp(Architecture(splits_->train.num_features(), {24, 12}), 15);
  NeuralScorer scorer(mlp, normalizer_);
  const auto fast = scorer.ScoreDataset(splits_->test);
  const auto reference =
      ScoreDatasetWithMlp(mlp, splits_->test, normalizer_);
  ASSERT_EQ(fast.size(), reference.size());
  for (size_t d = 0; d < fast.size(); ++d) {
    EXPECT_NEAR(fast[d], reference[d], 1e-3f) << "doc " << d;
  }
}

TEST_F(DistillFixture, HybridScorerMatchesDenseScorer) {
  Mlp mlp(Architecture(splits_->train.num_features(), {24, 12}), 16);
  // Sparsify the first layer by hand.
  mm::Matrix& w0 = mlp.layer(0).weight;
  for (size_t i = 0; i < w0.size(); ++i) {
    if (i % 5 != 0) w0.data()[i] = 0.0f;
  }
  NeuralScorer dense(mlp, normalizer_);
  HybridNeuralScorer hybrid(mlp, normalizer_);
  EXPECT_GT(hybrid.first_layer_sparsity(), 0.7);
  const auto dense_scores = dense.ScoreDataset(splits_->test);
  const auto hybrid_scores = hybrid.ScoreDataset(splits_->test);
  for (size_t d = 0; d < dense_scores.size(); ++d) {
    EXPECT_NEAR(dense_scores[d], hybrid_scores[d], 1e-3f) << "doc " << d;
  }
}

TEST_F(DistillFixture, ScorerHandlesOddBatchSizes) {
  Mlp mlp(Architecture(splits_->train.num_features(), {16}), 17);
  NeuralScorerConfig config;
  config.batch_size = 7;  // forces remainder batches and scalar paths
  NeuralScorer scorer(mlp, normalizer_, config);
  const auto odd = scorer.ScoreDataset(splits_->test);
  NeuralScorer scorer64(mlp, normalizer_);
  const auto even = scorer64.ScoreDataset(splits_->test);
  for (size_t d = 0; d < odd.size(); ++d) {
    EXPECT_NEAR(odd[d], even[d], 1e-3f);
  }
}

// Packing the weights once must not move a single bit: dense and hybrid
// scores equal a layer-by-layer forward pass over the raw weights through
// the raw-A mm::Gemm (and the scalar SdmmLayer oracle for the hybrid's
// first layer), batch by batch, ragged tails included. The shape crosses the default blocking:
// layer 0 spans two kc slices (k = 300) and two mc blocks (m = 80).
TEST(NeuralScorerParityTest, PackedWeightsMatchRawGemmForwardBitwise) {
  const uint32_t features = 300;
  Mlp mlp(Architecture(features, {80, 20}), 21);
  mm::Matrix& w0 = mlp.layer(0).weight;
  for (size_t i = 0; i < w0.size(); ++i) {
    if (i % 4 != 0) w0.data()[i] = 0.0f;
  }
  // Biases of -0.0f: a sum of (0 + tiles) + -0.0f must keep the raw path's
  // sign, including on an all-zero document.
  for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
    std::vector<float>& bias = mlp.layer(l).bias;
    for (size_t o = 0; o < bias.size(); o += 3) bias[o] = -0.0f;
  }
  const mm::CsrMatrix sparse_w0 = mm::CsrMatrix::FromDense(w0);
  const NeuralScorer dense(mlp, nullptr);
  const HybridNeuralScorer hybrid(mlp, nullptr);
  const uint32_t batch_size = NeuralScorerConfig().batch_size;

  // Reference forward of one batch (features x batch columns).
  const auto forward = [&](const mm::Matrix& columns, bool sparse_first,
                           float* out) {
    mm::Matrix current = columns;
    for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
      const LinearLayer& layer = mlp.layer(l);
      const bool activate = l + 1 < mlp.num_layers();
      if (l == 0 && sparse_first) {
        current = mm::SdmmLayerOracle(
            sparse_w0, current, mm::LayerEpilogue{layer.bias.data(), activate});
        continue;
      }
      mm::Matrix next(layer.weight.rows(), columns.cols());
      mm::Gemm(layer.weight, current, &next);
      for (uint32_t o = 0; o < next.rows(); ++o) {
        float* row = next.Row(o);
        for (uint32_t j = 0; j < next.cols(); ++j) {
          row[j] += layer.bias[o];
          if (activate) row[j] = Relu6(row[j]);
        }
      }
      current = std::move(next);
    }
    std::copy(current.Row(0), current.Row(0) + columns.cols(), out);
  };

  Rng rng(22);
  // Counts around the 16-wide panels and the 64-doc batches, so full,
  // padded and single-column last panels all occur.
  for (const uint32_t count : {1u, 15u, 16u, 17u, 63u, 65u, 130u}) {
    std::vector<float> docs(static_cast<size_t>(count) * features);
    for (float& v : docs) v = static_cast<float>(rng.Normal());
    // The last document is all zeros.
    std::fill(docs.end() - features, docs.end(), 0.0f);
    std::vector<float> expected_dense(count);
    std::vector<float> expected_hybrid(count);
    for (uint32_t start = 0; start < count; start += batch_size) {
      const uint32_t batch = std::min(batch_size, count - start);
      mm::Matrix columns(features, batch);
      for (uint32_t b = 0; b < batch; ++b) {
        for (uint32_t f = 0; f < features; ++f) {
          columns.At(f, b) =
              docs[static_cast<size_t>(start + b) * features + f];
        }
      }
      forward(columns, /*sparse_first=*/false, expected_dense.data() + start);
      forward(columns, /*sparse_first=*/true, expected_hybrid.data() + start);
    }
    std::vector<float> actual(count, -123.0f);
    dense.Score(docs.data(), count, features, actual.data());
    EXPECT_EQ(std::memcmp(actual.data(), expected_dense.data(),
                          count * sizeof(float)),
              0)
        << "dense, count " << count;
    std::fill(actual.begin(), actual.end(), -123.0f);
    hybrid.Score(docs.data(), count, features, actual.data());
    EXPECT_EQ(std::memcmp(actual.data(), expected_hybrid.data(),
                          count * sizeof(float)),
              0)
        << "hybrid, count " << count;
  }
}

}  // namespace
}  // namespace dnlr::nn

// Tests for the extension modules implementing the paper's future-work
// directions and >64-leaf limitation: WideQuickScorer, the LambdaMART
// hyper-parameter tuner, and the early-exit cascade — plus a
// finite-difference gradient check on the MLP trainer.

#include <gtest/gtest.h>

#include <cmath>

#include "core/cascade.h"
#include "core/timing.h"
#include "data/synthetic.h"
#include "forest/quickscorer.h"
#include "forest/wide_quickscorer.h"
#include "gbdt/booster.h"
#include "gbdt/tuner.h"
#include "metrics/metrics.h"
#include "nn/scorer.h"
#include "nn/trainer.h"

namespace dnlr {
namespace {

using predict::Architecture;

class ExtensionsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig config;
    config.num_queries = 80;
    config.min_docs_per_query = 15;
    config.max_docs_per_query = 30;
    config.num_features = 20;
    config.seed = 123;
    splits_ = new data::DatasetSplits(data::GenerateSyntheticSplits(config));
  }
  static void TearDownTestSuite() {
    delete splits_;
    splits_ = nullptr;
  }
  static data::DatasetSplits* splits_;
};

data::DatasetSplits* ExtensionsFixture::splits_ = nullptr;

TEST_F(ExtensionsFixture, WideQuickScorerMatchesNaiveOn128LeafTrees) {
  gbdt::BoosterConfig config;
  config.num_trees = 12;
  config.num_leaves = 128;  // beyond the 64-leaf single-word limit
  config.min_docs_per_leaf = 2;
  gbdt::Booster booster(config);
  const gbdt::Ensemble model =
      booster.TrainLambdaMart(splits_->train, nullptr);
  EXPECT_GT(model.MaxLeaves(), 64u);

  const forest::WideQuickScorer wide(model, splits_->test.num_features());
  const forest::NaiveTraversalScorer naive(model);
  const auto fast = wide.ScoreDataset(splits_->test);
  const auto slow = naive.ScoreDataset(splits_->test);
  for (size_t d = 0; d < fast.size(); ++d) {
    EXPECT_FLOAT_EQ(fast[d], slow[d]) << "doc " << d;
  }
}

TEST_F(ExtensionsFixture, WideQuickScorerMatchesNarrowOnSmallTrees) {
  gbdt::BoosterConfig config;
  config.num_trees = 15;
  config.num_leaves = 16;
  gbdt::Booster booster(config);
  const gbdt::Ensemble model =
      booster.TrainLambdaMart(splits_->train, nullptr);
  const forest::WideQuickScorer wide(model, splits_->test.num_features());
  const forest::QuickScorer narrow(model, splits_->test.num_features());
  EXPECT_EQ(wide.WordsOf(0), 1u);
  for (uint32_t d = 0; d < std::min(100u, splits_->test.num_docs()); ++d) {
    EXPECT_NEAR(wide.ScoreDocument(splits_->test.Row(d)),
                narrow.ScoreDocument(splits_->test.Row(d)), 1e-9);
  }
}

TEST(WideQuickScorerEdgeTest, ExactlyLeafBoundaryWidths) {
  // Right-spine trees with 64, 65 and 129 leaves cover the word-boundary
  // cases 1 word, 2 words, 3 words.
  for (const uint32_t leaves : {64u, 65u, 129u}) {
    std::vector<gbdt::TreeNode> nodes(leaves - 1);
    std::vector<double> values(leaves);
    for (uint32_t i = 0; i + 1 < leaves; ++i) {
      nodes[i].feature = 0;
      nodes[i].threshold = static_cast<float>(i);
      nodes[i].left = gbdt::TreeNode::EncodeLeaf(i);
      nodes[i].right = i + 2 < leaves + 0u
                           ? static_cast<int32_t>(i + 1)
                           : gbdt::TreeNode::EncodeLeaf(leaves - 1);
      values[i] = i;
    }
    values[leaves - 1] = leaves - 1;
    gbdt::Ensemble ensemble(0.0);
    ensemble.AddTree(
        gbdt::RegressionTree(std::move(nodes), std::move(values)));
    const forest::WideQuickScorer wide(ensemble, 1);
    EXPECT_EQ(wide.WordsOf(0), (leaves + 63) / 64);
    for (const float x : {-1.0f, 31.5f, 63.0f, 63.5f, 100.0f,
                          static_cast<float>(leaves)}) {
      const float row[1] = {x};
      EXPECT_DOUBLE_EQ(wide.ScoreDocument(row), ensemble.Score(row))
          << "leaves " << leaves << " x " << x;
    }
  }
}

TEST_F(ExtensionsFixture, TunerFindsReasonableConfig) {
  gbdt::TunerConfig config;
  config.trials = 4;
  config.num_trees = 40;
  config.num_leaves = 16;
  config.seed = 9;
  const gbdt::TunerResult result =
      gbdt::TuneLambdaMart(splits_->train, splits_->valid, config);
  ASSERT_EQ(result.trials.size(), 4u);
  // Sorted best-first.
  for (size_t i = 1; i < result.trials.size(); ++i) {
    EXPECT_GE(result.trials[i - 1].valid_ndcg, result.trials[i].valid_ndcg);
  }
  // Sampled parameters respect the declared ranges.
  for (const auto& trial : result.trials) {
    EXPECT_GE(trial.config.learning_rate, config.learning_rate_min);
    EXPECT_LE(trial.config.learning_rate, config.learning_rate_max);
    EXPECT_GE(trial.config.min_docs_per_leaf, config.min_docs_min);
    EXPECT_LE(trial.config.min_docs_per_leaf, config.min_docs_max);
  }
  // The winner beats random scoring clearly.
  std::vector<float> zeros(splits_->valid.num_docs(), 0.0f);
  EXPECT_GT(result.best().valid_ndcg,
            metrics::MeanNdcg(splits_->valid, zeros, 10));
}

TEST_F(ExtensionsFixture, TunerDeterministicInSeed) {
  gbdt::TunerConfig config;
  config.trials = 2;
  config.num_trees = 15;
  config.num_leaves = 8;
  const auto a = gbdt::TuneLambdaMart(splits_->train, splits_->valid, config);
  const auto b = gbdt::TuneLambdaMart(splits_->train, splits_->valid, config);
  EXPECT_DOUBLE_EQ(a.best().valid_ndcg, b.best().valid_ndcg);
  EXPECT_DOUBLE_EQ(a.best().config.learning_rate,
                   b.best().config.learning_rate);
}

TEST_F(ExtensionsFixture, CascadeKeepsExpensiveStageQualityCheaply) {
  gbdt::BoosterConfig cheap_config;
  cheap_config.num_trees = 8;
  cheap_config.num_leaves = 8;
  cheap_config.learning_rate = 0.2;
  gbdt::BoosterConfig expensive_config;
  expensive_config.num_trees = 80;
  expensive_config.num_leaves = 16;
  expensive_config.learning_rate = 0.1;
  const gbdt::Ensemble cheap_model =
      gbdt::Booster(cheap_config).TrainLambdaMart(splits_->train, nullptr);
  const gbdt::Ensemble expensive_model =
      gbdt::Booster(expensive_config).TrainLambdaMart(splits_->train, nullptr);
  const forest::QuickScorer cheap(cheap_model, splits_->test.num_features());
  const forest::QuickScorer expensive(expensive_model,
                                      splits_->test.num_features());

  const core::CascadeScorer cascade(&cheap, &expensive, 0.6);
  const auto cascade_scores = cascade.ScoreQueries(*&splits_->test);
  EXPECT_NEAR(cascade.last_rescored_fraction(), 0.6, 0.05);

  const double cheap_ndcg = metrics::MeanNdcg(
      splits_->test, cheap.ScoreDataset(splits_->test), 10);
  const double expensive_ndcg = metrics::MeanNdcg(
      splits_->test, expensive.ScoreDataset(splits_->test), 10);
  const double cascade_ndcg =
      metrics::MeanNdcg(splits_->test, cascade_scores, 10);
  // The cascade recovers most of the expensive model's advantage. (With a
  // rescore cut near the NDCG cutoff, tiny regressions vs the cheap stage
  // are possible on individual queries; the aggregate must stay close to
  // the expensive model.)
  EXPECT_GT(cascade_ndcg, cheap_ndcg - 0.02);
  EXPECT_GT(cascade_ndcg, expensive_ndcg - 0.05)
      << "cheap " << cheap_ndcg << " cascade " << cascade_ndcg
      << " expensive " << expensive_ndcg;
}

TEST_F(ExtensionsFixture, CascadeFractionOneEqualsSecondStage) {
  gbdt::BoosterConfig config;
  config.num_trees = 10;
  config.num_leaves = 8;
  const gbdt::Ensemble model =
      gbdt::Booster(config).TrainLambdaMart(splits_->train, nullptr);
  const forest::NaiveTraversalScorer stage(model);
  const core::CascadeScorer cascade(&stage, &stage, 1.0);
  const auto scores = cascade.ScoreQueries(splits_->test);
  const auto direct = stage.ScoreDataset(splits_->test);
  for (size_t d = 0; d < scores.size(); ++d) {
    EXPECT_FLOAT_EQ(scores[d], direct[d]);
  }
}

// Finite-difference gradient check: at Adam step 1 the parameter update is
// -lr * g / (|g| + eps), i.e. the update's SIGN is the negative gradient's
// sign. Train exactly one step on a frozen batch and compare each weight's
// movement against a numerical derivative of the MSE loss.
TEST(GradientCheckTest, BackpropSignsMatchFiniteDifferences) {
  const Architecture arch(4, {5, 3});
  const uint32_t batch = 6;
  Rng rng(17);
  mm::Matrix inputs(batch, 4);
  inputs.FillNormal(rng);
  std::vector<float> targets(batch);
  for (float& t : targets) t = static_cast<float>(rng.Normal());

  const auto loss_of = [&](const nn::Mlp& model) {
    const auto out = model.Forward(inputs);
    double loss = 0.0;
    for (uint32_t b = 0; b < batch; ++b) {
      const double err = out[b] - targets[b];
      loss += err * err;
    }
    return loss / batch;
  };

  nn::Mlp before(arch, 17);
  nn::Mlp after = before;
  nn::TrainConfig config;
  config.epochs = 1;
  config.steps_per_epoch = 1;
  config.batch_size = batch;
  config.adam.learning_rate = 1e-4;
  config.augment = false;
  nn::Trainer trainer(config);
  trainer.TrainWithSampler(
      &after,
      [&](uint32_t, mm::Matrix* in, std::vector<float>* tg) {
        *in = inputs;
        *tg = targets;
      },
      batch);

  int checked = 0;
  int agreements = 0;
  for (uint32_t l = 0; l < before.num_layers(); ++l) {
    mm::Matrix& weights = before.layer(l).weight;
    for (size_t i = 0; i < weights.size(); ++i) {
      const float original = weights.data()[i];
      const float h = 1e-3f;
      weights.data()[i] = original + h;
      const double loss_plus = loss_of(before);
      weights.data()[i] = original - h;
      const double loss_minus = loss_of(before);
      weights.data()[i] = original;
      const double numerical_grad = (loss_plus - loss_minus) / (2.0 * h);
      if (std::fabs(numerical_grad) < 2e-5) continue;  // too flat to trust
      const float delta = after.layer(l).weight.data()[i] - original;
      if (std::fabs(delta) < 1e-9) continue;
      ++checked;
      // Adam step 1 moves against the gradient.
      agreements += (delta < 0) == (numerical_grad > 0);
    }
  }
  ASSERT_GT(checked, 20);
  EXPECT_GE(agreements, checked * 95 / 100)
      << agreements << "/" << checked << " sign agreements";
}

}  // namespace
}  // namespace dnlr

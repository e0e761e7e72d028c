#include <gtest/gtest.h>

#include "core/design.h"
#include "core/pareto.h"
#include "core/pipeline.h"
#include "core/timing.h"
#include "data/synthetic.h"
#include "forest/quickscorer.h"
#include "metrics/metrics.h"
#include "nn/scorer.h"

namespace dnlr::core {
namespace {

using predict::Architecture;

predict::DenseTimePredictor FakeDense() {
  std::vector<predict::DenseCalibrationPoint> points;
  for (const uint32_t m : {64u, 512u}) {
    for (const uint32_t k : {64u, 512u}) {
      points.push_back({m, k, 64, 50.0});
    }
  }
  return predict::DenseTimePredictor(points);
}

predict::SparseTimePredictor FakeSparse() {
  return predict::SparseTimePredictor(1e-4, 2e-5, 4e-5);
}

TEST(ParetoTest, FrontierRemovesDominated) {
  std::vector<TradeoffPoint> points{
      {"a", 0.50, 1.0},
      {"b", 0.52, 2.0},
      {"dominated", 0.49, 3.0},  // slower and worse than b
      {"c", 0.55, 4.0},
  };
  const auto frontier = ParetoFrontier(points);
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_EQ(frontier[0].name, "a");
  EXPECT_EQ(frontier[1].name, "b");
  EXPECT_EQ(frontier[2].name, "c");
}

TEST(ParetoTest, TieOnTimeKeepsBetterNdcg) {
  std::vector<TradeoffPoint> points{{"worse", 0.50, 1.0}, {"better", 0.55, 1.0}};
  const auto frontier = ParetoFrontier(points);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0].name, "better");
}

TEST(ParetoTest, Filters) {
  std::vector<TradeoffPoint> points{{"fast", 0.50, 0.3}, {"slow", 0.60, 5.0}};
  EXPECT_EQ(FilterByQuality(points, 0.55).size(), 1u);
  EXPECT_EQ(FilterByLatency(points, 0.5).size(), 1u);
  EXPECT_EQ(FilterByLatency(points, 10.0).size(), 2u);
}

TEST(DesignTest, CandidatesRespectBudget) {
  const auto dense = FakeDense();
  const auto sparse = FakeSparse();
  DesignConfig config;
  config.time_budget_us = 2.0;
  config.batch = 64;
  config.width_choices = {50, 100, 200, 400};
  config.max_candidates = 50;
  const auto designs = DesignArchitectures(136, config, dense, sparse);
  ASSERT_FALSE(designs.empty());
  for (const auto& design : designs) {
    EXPECT_LE(design.estimate.hybrid_us_per_doc, config.time_budget_us);
    EXPECT_GE(design.arch.hidden.size(), config.min_layers);
    EXPECT_LE(design.arch.hidden.size(), config.max_layers);
    // Non-increasing widths.
    for (size_t i = 1; i < design.arch.hidden.size(); ++i) {
      EXPECT_LE(design.arch.hidden[i], design.arch.hidden[i - 1]);
    }
  }
  // Deeper architectures sort first.
  for (size_t i = 1; i < designs.size(); ++i) {
    EXPECT_GE(designs[i - 1].arch.hidden.size(),
              designs[i].arch.hidden.size());
  }
}

TEST(DesignTest, TighterBudgetFewerCandidates) {
  const auto dense = FakeDense();
  const auto sparse = FakeSparse();
  DesignConfig config;
  config.width_choices = {50, 100, 200, 400};
  config.max_candidates = 1000;
  config.time_budget_us = 5.0;
  const size_t loose = DesignArchitectures(136, config, dense, sparse).size();
  config.time_budget_us = 0.5;
  const size_t tight = DesignArchitectures(136, config, dense, sparse).size();
  EXPECT_LE(tight, loose);
}

TEST(DesignTest, DenseModeUsesDenseEstimate) {
  const auto dense = FakeDense();
  const auto sparse = FakeSparse();
  DesignConfig config;
  config.first_layer_sparsity = 0.0;  // design fully dense models
  config.width_choices = {50, 100, 200};
  config.time_budget_us = 1.0;
  const auto designs = DesignArchitectures(136, config, dense, sparse);
  for (const auto& design : designs) {
    EXPECT_LE(design.estimate.dense_us_per_doc, config.time_budget_us);
  }
}

TEST(TimingTest, SyntheticMeasurementPositive) {
  // Use a trivial scorer: a single-tree ensemble.
  gbdt::Ensemble ensemble(0.0);
  ensemble.AddTree(gbdt::RegressionTree({}, {1.0}));
  forest::NaiveTraversalScorer scorer(ensemble);
  const double us = MeasureScorerMicrosPerDocSynthetic(scorer, 512, 10, 2);
  EXPECT_GT(us, 0.0);
  EXPECT_LT(us, 1000.0);
}

TEST(PipelineTest, EndToEndDistillPruneScore) {
  data::SyntheticConfig data_config;
  data_config.num_queries = 80;
  data_config.min_docs_per_query = 15;
  data_config.max_docs_per_query = 25;
  data_config.num_features = 16;
  data_config.seed = 88;
  const data::DatasetSplits splits = data::GenerateSyntheticSplits(data_config);

  PipelineConfig config;
  config.teacher.num_trees = 40;
  config.teacher.num_leaves = 16;
  config.teacher.learning_rate = 0.15;
  config.teacher.early_stopping_rounds = 0;
  // Enough distillation + finetune epochs that the quality assertions hold
  // for any uniform shuffle stream, not one particular seed's batch order.
  config.distill.epochs = 36;
  config.distill.batch_size = 128;
  config.distill.adam.learning_rate = 2e-3;
  config.prune.target_sparsity = 0.85;
  config.prune.prune_rounds = 4;
  config.prune.finetune_epochs = 8;
  config.prune.train.batch_size = 128;

  Pipeline pipeline(config);
  const gbdt::Ensemble teacher = pipeline.TrainTeacher(splits);
  EXPECT_GT(teacher.num_trees(), 0u);

  const Architecture arch(splits.train.num_features(), {32, 16});
  const DistilledModel model =
      pipeline.DistillAndPrune(arch, splits.train, teacher);
  EXPECT_NEAR(model.first_layer_sparsity, 0.85, 0.05);

  // The bundled scorer must be the hybrid engine and must rank far better
  // than random.
  const auto scorer = nn::MakeStudentScorer(model.mlp, &model.normalizer);
  EXPECT_EQ(scorer->name(), "neural-hybrid-sparse");
  const auto scores = scorer->ScoreDataset(splits.test);
  const double ndcg = metrics::MeanNdcg(splits.test, scores, 10);
  std::vector<float> zeros(splits.test.num_docs(), 0.0f);
  const double baseline = metrics::MeanNdcg(splits.test, zeros, 10);
  EXPECT_GT(ndcg, baseline + 0.05);

  // Teacher and student are close in quality.
  const double teacher_ndcg =
      metrics::MeanNdcg(splits.test, teacher.ScoreDataset(splits.test), 10);
  EXPECT_GT(ndcg, teacher_ndcg - 0.1);

  // Dense variant uses the dense engine.
  const DistilledModel dense_model =
      pipeline.DistillDense(arch, splits.train, teacher);
  EXPECT_LT(dense_model.first_layer_sparsity, 0.5);
  EXPECT_EQ(
      nn::MakeStudentScorer(dense_model.mlp, &dense_model.normalizer)->name(),
      "neural-dense");
}

}  // namespace
}  // namespace dnlr::core

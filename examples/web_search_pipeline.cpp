// Web-search ranking pipeline — the paper's high-quality-retrieval scenario
// end to end (Section 6): build a family of tree-based rankers, design
// neural competitors with the time predictors, distill + prune them, and
// print the effectiveness-efficiency table with Pareto markers.
//
// Usage:  ./build/examples/web_search_pipeline [scale]
//         scale multiplies the dataset size (default 0.3).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/pareto.h"
#include "core/pipeline.h"
#include "core/timing.h"
#include "data/synthetic.h"
#include "forest/quickscorer.h"
#include "metrics/metrics.h"
#include "nn/scorer.h"

int main(int argc, char** argv) {
  using namespace dnlr;

  const double scale = argc > 1 ? std::atof(argv[1]) : 0.3;
  const data::DatasetSplits splits =
      data::GenerateSyntheticSplits(data::SyntheticConfig::MsnLike(scale));
  std::printf("MSN30K-like data at scale %.2f: %u/%u/%u docs\n", scale,
              splits.train.num_docs(), splits.valid.num_docs(),
              splits.test.num_docs());

  std::vector<core::TradeoffPoint> points;

  // --- Tree-based family: three forest sizes scored with QuickScorer. ---
  std::vector<std::unique_ptr<gbdt::Ensemble>> forests;
  std::vector<std::unique_ptr<forest::QuickScorer>> forest_scorers;
  for (const uint32_t trees : {50u, 150u, 300u}) {
    gbdt::BoosterConfig config;
    config.num_trees = trees;
    config.num_leaves = 32;
    config.learning_rate = 0.1;
    gbdt::Booster booster(config);
    forests.push_back(std::make_unique<gbdt::Ensemble>(
        booster.TrainLambdaMart(splits.train, nullptr)));
    forest_scorers.push_back(std::make_unique<forest::QuickScorer>(
        *forests.back(), splits.test.num_features()));
    const auto scores = forest_scorers.back()->ScoreDataset(splits.test);
    points.push_back(
        {"forest-" + std::to_string(trees),
         metrics::MeanNdcg(splits.test, scores, 10),
         core::MeasureScorerMicrosPerDoc(*forest_scorers.back(), splits.test)});
    std::printf("trained %s: NDCG@10 %.4f, %.2f us/doc\n",
                points.back().name.c_str(), points.back().ndcg10,
                points.back().us_per_doc);
  }

  // --- Neural family: distilled + first-layer-pruned students. ---
  core::PipelineConfig config;
  config.teacher.num_trees = 400;
  config.teacher.num_leaves = 64;
  config.teacher.learning_rate = 0.08;
  config.teacher.early_stopping_rounds = 3;
  config.distill.epochs = 30;
  config.distill.batch_size = 256;
  config.distill.adam.learning_rate = 2e-3;
  config.distill.gamma_epochs = {22};
  config.prune.target_sparsity = 0.95;
  config.prune.prune_rounds = 6;
  config.prune.finetune_epochs = 4;
  config.prune.train.batch_size = 256;
  core::Pipeline pipeline(config);

  const gbdt::Ensemble teacher = pipeline.TrainTeacher(splits);
  std::printf("teacher: %u trees x %u leaves (never deployed, only "
              "distilled from)\n",
              teacher.num_trees(), teacher.MaxLeaves());

  for (const char* spec : {"100x50x50x25", "200x100x100x50", "300x200x100"}) {
    const auto arch =
        predict::Architecture::Parse(spec, splits.train.num_features());
    const core::DistilledModel model =
        pipeline.DistillAndPrune(*arch, splits.train, teacher);
    const auto scorer = nn::MakeStudentScorer(model.mlp, &model.normalizer);
    const auto scores = scorer->ScoreDataset(splits.test);
    points.push_back({std::string("neural-") + spec,
                      metrics::MeanNdcg(splits.test, scores, 10),
                      core::MeasureScorerMicrosPerDoc(*scorer, splits.test)});
    std::printf("distilled %s: NDCG@10 %.4f, %.2f us/doc (L1 %.1f%% sparse)\n",
                spec, points.back().ndcg10, points.back().us_per_doc,
                100.0 * model.first_layer_sparsity);
  }

  // --- The trade-off table. ---
  const auto frontier = core::ParetoFrontier(points);
  auto on_frontier = [&](const core::TradeoffPoint& p) {
    for (const auto& f : frontier) {
      if (f.name == p.name) return true;
    }
    return false;
  };
  std::printf("\n%-26s %10s %10s %8s\n", "model", "NDCG@10", "us/doc",
              "pareto");
  for (const auto& point : points) {
    std::printf("%-26s %10.4f %10.2f %8s\n", point.name.c_str(), point.ndcg10,
                point.us_per_doc, on_frontier(point) ? "*" : "");
  }
  return 0;
}

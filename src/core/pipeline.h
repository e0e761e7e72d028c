#ifndef DNLR_CORE_PIPELINE_H_
#define DNLR_CORE_PIPELINE_H_

#include "data/dataset.h"
#include "data/normalize.h"
#include "gbdt/booster.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "predict/architecture.h"
#include "prune/schedule.h"

namespace dnlr::core {

/// End-to-end settings of the paper's method: a strong (256-leaf) teacher,
/// Cohen-style distillation with augmentation, and first-layer
/// efficiency-oriented pruning.
struct PipelineConfig {
  gbdt::BoosterConfig teacher;
  nn::TrainConfig distill;
  prune::PruneScheduleConfig prune;

  PipelineConfig() {
    // Teachers trade efficiency for accuracy: many leaves, early stopping on
    // validation NDCG@10 (Section 5.1).
    teacher.num_leaves = 64;
    teacher.early_stopping_rounds = 3;
  }
};

/// A distilled (optionally pruned) neural ranker bundled with everything
/// needed to score raw feature vectors; nn::MakeStudentScorer(mlp,
/// &normalizer) builds the engine it is served on.
struct DistilledModel {
  nn::Mlp mlp;
  nn::WeightMasks masks;
  data::ZNormalizer normalizer;
  double first_layer_sparsity = 0.0;
};

/// The paper's training pipeline as a reusable object.
class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config) : config_(std::move(config)) {}

  /// Trains the LambdaMART teacher on the splits (early stopping on valid).
  gbdt::Ensemble TrainTeacher(const data::DatasetSplits& splits) const;

  /// Distills `teacher` into a dense network of the given shape.
  DistilledModel DistillDense(const predict::Architecture& arch,
                              const data::Dataset& raw_train,
                              const gbdt::Ensemble& teacher) const;

  /// The full recipe: distill dense, then iteratively prune the first layer
  /// and fine-tune (Section 5.2 "Outperforming tree-based models").
  DistilledModel DistillAndPrune(const predict::Architecture& arch,
                                 const data::Dataset& raw_train,
                                 const gbdt::Ensemble& teacher) const;

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace dnlr::core

#endif  // DNLR_CORE_PIPELINE_H_

#include "core/pipeline.h"

namespace dnlr::core {

gbdt::Ensemble Pipeline::TrainTeacher(const data::DatasetSplits& splits) const {
  gbdt::Booster booster(config_.teacher);
  return booster.TrainLambdaMart(splits.train, &splits.valid);
}

DistilledModel Pipeline::DistillDense(const predict::Architecture& arch,
                                      const data::Dataset& raw_train,
                                      const gbdt::Ensemble& teacher) const {
  data::ZNormalizer normalizer;
  normalizer.Fit(raw_train);

  nn::Mlp mlp(arch, config_.distill.seed);
  nn::Trainer trainer(config_.distill);
  trainer.TrainDistillation(&mlp, raw_train, teacher, normalizer);

  DistilledModel model{std::move(mlp), {}, std::move(normalizer), 0.0};
  model.first_layer_sparsity = model.mlp.layer(0).weight.Sparsity();
  return model;
}

DistilledModel Pipeline::DistillAndPrune(const predict::Architecture& arch,
                                         const data::Dataset& raw_train,
                                         const gbdt::Ensemble& teacher) const {
  DistilledModel model = DistillDense(arch, raw_train, teacher);
  model.masks = prune::IterativePrune(&model.mlp, raw_train, teacher,
                                      model.normalizer, config_.prune);
  model.first_layer_sparsity = model.mlp.layer(0).weight.Sparsity();
  return model;
}

}  // namespace dnlr::core

#include "serve/ladder.h"

#include <cmath>

namespace dnlr::serve {

Status DegradationLadder::AddRung(std::string name,
                                  const FallibleScorer* scorer,
                                  double predicted_us_per_doc) {
  if (scorer == nullptr) {
    return Status::InvalidArgument("rung '" + name + "' has no scorer");
  }
  if (!std::isfinite(predicted_us_per_doc) || predicted_us_per_doc < 0.0) {
    return Status::InvalidArgument("rung '" + name +
                                   "' has a non-finite or negative cost");
  }
  if (!rungs_.empty() &&
      predicted_us_per_doc > rungs_.back().predicted_us_per_doc) {
    return Status::InvalidArgument(
        "rung '" + name + "' is more expensive than '" + rungs_.back().name +
        "' above it; ladder rungs must be ordered strongest-first");
  }
  rungs_.push_back(Rung{std::move(name), scorer, predicted_us_per_doc});
  return Status::Ok();
}

int DegradationLadder::PickRung(
    double budget_micros, uint32_t count, double safety_factor,
    const std::function<bool(size_t)>& available) const {
  for (size_t i = 0; i < rungs_.size(); ++i) {
    if (available && !available(i)) continue;
    if (PredictedBatchMicros(i, count, safety_factor) <= budget_micros) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

double PredictNeuralRungMicrosPerDoc(
    const predict::Architecture& arch, uint32_t batch,
    double first_layer_sparsity, const predict::DenseTimePredictor& dense,
    const predict::SparseTimePredictor& sparse) {
  if (first_layer_sparsity <= 0.0) {
    return dense.PredictForwardMicrosPerDoc(arch, batch);
  }
  return predict::EstimateHybridTime(arch, batch, first_layer_sparsity, dense,
                                     sparse)
      .hybrid_us_per_doc;
}

double PredictCascadeMicrosPerDoc(double first_stage_us_per_doc,
                                  double second_stage_us_per_doc,
                                  double rescore_fraction) {
  return first_stage_us_per_doc + rescore_fraction * second_stage_us_per_doc;
}

}  // namespace dnlr::serve

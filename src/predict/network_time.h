#ifndef DNLR_PREDICT_NETWORK_TIME_H_
#define DNLR_PREDICT_NETWORK_TIME_H_

#include "predict/architecture.h"
#include "predict/dense_predictor.h"
#include "predict/sparse_predictor.h"

namespace dnlr::predict {

/// Full scoring-time estimate of a hybrid network (sparse first layer, dense
/// remainder), the quantity driving Tables 10-11 and the design methodology
/// of Section 6.1.
struct HybridTimeEstimate {
  /// Per-document time of the fully dense network.
  double dense_us_per_doc = 0.0;
  /// Share of the first layer in the dense forward pass (percent).
  double first_layer_impact_percent = 0.0;
  /// The paper's "predicted pruned scoring time": the dense time minus the
  /// first layer's contribution (its sparse cost is negligible above ~95 %
  /// sparsity).
  double pruned_us_per_doc = 0.0;
  /// pruned_us_per_doc plus the sparse predictor's estimate of the pruned
  /// first layer (worst-case active rows/columns).
  double hybrid_us_per_doc = 0.0;
};

/// Estimates the scoring time of `arch` when its first layer is pruned to
/// `first_layer_sparsity` and executed with the sparse kernel.
HybridTimeEstimate EstimateHybridTime(const Architecture& arch, uint32_t batch,
                                      double first_layer_sparsity,
                                      const DenseTimePredictor& dense,
                                      const SparseTimePredictor& sparse);

/// Predicted speed-up of sparse over dense multiplication for an m x k
/// weight matrix at the given sparsity and batch size, assuming every row
/// and column stays active (Figure 11's worst-case curves).
double PredictSparsitySpeedup(uint32_t m, uint32_t k, double sparsity,
                              uint32_t n, const DenseTimePredictor& dense,
                              const SparseTimePredictor& sparse);

}  // namespace dnlr::predict

#endif  // DNLR_PREDICT_NETWORK_TIME_H_

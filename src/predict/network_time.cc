#include "predict/network_time.h"

#include <cstdint>

#include "common/check.h"

namespace dnlr::predict {

HybridTimeEstimate EstimateHybridTime(const Architecture& arch, uint32_t batch,
                                      double first_layer_sparsity,
                                      const DenseTimePredictor& dense,
                                      const SparseTimePredictor& sparse) {
  DNLR_CHECK_GT(batch, 0u);
  DNLR_CHECK(!arch.hidden.empty());
  HybridTimeEstimate estimate;

  const std::vector<double> layer_micros = dense.PredictLayerMicros(arch, batch);
  double total = 0.0;
  for (const double micros : layer_micros) total += micros;
  estimate.dense_us_per_doc = total / batch;
  estimate.first_layer_impact_percent =
      total > 0.0 ? 100.0 * layer_micros[0] / total : 0.0;
  estimate.pruned_us_per_doc = (total - layer_micros[0]) / batch;

  const double sparse_first_us = sparse.PredictMicrosWorstCase(
      arch.hidden[0], arch.input_dim, first_layer_sparsity, batch);
  estimate.hybrid_us_per_doc =
      estimate.pruned_us_per_doc + sparse_first_us / batch;
  return estimate;
}

double PredictSparsitySpeedup(uint32_t m, uint32_t k, double sparsity,
                              uint32_t n, const DenseTimePredictor& dense,
                              const SparseTimePredictor& sparse) {
  const double dense_us = dense.PredictGemmMicros(m, k, n);
  const double sparse_us = sparse.PredictMicrosWorstCase(m, k, sparsity, n);
  return sparse_us > 0.0 ? dense_us / sparse_us : 0.0;
}

}  // namespace dnlr::predict

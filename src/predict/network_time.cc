#include "predict/network_time.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/thread_pool.h"
#include "mm/gemm.h"

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

uint32_t ParallelScaling::CrossoverDocs(double serial_us_per_doc) const {
  if (crossover_flops == 0) return 0;  // nothing measured: no gating
  if (crossover_flops == UINT64_MAX || Speedup() <= 1.0 ||
      serial_us_per_doc <= 0.0) {
    return UINT32_MAX;  // parallelism never wins here
  }
  // Smallest doc count whose parallel saving exceeds the fan-out cost:
  // docs * serial_us_per_doc * (1 - 1/speedup) > overhead_us.
  const double saved_fraction = 1.0 - 1.0 / Speedup();
  const double docs = overhead_us / (serial_us_per_doc * saved_fraction);
  if (docs >= static_cast<double>(UINT32_MAX)) return UINT32_MAX;
  return static_cast<uint32_t>(std::max(0.0, docs)) + 1;
}

ParallelScaling MeasureGemmParallelScaling(common::ThreadPool* pool,
                                           uint32_t m, uint32_t k, uint32_t n,
                                           int repeats) {
  ParallelScaling scaling;
  if (pool == nullptr || pool->num_threads() <= 1) return scaling;
  scaling.num_threads = pool->num_threads();

  // Efficiency at the representative large-batch shape. The no-crossover
  // params force the parallel kernel even on shapes the default GemmParams
  // gate would keep serial: this measurement IS the gate's calibration.
  // Both sides time the raw-A Gemm, so the ratio is the split's alone.
  mm::GemmParams ungated;
  ungated.min_parallel_flops = 0;
  const double serial_gflops = mm::MeasureGemmGflopsWithParams(
      ungated, m, k, n, repeats, /*seed=*/99, nullptr);
  const double parallel_gflops = mm::MeasureGemmGflopsWithParams(
      ungated, m, k, n, repeats, /*seed=*/99, pool);
  if (serial_gflops <= 0.0 || parallel_gflops <= 0.0) {
    scaling.efficiency = 0.0;
    scaling.crossover_flops = UINT64_MAX;
    return scaling;
  }
  // Invert speedup = 1 + e * (T - 1) for e, then clamp to [0, 1]:
  // oversubscribed or noisy measurements must never make predicted times
  // optimistic.
  const double speedup = parallel_gflops / serial_gflops;
  const double efficiency =
      (speedup - 1.0) / static_cast<double>(scaling.num_threads - 1);
  scaling.efficiency = std::min(1.0, std::max(0.0, efficiency));

  // Per-ParallelFor coordination cost from a deliberately tiny probe (the
  // fan-out dominates the compute there), as parallel-minus-serial time.
  // The probe shrinks mc so the 64-row A still splits into several
  // macro-blocks — with the default mc=72 the shape would be a single
  // chunk and never fan out at all.
  constexpr uint32_t kProbeM = 64, kProbeK = 64, kProbeN = 16;
  mm::GemmParams probe_params = ungated;
  probe_params.mc = 24;
  const double probe_flops = 2.0 * kProbeM * kProbeK * kProbeN;
  const double probe_serial_gflops = mm::MeasureGemmGflopsWithParams(
      probe_params, kProbeM, kProbeK, kProbeN, repeats, /*seed=*/99, nullptr);
  const double probe_parallel_gflops = mm::MeasureGemmGflopsWithParams(
      probe_params, kProbeM, kProbeK, kProbeN, repeats, /*seed=*/99, pool);
  if (probe_serial_gflops > 0.0 && probe_parallel_gflops > 0.0) {
    const double probe_serial_us = probe_flops / (probe_serial_gflops * 1e3);
    const double probe_parallel_us =
        probe_flops / (probe_parallel_gflops * 1e3);
    scaling.overhead_us =
        std::max(0.0, probe_parallel_us - probe_serial_us);
  }

  // Crossover: the work size whose parallel saving first repays the
  // overhead — serial_us(w) * (1 - 1/speedup) = overhead_us. With no
  // measured win (speedup ~ 1, e.g. a single hardware thread) parallelism
  // never pays and everything should stay serial.
  if (scaling.Speedup() <= 1.02) {
    scaling.crossover_flops = UINT64_MAX;
  } else {
    const double saved_fraction = 1.0 - 1.0 / scaling.Speedup();
    const double serial_flops_per_us = serial_gflops * 1e3;
    const double crossover =
        (scaling.overhead_us / saved_fraction) * serial_flops_per_us;
    if (crossover >= static_cast<double>(UINT64_MAX)) {
      scaling.crossover_flops = UINT64_MAX;
    } else {
      // Floor of one micro-burst of work: even with ~0 measured overhead a
      // multiplication under ~64k flops has chunks too small to matter.
      scaling.crossover_flops =
          std::max<uint64_t>(1u << 16, static_cast<uint64_t>(crossover));
    }
  }
  DNLR_CHECK_LE(scaling.efficiency, 1.0);
  DNLR_CHECK_GE(scaling.efficiency, 0.0);
  return scaling;
}

}  // namespace dnlr::predict

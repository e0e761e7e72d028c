#ifndef DNLR_PREDICT_NETWORK_TIME_H_
#define DNLR_PREDICT_NETWORK_TIME_H_

#include "predict/architecture.h"
#include "predict/dense_predictor.h"
#include "predict/sparse_predictor.h"

namespace dnlr::common {
class ThreadPool;
}  // namespace dnlr::common

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

/// How well multi-threaded scoring actually scales on this machine: a
/// serial time never shrinks by 1/T in practice (packing barriers, shared
/// memory bandwidth, the sequential PackB), so predicted times are scaled
/// by the MEASURED efficiency instead. With efficiency e in [0, 1], the
/// modeled speed-up at T threads is 1 + e * (T - 1): e = 1 is ideal linear
/// scaling, e = 0 is no scaling at all (the serial predictor unchanged).
///
/// The model also carries the measured parallel CROSSOVER: the fixed
/// coordination cost of one ParallelFor fan-out (`overhead_us`) and the
/// work size below which paying it loses (`crossover_flops`). Kernels use
/// it to keep sub-crossover batches on their serial fast path:
/// mm::GemmParams::min_parallel_flops takes crossover_flops directly, and
/// the document scorers derive a count threshold via CrossoverDocs.
struct ParallelScaling {
  uint32_t num_threads = 1;
  double efficiency = 1.0;
  /// Fixed per-ParallelFor fan-out + join cost in microseconds, measured at
  /// a deliberately sub-crossover probe shape (parallel minus serial time).
  double overhead_us = 0.0;
  /// Work sizes (2*m*n*k flops) below this lose to the serial path. 0 means
  /// "unknown / not measured" (no gating); UINT64_MAX means parallelism
  /// never wins on this machine (e.g. a single hardware thread) and
  /// everything should stay serial.
  uint64_t crossover_flops = 0;

  /// Modeled throughput multiplier over the serial path (>= 1).
  double Speedup() const {
    if (num_threads <= 1 || efficiency <= 0.0) return 1.0;
    return 1.0 + efficiency * (num_threads - 1);
  }

  /// Document-count crossover for a scorer whose serial cost is
  /// `serial_us_per_doc`: Score calls with fewer documents than this should
  /// stay serial. Solves serial_us(docs) * (1 - 1/Speedup()) > overhead_us
  /// — the point where the parallel win first exceeds the fan-out cost.
  /// Returns 0 (no gating) when nothing was measured and UINT32_MAX when
  /// parallelism never wins.
  uint32_t CrossoverDocs(double serial_us_per_doc) const;
};

/// Measures the parallel scaling of the blocked GEMM on `pool`.
/// Efficiency comes from a representative LARGE-batch shape (m x k weights
/// against a k x n batch panel; the default n = 512 is well above any
/// sane crossover — probing a sub-crossover shape here would report the
/// coordination tax as "efficiency", the bug behind a 0.075 reading on a
/// healthy pool) and is clamped to [0, 1]: super-linear measurement noise
/// must never make predicted times optimistic. The per-call coordination
/// overhead comes from a second, deliberately tiny probe, and the two
/// together locate crossover_flops. Returns the identity scaling (1
/// thread, efficiency 1, no crossover) for a null or single-thread pool.
ParallelScaling MeasureGemmParallelScaling(common::ThreadPool* pool,
                                           uint32_t m = 256, uint32_t k = 256,
                                           uint32_t n = 512, int repeats = 3);

}  // namespace dnlr::predict

#endif  // DNLR_PREDICT_NETWORK_TIME_H_

#ifndef DNLR_PREDICT_DENSE_PREDICTOR_H_
#define DNLR_PREDICT_DENSE_PREDICTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "predict/architecture.h"

namespace dnlr::predict {

/// One empirical GEMM throughput measurement: C(m x n) = A(m x k) * B(k x n)
/// ran at `gflops` on this machine.
struct DenseCalibrationPoint {
  uint32_t m = 0;
  uint32_t k = 0;
  uint32_t n = 0;
  double gflops = 0.0;
};

/// Grid of shapes to measure during calibration. The defaults mirror the
/// paper's Figures 4-6 study (m, k sweeps at several batch sizes) scaled to
/// run in seconds; m starts at 1 so that a network's 1-row scoring layer
/// and its narrow last hidden layers are measured, not extrapolated.
struct DenseCalibrationConfig {
  std::vector<uint32_t> m_values{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  std::vector<uint32_t> k_values{16, 32, 64, 128, 256, 512, 1024};
  std::vector<uint32_t> n_values{16, 64, 256, 1000};
  int repeats = 3;
};

/// The hybrid analytical-empirical dense forward-pass time predictor of
/// Section 4.2: a lookup table mapping matrix shape to measured GFLOPS
/// (because a single shape-independent t_m is unreliable, Figures 4-6),
/// combined with Equation 3's per-layer multiply counts.
class DenseTimePredictor {
 public:
  /// Builds the predictor from pre-measured points (e.g. deserialized).
  explicit DenseTimePredictor(std::vector<DenseCalibrationPoint> points);

  /// Measures the GEMM throughput grid on this machine and builds the
  /// predictor. Deterministic given the machine; takes seconds.
  static DenseTimePredictor Calibrate(
      const DenseCalibrationConfig& config = DenseCalibrationConfig());

  /// Predicted GFLOPS for a GEMM of the given shape: log-space
  /// nearest-neighbour lookup in the calibration table.
  double PredictGflops(uint32_t m, uint32_t k, uint32_t n) const;

  /// Predicted wall time in microseconds of one C = A*B at the given shape.
  double PredictGemmMicros(uint32_t m, uint32_t k, uint32_t n) const;

  /// Per-layer predicted times (microseconds for the whole batch) of a
  /// dense forward pass, final scoring layer included.
  std::vector<double> PredictLayerMicros(const Architecture& arch,
                                         uint32_t batch) const;

  /// Predicted per-document scoring time in microseconds at the given batch
  /// size (Equation 3 with shape-dependent t_m).
  double PredictForwardMicrosPerDoc(const Architecture& arch,
                                    uint32_t batch) const;

  /// Relative execution-time share of each layer in percent (Table 7).
  std::vector<double> PredictLayerImpactPercent(const Architecture& arch,
                                                uint32_t batch) const;

  /// Predicted per-document time when the first layer is pruned to
  /// negligible cost and runs sparse: the paper's design rule subtracts the
  /// dense first-layer contribution (Tables 10-11).
  double PredictPrunedForwardMicrosPerDoc(const Architecture& arch,
                                          uint32_t batch) const;

  const std::vector<DenseCalibrationPoint>& points() const { return points_; }

  /// Text (de)serialization so a calibration can be reused across runs.
  std::string Serialize() const;
  static Result<DenseTimePredictor> Deserialize(const std::string& text);

 private:
  std::vector<DenseCalibrationPoint> points_;
};

}  // namespace dnlr::predict

#endif  // DNLR_PREDICT_DENSE_PREDICTOR_H_

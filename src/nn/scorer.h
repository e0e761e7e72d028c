#ifndef DNLR_NN_SCORER_H_
#define DNLR_NN_SCORER_H_

#include <vector>

#include "common/thread_pool.h"
#include "data/normalize.h"
#include "forest/scorer.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "nn/mlp.h"

namespace dnlr::obs {
class Histogram;
}  // namespace dnlr::obs

namespace dnlr::nn {

/// Batching configuration of the neural scoring engines. The paper scores
/// in batches (n is the GEMM's N dimension); 64 is its sparse sweet spot.
struct NeuralScorerConfig {
  uint32_t batch_size = 64;
  /// Intra-request parallelism: when set, Score distributes whole
  /// batch_size-sized batches across the pool (each chunk runs the serial
  /// forward pass on its batches, so scores are bitwise identical to the
  /// serial engine). Null means single-threaded. Not owned; must outlive
  /// the scorer.
  common::ThreadPool* pool = nullptr;
  /// Parallel crossover: Score calls with fewer documents stay on the
  /// serial path even when a pool is set — below it, ParallelFor
  /// coordination costs more than the split saves. Callers with a measured
  /// predict::ParallelScaling should set this to
  /// scaling.CrossoverDocs(serial_us_per_doc); the default of two full
  /// batches is the structural floor (fewer than two batches cannot split
  /// at batch granularity anyway). UINT32_MAX pins the scorer serial.
  uint32_t min_parallel_docs = 128;
};

/// Per-call scratch of the layer-by-layer forward pass: two activation
/// matrices used as ping-pong buffers. Reused across every batch of one
/// Score call, so the steady state allocates nothing per batch (Reshape
/// reuses storage once the buffers reach the widest layer's size).
struct ForwardScratch {
  mm::Matrix ping;
  mm::Matrix pong;
};

/// Optimized dense neural inference on CPU: documents are Z-normalized and
/// packed as columns of B (features x batch); each layer is one blocked
/// GEMM C = W * B followed by bias + ReLU6. This is the C++ engine the
/// paper benchmarks against QuickScorer (Section 6.1 uses oneDNN's sgemm;
/// ours is the Goto-algorithm GEMM from mm/).
class NeuralScorer : public forest::DocumentScorer {
 public:
  /// Packs the model weights once, into the GEMM's A-panel layout, so no
  /// batch re-packs them; the Mlp is not referenced afterwards.
  /// `normalizer` may be null when inputs are already normalized; it is
  /// captured by pointer and must outlive the scorer.
  NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
               NeuralScorerConfig config = NeuralScorerConfig());

  std::string_view name() const override { return "neural-dense"; }

  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override;

 protected:
  /// Packs only layers [first_dense_layer, num_layers); earlier entries of
  /// weights_ stay empty for a subclass that serves them another way.
  NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
               NeuralScorerConfig config, uint32_t first_dense_layer);

  /// Scores one batch already packed column-major (features x batch). The
  /// input is read in place (layer 0 consumes it directly; no copy) and the
  /// remaining layers ping-pong between the scratch buffers. Overridden by
  /// the hybrid scorer to run the first layer sparse.
  virtual void ForwardColumns(const mm::Matrix& input_columns,
                              ForwardScratch* scratch, float* out) const;

  /// Applies bias and (optionally) ReLU6 row-wise to a (out x batch) matrix.
  static void BiasActivate(const std::vector<float>& bias, bool activate,
                           mm::Matrix* z);

  /// Scores the contiguous batch range [batch_begin, batch_end) of a Score
  /// call (batch i covers documents [i * batch_size, ...)). Each pool chunk
  /// runs one of these with its own scratch.
  void ScoreBatchRange(const float* docs, uint32_t count, uint32_t stride,
                       uint64_t batch_begin, uint64_t batch_end,
                       float* out) const;

  std::vector<mm::PackedMatrix> weights_;    // per layer, out x in
  std::vector<std::vector<float>> biases_;   // per layer
  const data::ZNormalizer* normalizer_;
  NeuralScorerConfig config_;
  uint32_t input_dim_;

  /// Observability: per-layer forward-time histograms plus the whole-batch
  /// forward histogram, resolved from the global registry at construction
  /// so the forward pass never touches the registry map. Layer 0's name
  /// marks the sparse / dense split (the hybrid engine re-points it at the
  /// sparse histogram). Recording is gated on the obs run-time switch and
  /// never alters scores.
  std::vector<obs::Histogram*> layer_histograms_;
  obs::Histogram* forward_histogram_ = nullptr;
};

/// The paper's hybrid engine: the (heavily pruned) first layer runs as
/// sparse-dense multiplication over its CSR weights, which are the only
/// copy of that layer the engine keeps; all remaining layers run dense.
/// This is the configuration that outperforms QuickScorer (Table 8,
/// Figures 12-13).
class HybridNeuralScorer : public NeuralScorer {
 public:
  HybridNeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                     NeuralScorerConfig config = NeuralScorerConfig());

  std::string_view name() const override { return "neural-hybrid-sparse"; }

  /// Sparsity of the first layer actually exploited by the engine.
  double first_layer_sparsity() const { return first_layer_.Sparsity(); }

 protected:
  void ForwardColumns(const mm::Matrix& input_columns,
                      ForwardScratch* scratch, float* out) const override;

 private:
  mm::CsrMatrix first_layer_;
};

}  // namespace dnlr::nn

#endif  // DNLR_NN_SCORER_H_

#ifndef DNLR_NN_SCORER_H_
#define DNLR_NN_SCORER_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/normalize.h"
#include "forest/scorer.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/panel.h"
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
  /// Parallel threshold: Score calls with fewer documents stay on the
  /// serial path even when a pool is set — below it, ParallelFor
  /// coordination costs more than the split saves. The default of two full
  /// batches is the structural floor (fewer than two batches cannot split
  /// at batch granularity anyway); callers raise it for a pool whose
  /// wake-up costs more. UINT32_MAX pins the scorer serial.
  uint32_t min_parallel_docs = 128;
};

/// Per-call scratch of the layer-by-layer forward pass: the input batch and
/// two activation buffers used as ping-pong, all in the GEMM's panel layout
/// (mm::PanelMatrix). Reused across every batch of one Score call; Reshape
/// neither zero-fills nor reallocates once a buffer reaches its high-water
/// size, so the steady state allocates and clears nothing per batch.
struct ForwardScratch {
  mm::PanelMatrix input;
  mm::PanelMatrix ping;
  mm::PanelMatrix pong;
};

/// Optimized dense neural inference on CPU: documents are Z-normalized
/// straight into the columns of a panel-layout batch (features x batch);
/// each layer is one mm::GemmLayer, the blocked GEMM W * X whose epilogue
/// adds the bias, applies ReLU6 and writes the next layer's panels. This is
/// the C++ engine the paper benchmarks against QuickScorer (Section 6.1
/// uses oneDNN's sgemm; ours is the Goto-algorithm GEMM from mm/).
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
  /// With `sparse_first_layer`, layer 0 is kept only as CSR weights and
  /// runs through mm::SdmmLayer; every other layer is packed for GemmLayer.
  NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
               NeuralScorerConfig config, bool sparse_first_layer);

  /// The forward pass over one batch in scratch->input (features x batch,
  /// panel layout): each layer reads the previous one's panels in place and
  /// writes the other ping-pong buffer; the last layer's single row is the
  /// batch's scores, copied to `out`.
  void ForwardColumns(ForwardScratch* scratch, float* out) const;

  /// Scores the contiguous batch range [batch_begin, batch_end) of a Score
  /// call (batch i covers documents [i * batch_size, ...)). Each pool chunk
  /// runs one of these with its own scratch.
  void ScoreBatchRange(const float* docs, uint32_t count, uint32_t stride,
                       uint64_t batch_begin, uint64_t batch_end,
                       float* out) const;

  std::vector<mm::PackedMatrix> weights_;    // per layer, out x in
  std::vector<std::vector<float>> biases_;   // per layer
  /// Layer 0 as CSR when it runs sparse (weights_[0] is then empty).
  mm::CsrMatrix first_layer_csr_;
  bool first_layer_sparse_ = false;
  const data::ZNormalizer* normalizer_;
  NeuralScorerConfig config_;
  uint32_t input_dim_;

  /// Observability: per-layer forward-time histograms plus the whole-batch
  /// forward histogram, resolved from the global registry at construction
  /// so the forward pass never touches the registry map. Layer 0's name
  /// marks the sparse / dense split (nn.layer0.sparse_us when it runs
  /// sparse). Recording is gated on the obs run-time switch and never
  /// alters scores.
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
  double first_layer_sparsity() const {
    return first_layer_csr_.Sparsity();
  }
};

/// The engine a student is served on (the paper's deployment split): hybrid
/// when layer 0 is at least half zeros, dense otherwise. The one place this
/// choice is made; arguments as for the scorers' constructors.
std::unique_ptr<forest::DocumentScorer> MakeStudentScorer(
    const Mlp& mlp, const data::ZNormalizer* normalizer,
    NeuralScorerConfig config = NeuralScorerConfig());

}  // namespace dnlr::nn

#endif  // DNLR_NN_SCORER_H_

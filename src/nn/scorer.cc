#include "nn/scorer.h"

#include <algorithm>
#include <string>

#include "mm/sdmm.h"
#include "obs/trace.h"

namespace dnlr::nn {

NeuralScorer::NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                           NeuralScorerConfig config)
    : NeuralScorer(mlp, normalizer, config, /*sparse_first_layer=*/false) {}

NeuralScorer::NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                           NeuralScorerConfig config, bool sparse_first_layer)
    : first_layer_sparse_(sparse_first_layer),
      normalizer_(normalizer),
      config_(config),
      input_dim_(mlp.arch().input_dim) {
  DNLR_CHECK_GT(config_.batch_size, 0u);
  if (normalizer_ != nullptr) {
    DNLR_CHECK_EQ(normalizer_->num_features(), input_dim_);
  }
  if (first_layer_sparse_) {
    first_layer_csr_ = mm::CsrMatrix::FromDense(mlp.layer(0).weight);
  }
  for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
    const bool sparse = l == 0 && first_layer_sparse_;
    weights_.push_back(sparse ? mm::PackedMatrix()
                              : mm::PackWeights(mlp.layer(l).weight));
    biases_.push_back(mlp.layer(l).bias);
    layer_histograms_.push_back(&obs::MetricsRegistry::Global().GetHistogram(
        "nn.layer" + std::to_string(l) +
        (sparse ? ".sparse_us" : ".dense_us")));
  }
  forward_histogram_ =
      &obs::MetricsRegistry::Global().GetHistogram("nn.forward_us");
}

void NeuralScorer::ForwardColumns(ForwardScratch* scratch, float* out) const {
  const uint32_t batch = scratch->input.cols();
  // Layer 0 reads the input panels in place; each later layer reads the
  // previous layer's buffer and writes the other one (ping-pong). Every
  // kernel's epilogue adds the bias and, below the scoring layer, applies
  // ReLU6 on its way into the next layer's panels.
  const mm::PanelMatrix* current = &scratch->input;
  mm::PanelMatrix* buffers[2] = {&scratch->ping, &scratch->pong};
  obs::TraceSpan forward_span(forward_histogram_);
  for (size_t l = 0; l < weights_.size(); ++l) {
    obs::TraceSpan layer_span(layer_histograms_[l]);
    mm::PanelMatrix* next = buffers[l % 2];
    const mm::LayerEpilogue epilogue{biases_[l].data(),
                                     /*relu6=*/l + 1 < weights_.size()};
    if (l == 0 && first_layer_sparse_) {
      mm::SdmmLayer(first_layer_csr_, *current, epilogue, next);
    } else {
      mm::GemmLayer(weights_[l], *current, epilogue, next);
    }
    current = next;
  }
  // The scoring layer has a single output row: row 0 of each panel.
  const uint32_t nr = current->nr();
  for (uint32_t p = 0; p < current->num_panels(); ++p) {
    const float* scores = current->Panel(p);
    const uint32_t first = p * nr;
    std::copy(scores, scores + std::min(nr, batch - first), out + first);
  }
}

void NeuralScorer::ScoreBatchRange(const float* docs, uint32_t count,
                                   uint32_t stride, uint64_t batch_begin,
                                   uint64_t batch_end, float* out) const {
  // The panel width the weights were packed for (PackWeights' default
  // blocking), which GemmLayer requires of its input.
  const uint32_t nr = mm::GemmParams().nr;
  ForwardScratch scratch;
  mm::PanelMatrix& input = scratch.input;
  for (uint64_t bi = batch_begin; bi < batch_end; ++bi) {
    const uint32_t start = static_cast<uint32_t>(bi) * config_.batch_size;
    const uint32_t batch = std::min(config_.batch_size, count - start);
    // Each document becomes one panel column (features x batch),
    // normalized on the way in; padding columns are zeroed so every layer
    // multiplies finite values.
    input.Reshape(input_dim_, batch, nr);
    for (uint32_t b = 0; b < batch; ++b) {
      const float* row = docs + static_cast<size_t>(start + b) * stride;
      float* column = input.Col(b);
      if (normalizer_ != nullptr) {
        normalizer_->ApplyTo(row, column, nr);
      } else {
        for (uint32_t f = 0; f < input_dim_; ++f) column[f * nr] = row[f];
      }
    }
    for (uint32_t b = batch; b < input.padded_cols(); ++b) {
      float* column = input.Col(b);
      for (uint32_t f = 0; f < input_dim_; ++f) column[f * nr] = 0.0f;
    }
    ForwardColumns(&scratch, out + start);
  }
}

void NeuralScorer::Score(const float* docs, uint32_t count, uint32_t stride,
                         float* out) const {
  if (count == 0) return;
  DNLR_OBS_COUNT("nn.docs", count);
  const uint64_t num_batches =
      (static_cast<uint64_t>(count) + config_.batch_size - 1) /
      config_.batch_size;
  common::ThreadPool* pool = config_.pool;
  // The crossover gate: sub-threshold candidate sets never pay the fan-out.
  if (pool != nullptr && pool->num_threads() > 1 && num_batches > 1 &&
      count >= config_.min_parallel_docs) {
    // Whole batches are the distribution unit, so every document sees the
    // same batch boundaries — and therefore bitwise-identical scores — as
    // the serial path.
    pool->ParallelFor(num_batches,
                      [&](uint32_t /*chunk*/, uint64_t begin, uint64_t end) {
                        ScoreBatchRange(docs, count, stride, begin, end, out);
                      });
    return;
  }
  ScoreBatchRange(docs, count, stride, 0, num_batches, out);
}

HybridNeuralScorer::HybridNeuralScorer(const Mlp& mlp,
                                       const data::ZNormalizer* normalizer,
                                       NeuralScorerConfig config)
    : NeuralScorer(mlp, normalizer, config, /*sparse_first_layer=*/true) {}

std::unique_ptr<forest::DocumentScorer> MakeStudentScorer(
    const Mlp& mlp, const data::ZNormalizer* normalizer,
    NeuralScorerConfig config) {
  if (mlp.layer(0).weight.Sparsity() >= 0.5) {
    return std::make_unique<HybridNeuralScorer>(mlp, normalizer, config);
  }
  return std::make_unique<NeuralScorer>(mlp, normalizer, config);
}

}  // namespace dnlr::nn

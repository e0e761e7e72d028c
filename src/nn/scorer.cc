#include "nn/scorer.h"

#include <algorithm>
#include <string>

#include "mm/sdmm.h"
#include "obs/trace.h"

namespace dnlr::nn {

NeuralScorer::NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                           NeuralScorerConfig config)
    : NeuralScorer(mlp, normalizer, config, /*first_dense_layer=*/0) {}

NeuralScorer::NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                           NeuralScorerConfig config,
                           uint32_t first_dense_layer)
    : normalizer_(normalizer),
      config_(config),
      input_dim_(mlp.arch().input_dim) {
  DNLR_CHECK_GT(config_.batch_size, 0u);
  if (normalizer_ != nullptr) {
    DNLR_CHECK_EQ(normalizer_->num_features(), input_dim_);
  }
  for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
    weights_.push_back(l < first_dense_layer
                           ? mm::PackedMatrix()
                           : mm::PackWeights(mlp.layer(l).weight));
    biases_.push_back(mlp.layer(l).bias);
    layer_histograms_.push_back(&obs::MetricsRegistry::Global().GetHistogram(
        "nn.layer" + std::to_string(l) + ".dense_us"));
  }
  forward_histogram_ =
      &obs::MetricsRegistry::Global().GetHistogram("nn.forward_us");
}

void NeuralScorer::BiasActivate(const std::vector<float>& bias, bool activate,
                                mm::Matrix* z) {
  for (uint32_t o = 0; o < z->rows(); ++o) {
    float* row = z->Row(o);
    const float b = bias[o];
    if (activate) {
      for (uint32_t j = 0; j < z->cols(); ++j) row[j] = Relu6(row[j] + b);
    } else {
      for (uint32_t j = 0; j < z->cols(); ++j) row[j] += b;
    }
  }
}

void NeuralScorer::ForwardColumns(const mm::Matrix& input_columns,
                                  ForwardScratch* scratch, float* out) const {
  const uint32_t batch = input_columns.cols();
  // Layer 0 reads the packed input in place; each later layer reads the
  // previous layer's buffer and writes the other one (ping-pong), so no
  // layer allocates once the scratch reaches its high-water size.
  const mm::Matrix* current = &input_columns;
  mm::Matrix* buffers[2] = {&scratch->ping, &scratch->pong};
  obs::TraceSpan forward_span(forward_histogram_);
  for (size_t l = 0; l < weights_.size(); ++l) {
    obs::TraceSpan layer_span(layer_histograms_[l]);
    mm::Matrix* next = buffers[l % 2];
    next->Reshape(weights_[l].rows(), batch);
    mm::Gemm(weights_[l], *current, next);
    BiasActivate(biases_[l], /*activate=*/l + 1 < weights_.size(), next);
    current = next;
  }
  // Final layer has a single output row: the scores.
  const float* scores = current->Row(0);
  std::copy(scores, scores + batch, out);
}

void NeuralScorer::ScoreBatchRange(const float* docs, uint32_t count,
                                   uint32_t stride, uint64_t batch_begin,
                                   uint64_t batch_end, float* out) const {
  std::vector<float> normalized(input_dim_);
  ForwardScratch scratch;
  mm::Matrix columns;
  for (uint64_t bi = batch_begin; bi < batch_end; ++bi) {
    const uint32_t start = static_cast<uint32_t>(bi) * config_.batch_size;
    const uint32_t batch = std::min(config_.batch_size, count - start);
    // Pack documents as columns of B (features x batch), normalizing on the
    // way in.
    columns.Reshape(input_dim_, batch);
    for (uint32_t b = 0; b < batch; ++b) {
      const float* row = docs + static_cast<size_t>(start + b) * stride;
      std::copy(row, row + input_dim_, normalized.begin());
      if (normalizer_ != nullptr) normalizer_->Apply(normalized.data());
      for (uint32_t f = 0; f < input_dim_; ++f) {
        columns.At(f, b) = normalized[f];
      }
    }
    ForwardColumns(columns, &scratch, out + start);
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
    : NeuralScorer(mlp, normalizer, config, /*first_dense_layer=*/1),
      first_layer_(mm::CsrMatrix::FromDense(mlp.layer(0).weight)) {
  // The first layer runs sparse here: record it under the sparse name so
  // the stats report shows the sparse / dense split per layer.
  layer_histograms_[0] =
      &obs::MetricsRegistry::Global().GetHistogram("nn.layer0.sparse_us");
}

void HybridNeuralScorer::ForwardColumns(const mm::Matrix& input_columns,
                                        ForwardScratch* scratch,
                                        float* out) const {
  const uint32_t batch = input_columns.cols();
  mm::Matrix* buffers[2] = {&scratch->ping, &scratch->pong};
  obs::TraceSpan forward_span(forward_histogram_);
  // First layer: sparse weights x dense input columns, read in place.
  mm::Matrix* current = buffers[0];
  {
    obs::TraceSpan layer_span(layer_histograms_[0]);
    current->Reshape(first_layer_.rows(), batch);
    mm::Sdmm(first_layer_, input_columns, current);
    BiasActivate(biases_[0], /*activate=*/weights_.size() > 1, current);
  }
  // Remaining layers: dense, ping-ponging between the two buffers.
  for (size_t l = 1; l < weights_.size(); ++l) {
    obs::TraceSpan layer_span(layer_histograms_[l]);
    mm::Matrix* next = buffers[l % 2];
    next->Reshape(weights_[l].rows(), batch);
    mm::Gemm(weights_[l], *current, next);
    BiasActivate(biases_[l], /*activate=*/l + 1 < weights_.size(), next);
    current = next;
  }
  const float* scores = current->Row(0);
  std::copy(scores, scores + batch, out);
}

}  // namespace dnlr::nn

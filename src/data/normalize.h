#ifndef DNLR_DATA_NORMALIZE_H_
#define DNLR_DATA_NORMALIZE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace dnlr::data {

/// Per-feature Z-normalization (x - mean) / std, the preprocessing Cohen et
/// al. identify as essential for neural rankers on handcrafted features
/// (paper Section 3). Statistics are fitted on the training set only and
/// applied unchanged to validation/test data and to augmented samples.
class ZNormalizer {
 public:
  ZNormalizer() = default;

  /// Fits mean / std per feature on `train`. Features with (near-)zero
  /// variance get std clamped to 1 so they normalize to a constant instead
  /// of exploding.
  void Fit(const Dataset& train);

  /// Constructs directly from precomputed statistics (for model loading).
  ZNormalizer(std::vector<float> mean, std::vector<float> stddev);

  /// Normalizes one feature vector in place.
  void Apply(float* row) const { ApplyTo(row, row, 1); }

  /// Writes the normalized `row` to out[f * out_stride] (a column of a
  /// panel-layout batch, for the neural scorers); `out` may equal `row`
  /// when out_stride is 1.
  void ApplyTo(const float* row, float* out, size_t out_stride) const;

  /// Returns a normalized copy of the whole dataset.
  Dataset Transform(const Dataset& input) const;

  /// Binary (de)serialization: the little-endian "ZNM2" payload carried by
  /// v2 binary bundles (the text codec lives in bundle/bundle.h, next to
  /// the container that defined it). Mean/stddev arrays are raw float bytes
  /// padded to SIMD alignment; both directions reject non-finite statistics
  /// and non-positive stddevs, mirroring the text codec's contract.
  Result<std::string> SerializeBinary() const;
  static Result<ZNormalizer> DeserializeBinary(std::string_view bytes);

  bool fitted() const { return !mean_.empty(); }
  uint32_t num_features() const {
    return static_cast<uint32_t>(mean_.size());
  }
  const std::vector<float>& mean() const { return mean_; }
  const std::vector<float>& stddev() const { return stddev_; }

 private:
  std::vector<float> mean_;
  std::vector<float> stddev_;
};

}  // namespace dnlr::data

#endif  // DNLR_DATA_NORMALIZE_H_

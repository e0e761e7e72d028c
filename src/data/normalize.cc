#include "data/normalize.h"

#include <cmath>
#include <utility>

#include "common/aligned.h"
#include "common/binio.h"

namespace dnlr::data {

void ZNormalizer::Fit(const Dataset& train) {
  mean_ = train.FeatureMean();
  stddev_ = train.FeatureStddev();
  for (float& s : stddev_) {
    if (s < 1e-12f) s = 1.0f;
  }
}

ZNormalizer::ZNormalizer(std::vector<float> mean, std::vector<float> stddev)
    : mean_(std::move(mean)), stddev_(std::move(stddev)) {
  DNLR_CHECK_EQ(mean_.size(), stddev_.size());
  for (float& s : stddev_) {
    if (s < 1e-12f) s = 1.0f;
  }
}

void ZNormalizer::ApplyTo(const float* row, float* out,
                          size_t out_stride) const {
  for (size_t f = 0; f < mean_.size(); ++f) {
    out[f * out_stride] = (row[f] - mean_[f]) / stddev_[f];
  }
}

Dataset ZNormalizer::Transform(const Dataset& input) const {
  DNLR_CHECK_EQ(input.num_features(), num_features());
  Dataset out = input;
  for (uint32_t d = 0; d < out.num_docs(); ++d) Apply(out.MutableRow(d));
  return out;
}

// Binary "ZNM2" payload layout (little-endian; see common/binio.h):
//   "ZNM2"  u32 num_features
//   pad to kSimdAlignment, f32 mean[num_features]
//   pad to kSimdAlignment, f32 stddev[num_features]
Result<std::string> ZNormalizer::SerializeBinary() const {
  if (!fitted()) {
    return Status::InvalidArgument("cannot serialize an unfitted normalizer");
  }
  for (size_t f = 0; f < mean_.size(); ++f) {
    if (!std::isfinite(mean_[f]) || !std::isfinite(stddev_[f]) ||
        stddev_[f] <= 0.0f) {
      return Status::InvalidArgument(
          "cannot serialize normalizer: bad statistics at feature " +
          std::to_string(f));
    }
  }
  std::string out;
  AppendBytes(out, "ZNM2", 4);
  AppendU32(out, static_cast<uint32_t>(mean_.size()));
  AppendPadTo(out, kSimdAlignment);
  AppendBytes(out, mean_.data(), mean_.size() * sizeof(float));
  AppendPadTo(out, kSimdAlignment);
  AppendBytes(out, stddev_.data(), stddev_.size() * sizeof(float));
  return out;
}

Result<ZNormalizer> ZNormalizer::DeserializeBinary(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (!reader.ExpectTag("ZNM2")) {
    return Status::ParseError("not a binary normalizer payload (bad ZNM2 tag)");
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count) || count == 0) {
    return Status::ParseError("bad binary normalizer feature count");
  }
  std::vector<float> mean;
  std::vector<float> stddev;
  if (!reader.AlignTo(kSimdAlignment) || !reader.ReadPodArray(&mean, count) ||
      !reader.AlignTo(kSimdAlignment) ||
      !reader.ReadPodArray(&stddev, count) || reader.remaining() != 0) {
    return Status::ParseError("truncated binary normalizer statistics");
  }
  for (uint32_t f = 0; f < count; ++f) {
    if (!std::isfinite(mean[f])) {
      return Status::ParseError("non-finite binary normalizer mean");
    }
    if (!std::isfinite(stddev[f]) || stddev[f] <= 0.0f) {
      return Status::ParseError(
          "non-finite or non-positive binary normalizer stddev");
    }
  }
  return ZNormalizer(std::move(mean), std::move(stddev));
}

}  // namespace dnlr::data

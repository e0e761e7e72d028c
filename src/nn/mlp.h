#ifndef DNLR_NN_MLP_H_
#define DNLR_NN_MLP_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "mm/matrix.h"
#include "mm/panel.h"
#include "predict/architecture.h"

namespace dnlr::nn {

/// One fully connected layer: y = W x + b with W of shape (out x in).
struct LinearLayer {
  mm::Matrix weight;
  std::vector<float> bias;

  uint32_t out_dim() const { return weight.rows(); }
  uint32_t in_dim() const { return weight.cols(); }
};

/// ReLU6(x) = min(max(x, 0), 6), the activation the paper uses after every
/// layer except the last. One definition serves training, the scalar
/// reference forward pass and the fused layer kernels' epilogue.
using mm::Relu6;

/// Derivative of ReLU6 (zero outside the open interval (0, 6)).
inline float Relu6Grad(float x) {
  return (x > 0.0f && x < 6.0f) ? 1.0f : 0.0f;
}

/// A feed-forward ranking network: hidden layers with ReLU6, a final linear
/// scoring layer of width 1. Training lives in Trainer; fast batched
/// inference in NeuralScorer / HybridNeuralScorer.
class Mlp {
 public:
  /// He-initialized network of the given shape.
  Mlp(const predict::Architecture& arch, uint64_t seed);

  const predict::Architecture& arch() const { return arch_; }
  uint32_t num_layers() const { return static_cast<uint32_t>(layers_.size()); }
  LinearLayer& layer(uint32_t i) { return layers_[i]; }
  const LinearLayer& layer(uint32_t i) const { return layers_[i]; }

  /// Reference forward pass: input is (batch x input_dim) row-major, output
  /// one score per row. Used by training and tests; the optimized engines
  /// in scorer.h are the measured ones.
  std::vector<float> Forward(const mm::Matrix& input) const;

  /// Forward for a single feature vector.
  float ForwardOne(const float* features) const;

  /// Total and per-layer weight counts (bias excluded).
  size_t NumWeights() const;

  /// Overall weight sparsity (fraction of exact zeros).
  double WeightSparsity() const;

  /// Text (de)serialization, including the architecture. Both directions
  /// use the classic "C" locale regardless of the process-global locale, and
  /// floats print with max_digits10 precision, so a save/load round-trip is
  /// bitwise exact. Serialize rejects non-finite weights or biases with
  /// InvalidArgument: a model carrying NaN/Inf must fail loudly at save
  /// time, not as a misleading parse error on the next load.
  Result<std::string> Serialize() const;
  static Result<Mlp> Deserialize(const std::string& text);

  /// Binary (de)serialization: the little-endian "MLP2" payload carried by
  /// v2 binary bundles. Weight and bias arrays are raw float bytes padded
  /// to kSimdAlignment boundaries (payload-relative, which the 64-aligned
  /// bundle sections make absolute in a mapped file), so loading is a
  /// bounds-checked memcpy instead of a text float parse — bitwise
  /// identical to the text round-trip, orders of magnitude faster.
  /// SerializeBinary applies the same non-finite rejection as Serialize.
  Result<std::string> SerializeBinary() const;
  static Result<Mlp> DeserializeBinary(std::string_view bytes);

  /// Crash-safe save: the model is serialized, written to a temp file and
  /// atomically renamed over `path` (common::AtomicWriteFile), so a crash
  /// or full disk mid-save never leaves a torn model at the live path.
  Status SaveToFile(const std::string& path) const;
  static Result<Mlp> LoadFromFile(const std::string& path);

 private:
  /// Shape-only construction for the decoders: every layer allocated at
  /// its shape with zero weights and biases, which the payload then
  /// overwrites. Skips the seeded constructor's random draws.
  struct ShapeOnly {};
  Mlp(const predict::Architecture& arch, ShapeOnly);

  predict::Architecture arch_;
  std::vector<LinearLayer> layers_;
};

}  // namespace dnlr::nn

#endif  // DNLR_NN_MLP_H_

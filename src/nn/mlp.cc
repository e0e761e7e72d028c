#include "nn/mlp.h"

#include <cmath>
#include <limits>
#include <locale>
#include <sstream>

#include "common/aligned.h"
#include "common/binio.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "nn/validate.h"

namespace dnlr::nn {

Mlp::Mlp(const predict::Architecture& arch, ShapeOnly) : arch_(arch) {
  DNLR_CHECK_GT(arch.input_dim, 0u);
  DNLR_CHECK(!arch.hidden.empty());
  for (const auto& [out, in] : arch.LayerShapes()) {
    LinearLayer layer;
    layer.weight = mm::Matrix(out, in);
    layer.bias.assign(out, 0.0f);
    layers_.push_back(std::move(layer));
  }
}

Mlp::Mlp(const predict::Architecture& arch, uint64_t seed)
    : Mlp(arch, ShapeOnly{}) {
  Rng rng(seed);
  for (LinearLayer& layer : layers_) {
    // He initialization: suited to ReLU-family activations.
    const float stddev =
        std::sqrt(2.0f / static_cast<float>(layer.in_dim()));
    layer.weight.FillNormal(rng, 0.0f, stddev);
  }
}

std::vector<float> Mlp::Forward(const mm::Matrix& input) const {
  DNLR_CHECK_EQ(input.cols(), arch_.input_dim);
  const uint32_t batch = input.rows();
  mm::Matrix current = input;
  for (uint32_t l = 0; l < num_layers(); ++l) {
    const LinearLayer& layer = layers_[l];
    mm::Matrix next(batch, layer.out_dim());
    for (uint32_t b = 0; b < batch; ++b) {
      const float* x = current.Row(b);
      float* y = next.Row(b);
      for (uint32_t o = 0; o < layer.out_dim(); ++o) {
        const float* w = layer.weight.Row(o);
        float sum = layer.bias[o];
        for (uint32_t i = 0; i < layer.in_dim(); ++i) sum += w[i] * x[i];
        y[o] = (l + 1 < num_layers()) ? Relu6(sum) : sum;
      }
    }
    current = std::move(next);
  }
  std::vector<float> scores(batch);
  for (uint32_t b = 0; b < batch; ++b) scores[b] = current.At(b, 0);
  return scores;
}

float Mlp::ForwardOne(const float* features) const {
  mm::Matrix input(1, arch_.input_dim);
  for (uint32_t f = 0; f < arch_.input_dim; ++f) input.At(0, f) = features[f];
  return Forward(input)[0];
}

size_t Mlp::NumWeights() const {
  size_t count = 0;
  for (const LinearLayer& layer : layers_) count += layer.weight.size();
  return count;
}

double Mlp::WeightSparsity() const {
  size_t zeros = 0;
  size_t total = 0;
  for (const LinearLayer& layer : layers_) {
    total += layer.weight.size();
    for (size_t i = 0; i < layer.weight.size(); ++i) {
      zeros += layer.weight.data()[i] == 0.0f;
    }
  }
  return total > 0
             ? static_cast<double>(zeros) / static_cast<double>(total)
             : 0.0;
}

// Grammar:
//   mlp <input_dim> <num_hidden> <h1> ... <hd>
//   layer <out> <in>
//   <out*in weights> <out biases>
Result<std::string> Mlp::Serialize() const {
  for (uint32_t l = 0; l < num_layers(); ++l) {
    const LinearLayer& layer = layers_[l];
    for (size_t i = 0; i < layer.weight.size(); ++i) {
      if (!std::isfinite(layer.weight.data()[i])) {
        return Status::InvalidArgument(
            "cannot serialize mlp: non-finite weight at layer " +
            std::to_string(l) + " index " + std::to_string(i));
      }
    }
    for (size_t i = 0; i < layer.bias.size(); ++i) {
      if (!std::isfinite(layer.bias[i])) {
        return Status::InvalidArgument(
            "cannot serialize mlp: non-finite bias at layer " +
            std::to_string(l) + " index " + std::to_string(i));
      }
    }
  }
  std::ostringstream out;
  // The classic locale pins the decimal separator to '.' no matter what the
  // process-global locale says (a comma-decimal locale would corrupt every
  // weight), and max_digits10 guarantees a bitwise-exact float round-trip.
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<float>::max_digits10);
  out << "mlp " << arch_.input_dim << ' ' << arch_.hidden.size();
  for (const uint32_t h : arch_.hidden) out << ' ' << h;
  out << '\n';
  for (const LinearLayer& layer : layers_) {
    out << "layer " << layer.out_dim() << ' ' << layer.in_dim() << '\n';
    for (size_t i = 0; i < layer.weight.size(); ++i) {
      out << layer.weight.data()[i] << (i + 1 == layer.weight.size() ? '\n' : ' ');
    }
    for (size_t i = 0; i < layer.bias.size(); ++i) {
      out << layer.bias[i] << (i + 1 == layer.bias.size() ? '\n' : ' ');
    }
  }
  return out.str();
}

Result<Mlp> Mlp::Deserialize(const std::string& text) {
  std::istringstream in(text);
  // Parse under the classic locale so a comma-decimal global locale cannot
  // silently truncate "0.5" to 0 (operator>> stops at the unexpected '.').
  in.imbue(std::locale::classic());
  std::string keyword;
  uint32_t input_dim = 0;
  size_t num_hidden = 0;
  if (!(in >> keyword >> input_dim >> num_hidden) || keyword != "mlp") {
    return Status::ParseError("expected 'mlp <input> <layers> ...' header");
  }
  // The constructor requires a non-empty architecture, and every declared
  // count is checked against the text left before anything is allocated.
  if (input_dim == 0 || num_hidden == 0) {
    return Status::ParseError("implausible mlp architecture header");
  }
  if (num_hidden > MaxTokensLeft(in)) {
    return Status::ParseError("truncated architecture");
  }
  std::vector<uint32_t> hidden(num_hidden);
  for (uint32_t& h : hidden) {
    if (!(in >> h)) return Status::ParseError("truncated architecture");
    if (h == 0) return Status::ParseError("implausible mlp layer width");
  }
  const predict::Architecture arch(input_dim, std::move(hidden));
  // Each term is below 2^64 (both factors are u32), and the running sum is
  // checked against the budget before it could overflow.
  const uint64_t budget = MaxTokensLeft(in);
  uint64_t declared = 0;
  for (const auto& [out_dim, in_dim] : arch.LayerShapes()) {
    const uint64_t floats = static_cast<uint64_t>(out_dim) * in_dim + out_dim;
    if (floats > budget - declared) {
      return Status::ParseError(
          "mlp declares more weights and biases than its text holds");
    }
    declared += floats;
  }
  Mlp mlp(arch, ShapeOnly{});
  for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
    uint32_t out_dim = 0;
    uint32_t in_dim = 0;
    if (!(in >> keyword >> out_dim >> in_dim) || keyword != "layer" ||
        out_dim != mlp.layer(l).out_dim() || in_dim != mlp.layer(l).in_dim()) {
      return Status::ParseError("bad layer header at layer " +
                                std::to_string(l));
    }
    LinearLayer& layer = mlp.layer(l);
    for (size_t i = 0; i < layer.weight.size(); ++i) {
      if (!(in >> layer.weight.data()[i])) {
        return Status::ParseError("truncated weights at layer " +
                                  std::to_string(l));
      }
    }
    for (float& b : layer.bias) {
      if (!(in >> b)) {
        return Status::ParseError("truncated biases at layer " +
                                  std::to_string(l));
      }
    }
  }
#ifndef NDEBUG
  // Debug builds reject malformed models (non-finite weights, broken layer
  // chaining) at the parse boundary; release callers opt in via ValidateMlp.
  DNLR_RETURN_IF_ERROR(ValidateMlp(mlp));
#endif
  return mlp;
}

// Binary "MLP2" payload layout (little-endian; see common/binio.h):
//   "MLP2"  u32 input_dim  u32 num_hidden  u32 hidden[num_hidden]
//   per layer, forward order:
//     pad to kSimdAlignment, f32 weight[out*in] (row-major),
//     pad to kSimdAlignment, f32 bias[out]
// Layer shapes are derived from the architecture header, so the arrays
// carry no redundant framing; the container section's length and CRC cover
// integrity, and every read below is bounds-checked.
Result<std::string> Mlp::SerializeBinary() const {
  for (uint32_t l = 0; l < num_layers(); ++l) {
    const LinearLayer& layer = layers_[l];
    for (size_t i = 0; i < layer.weight.size(); ++i) {
      if (!std::isfinite(layer.weight.data()[i])) {
        return Status::InvalidArgument(
            "cannot serialize mlp: non-finite weight at layer " +
            std::to_string(l) + " index " + std::to_string(i));
      }
    }
    for (size_t i = 0; i < layer.bias.size(); ++i) {
      if (!std::isfinite(layer.bias[i])) {
        return Status::InvalidArgument(
            "cannot serialize mlp: non-finite bias at layer " +
            std::to_string(l) + " index " + std::to_string(i));
      }
    }
  }
  std::string out;
  AppendBytes(out, "MLP2", 4);
  AppendU32(out, arch_.input_dim);
  AppendU32(out, static_cast<uint32_t>(arch_.hidden.size()));
  for (const uint32_t h : arch_.hidden) AppendU32(out, h);
  for (const LinearLayer& layer : layers_) {
    AppendPadTo(out, kSimdAlignment);
    AppendBytes(out, layer.weight.data(),
                layer.weight.size() * sizeof(float));
    AppendPadTo(out, kSimdAlignment);
    AppendBytes(out, layer.bias.data(), layer.bias.size() * sizeof(float));
  }
  return out;
}

Result<Mlp> Mlp::DeserializeBinary(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (!reader.ExpectTag("MLP2")) {
    return Status::ParseError("not a binary mlp payload (bad MLP2 tag)");
  }
  uint32_t input_dim = 0;
  uint32_t num_hidden = 0;
  if (!reader.ReadU32(&input_dim) || !reader.ReadU32(&num_hidden)) {
    return Status::ParseError("truncated binary mlp header");
  }
  // Dimension caps keep the weight-count arithmetic below overflow-free;
  // real architectures are orders of magnitude smaller.
  constexpr uint32_t kMaxDim = 1u << 20;
  constexpr uint32_t kMaxHidden = 1024;
  if (input_dim == 0 || input_dim > kMaxDim || num_hidden == 0 ||
      num_hidden > kMaxHidden) {
    return Status::ParseError("implausible binary mlp architecture header");
  }
  std::vector<uint32_t> hidden(num_hidden);
  for (uint32_t& h : hidden) {
    if (!reader.ReadU32(&h)) {
      return Status::ParseError("truncated binary mlp architecture");
    }
    if (h == 0 || h > kMaxDim) {
      return Status::ParseError("implausible binary mlp layer width");
    }
  }
  const predict::Architecture arch(input_dim, std::move(hidden));
  // Every declared weight and bias must fit in the payload, checked before
  // any allocation: a forged header cannot demand a giant model. Each term
  // is <= 2^40 and there are <= kMaxHidden + 1 of them — no u64 overflow.
  uint64_t declared_floats = 0;
  for (const auto& [out_dim, in_dim] : arch.LayerShapes()) {
    declared_floats +=
        static_cast<uint64_t>(out_dim) * in_dim + out_dim;
  }
  if (declared_floats > bytes.size() / sizeof(float)) {
    return Status::ParseError(
        "binary mlp declares more weights than the payload holds");
  }
  Mlp mlp(arch, ShapeOnly{});
  for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
    LinearLayer& layer = mlp.layer(l);
    if (!reader.AlignTo(kSimdAlignment) ||
        !reader.ReadPodSpan(layer.weight.data(), layer.weight.size()) ||
        !reader.AlignTo(kSimdAlignment) ||
        !reader.ReadPodSpan(layer.bias.data(), layer.bias.size())) {
      return Status::ParseError("truncated binary mlp weights at layer " +
                                std::to_string(l));
    }
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("trailing bytes after binary mlp weights (" +
                              std::to_string(reader.remaining()) +
                              " unaccounted)");
  }
#ifndef NDEBUG
  // Same boundary policy as the text parser: debug builds validate here,
  // release callers opt in via ValidateMlp.
  DNLR_RETURN_IF_ERROR(ValidateMlp(mlp));
#endif
  return mlp;
}

Status Mlp::SaveToFile(const std::string& path) const {
  Result<std::string> text = Serialize();
  if (!text.ok()) return text.status();
  return AtomicWriteFile(path, *text);
}

Result<Mlp> Mlp::LoadFromFile(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return Deserialize(*text);
}

}  // namespace dnlr::nn

#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace dnlr::data {
namespace {

enum class FeatureKind { kScore, kInteraction, kDirect, kRedundant, kNoise };

enum class Transform { kIdentity, kLog1p, kSquare, kSqrt, kQuantized };

struct FeatureSpec {
  FeatureKind kind;
  Transform transform;
  // Latent indices used by interaction / direct features.
  uint32_t latent_a = 0;
  uint32_t latent_b = 0;
  // Source feature for redundant features.
  uint32_t source = 0;
  // Output scale, heterogeneous across features.
  float scale = 1.0f;
};

/// Threshold rule contributing to the true relevance: fires when two
/// *observed* feature values exceed their cut points (empirical quantiles),
/// with mildly query-dependent strength. This axis-aligned, discontinuous
/// structure defined directly on the features is what makes tree ensembles
/// the stronger model family on handcrafted-feature LtR data (paper
/// Section 1): a regression tree represents each rule exactly with two
/// splits, while a smooth network can only approximate its jumps.
struct RelevanceRule {
  uint32_t feature_a = 0;
  uint32_t feature_b = 0;
  // Quantile positions of the cut points, resolved against the generated
  // data's empirical distribution.
  double quantile_a = 0.5;
  double quantile_b = 0.5;
  float cut_a = 0.0f;  // resolved thresholds
  float cut_b = 0.0f;
  // Transition widths of the saturating threshold responses (resolved from
  // the features' inter-quartile ranges). Sharp enough that a tree split
  // captures a rule almost exactly, smooth enough that the function is
  // learnable by a distilled network — the regime of real LETOR data, where
  // forests win but distilled students track them closely.
  float tau_a = 1.0f;
  float tau_b = 1.0f;
  uint32_t query_dim = 0;  // rule strength scales with w_q[query_dim]
  float amplitude = 1.0f;
};

/// Saturating threshold response: ~0 below the cut, ~1 above, transition
/// width tau.
inline float ThresholdResponse(float value, float cut, float tau) {
  const float z = (value - cut) / tau;
  if (z > 15.0f) return 1.0f;
  if (z < -15.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-z));
}

std::vector<RelevanceRule> MakeRules(const SyntheticConfig& config,
                                     const std::vector<uint32_t>& feature_pool,
                                     Rng& rng) {
  std::vector<RelevanceRule> rules(config.num_rules);
  for (RelevanceRule& rule : rules) {
    rule.feature_a = feature_pool[rng.Below(feature_pool.size())];
    rule.feature_b = feature_pool[rng.Below(feature_pool.size())];
    rule.quantile_a = rng.Uniform(0.3, 0.8);
    rule.quantile_b = rng.Uniform(0.3, 0.8);
    rule.query_dim = static_cast<uint32_t>(rng.Below(config.latent_dim));
    rule.amplitude = static_cast<float>(rng.Uniform(0.6, 1.8) *
                                        (rng.Next() & 1 ? 1.0 : -1.0));
  }
  return rules;
}

std::vector<FeatureSpec> MakeFeatureSpecs(const SyntheticConfig& config,
                                          Rng& rng) {
  std::vector<FeatureSpec> specs(config.num_features);
  for (uint32_t f = 0; f < config.num_features; ++f) {
    FeatureSpec& spec = specs[f];
    const double roll = rng.Uniform();
    if (roll < 0.06) {
      spec.kind = FeatureKind::kScore;
    } else if (roll < 0.40) {
      spec.kind = FeatureKind::kInteraction;
    } else if (roll < 0.65) {
      spec.kind = FeatureKind::kDirect;
    } else if (roll < 0.85 && f > 4) {
      spec.kind = FeatureKind::kRedundant;
      spec.source = static_cast<uint32_t>(rng.Below(f));
    } else {
      spec.kind = FeatureKind::kNoise;
    }
    spec.latent_a = static_cast<uint32_t>(rng.Below(config.latent_dim));
    spec.latent_b = static_cast<uint32_t>(rng.Below(config.latent_dim));
    const double t = rng.Uniform();
    spec.transform = t < 0.45   ? Transform::kIdentity
                     : t < 0.60 ? Transform::kLog1p
                     : t < 0.75 ? Transform::kSquare
                     : t < 0.90 ? Transform::kSqrt
                                : Transform::kQuantized;
    // Scales spanning five orders of magnitude, as in real LETOR features
    // (some are counts in the millions, some are probabilities).
    spec.scale = static_cast<float>(std::pow(10.0, rng.Uniform(-2.0, 3.0)));
  }
  return specs;
}

float ApplyTransform(Transform transform, float value) {
  switch (transform) {
    case Transform::kIdentity:
      return value;
    case Transform::kLog1p:
      return std::copysign(std::log1p(std::fabs(value)), value);
    case Transform::kSquare:
      return value * std::fabs(value);  // signed square: keeps monotonicity
    case Transform::kSqrt:
      return std::copysign(std::sqrt(std::fabs(value)), value);
    case Transform::kQuantized:
      return std::round(value * 4.0f) * 0.25f;
  }
  return value;
}

}  // namespace

SyntheticConfig SyntheticConfig::MsnLike(double scale) {
  SyntheticConfig config;
  config.num_queries = std::max<uint32_t>(8, static_cast<uint32_t>(1000 * scale));
  config.min_docs_per_query = 80;
  config.max_docs_per_query = 160;
  config.num_features = 136;
  config.seed = 42;
  return config;
}

SyntheticConfig SyntheticConfig::IstellaLike(double scale) {
  SyntheticConfig config;
  config.num_queries = std::max<uint32_t>(8, static_cast<uint32_t>(1000 * scale));
  config.min_docs_per_query = 70;
  config.max_docs_per_query = 140;
  config.num_features = 220;
  config.latent_dim = 10;
  config.seed = 1337;
  return config;
}

Dataset GenerateSynthetic(const SyntheticConfig& config) {
  DNLR_CHECK_GE(config.max_docs_per_query, config.min_docs_per_query);
  DNLR_CHECK_GT(config.num_features, 0u);
  DNLR_CHECK_GT(config.latent_dim, 0u);
  DNLR_CHECK_GT(config.num_rules, 0u);

  // Feature semantics and rule structure come from an independent stream so
  // they do not change when the query count does.
  Rng spec_rng(config.seed ^ 0xFEEDFACEDEADBEEFull);
  std::vector<FeatureSpec> specs = MakeFeatureSpecs(config, spec_rng);
  // Rules act on informative (non-noise, non-redundant) features.
  std::vector<uint32_t> informative;
  for (uint32_t f = 0; f < config.num_features; ++f) {
    if (specs[f].kind == FeatureKind::kScore ||
        specs[f].kind == FeatureKind::kInteraction ||
        specs[f].kind == FeatureKind::kDirect) {
      informative.push_back(f);
    }
  }
  // A draw of only noise and redundant features (likely at a handful of
  // features) leaves the rules nothing to act on: feature 0 becomes a
  // direct one. No random numbers are drawn, so every stream that had an
  // informative feature is unchanged.
  if (informative.empty()) {
    specs[0].kind = FeatureKind::kDirect;
    informative.push_back(0);
  }
  std::vector<RelevanceRule> rules = MakeRules(config, informative, spec_rng);

  Rng rng(config.seed);

  // Phase 1: draw per-query weights and per-document latents; materialize
  // every feature row. Relevance is computed afterwards, from the observed
  // feature values.
  const uint32_t num_features = config.num_features;
  std::vector<std::vector<float>> query_weights(config.num_queries);
  std::vector<uint32_t> docs_per_query(config.num_queries);
  std::vector<float> features;  // row-major over all documents
  uint32_t total_docs = 0;

  std::vector<float> x(config.latent_dim);
  for (uint32_t q = 0; q < config.num_queries; ++q) {
    std::vector<float>& weights = query_weights[q];
    weights.resize(config.latent_dim);
    float weight_sum = 0.0f;
    for (float& w : weights) {
      w = static_cast<float>(std::fabs(rng.Normal()));
      weight_sum += w;
    }
    for (float& w : weights) w /= std::max(weight_sum, 1e-6f);

    const uint32_t docs =
        config.min_docs_per_query +
        static_cast<uint32_t>(rng.Below(
            config.max_docs_per_query - config.min_docs_per_query + 1));
    docs_per_query[q] = docs;
    total_docs += docs;
    for (uint32_t d = 0; d < docs; ++d) {
      for (float& value : x) value = static_cast<float>(rng.Normal());
      const size_t row_offset = features.size();
      features.resize(row_offset + num_features);
      float* row = features.data() + row_offset;
      for (uint32_t f = 0; f < num_features; ++f) {
        const FeatureSpec& spec = specs[f];
        float value = 0.0f;
        switch (spec.kind) {
          case FeatureKind::kScore:
            // Composite BM25-like signal: the query-weighted sum of all
            // latent coordinates.
            for (uint32_t l = 0; l < config.latent_dim; ++l) {
              value += weights[l] * x[l];
            }
            value *= static_cast<float>(config.latent_dim) * 0.35f;
            break;
          case FeatureKind::kInteraction:
            value = x[spec.latent_a] * weights[spec.latent_b] *
                    static_cast<float>(config.latent_dim);
            break;
          case FeatureKind::kDirect:
            value = x[spec.latent_a];
            break;
          case FeatureKind::kRedundant:
            value = row[spec.source];
            break;
          case FeatureKind::kNoise:
            value = static_cast<float>(rng.Normal());
            break;
        }
        if (spec.kind != FeatureKind::kRedundant) {
          value += static_cast<float>(rng.Normal(0.0, config.feature_noise));
          value = ApplyTransform(spec.transform, value) * spec.scale;
        } else {
          // Redundant features copy the already-transformed source value
          // plus small noise, preserving the correlation structure.
          value += static_cast<float>(rng.Normal(
              0.0, config.feature_noise * static_cast<double>(spec.scale)));
        }
        row[f] = value;
      }
    }
  }

  // Phase 2: resolve rule thresholds against the empirical distribution of
  // each rule feature, and standardize the composite "score" features for
  // the smooth relevance component.
  auto feature_quantile = [&](uint32_t f, double p) {
    // Strided sample keeps the sort cheap on large datasets.
    const uint32_t sample_stride = std::max(1u, total_docs / 20000);
    std::vector<float> sample;
    sample.reserve(total_docs / sample_stride + 1);
    for (uint32_t d = 0; d < total_docs; d += sample_stride) {
      sample.push_back(features[static_cast<size_t>(d) * num_features + f]);
    }
    std::sort(sample.begin(), sample.end());
    const size_t idx = std::min(
        sample.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sample.size())));
    return sample[idx];
  };
  for (RelevanceRule& rule : rules) {
    rule.cut_a = feature_quantile(rule.feature_a, rule.quantile_a);
    rule.cut_b = feature_quantile(rule.feature_b, rule.quantile_b);
    // Transition width: a fraction of the inter-quartile range, clamped away
    // from zero for quantized features.
    const float iqr_a = feature_quantile(rule.feature_a, 0.75) -
                        feature_quantile(rule.feature_a, 0.25);
    const float iqr_b = feature_quantile(rule.feature_b, 0.75) -
                        feature_quantile(rule.feature_b, 0.25);
    rule.tau_a = std::max(0.06f * iqr_a, 1e-3f * (std::fabs(rule.cut_a) + 1.0f));
    rule.tau_b = std::max(0.06f * iqr_b, 1e-3f * (std::fabs(rule.cut_b) + 1.0f));
  }
  // Mean / stddev of the score features (smooth component).
  std::vector<uint32_t> score_features;
  for (uint32_t f = 0; f < num_features; ++f) {
    if (specs[f].kind == FeatureKind::kScore) score_features.push_back(f);
  }
  if (score_features.empty()) score_features.push_back(informative.front());
  std::vector<float> score_mean(score_features.size(), 0.0f);
  std::vector<float> score_std(score_features.size(), 1.0f);
  for (size_t i = 0; i < score_features.size(); ++i) {
    double sum = 0.0;
    double sq = 0.0;
    for (uint32_t d = 0; d < total_docs; ++d) {
      const double v =
          features[static_cast<size_t>(d) * num_features + score_features[i]];
      sum += v;
      sq += v * v;
    }
    score_mean[i] = static_cast<float>(sum / total_docs);
    const double var = std::max(1e-12, sq / total_docs -
                                           (sum / total_docs) * (sum / total_docs));
    score_std[i] = static_cast<float>(std::sqrt(var));
  }

  // Phase 3: true relevance per document, from the observed features.
  std::vector<float> scores(total_docs);
  {
    uint32_t doc = 0;
    for (uint32_t q = 0; q < config.num_queries; ++q) {
      const std::vector<float>& weights = query_weights[q];
      for (uint32_t d = 0; d < docs_per_query[q]; ++d, ++doc) {
        const float* row =
            features.data() + static_cast<size_t>(doc) * num_features;
        // Smooth component: average standardized score feature.
        float smooth = 0.0f;
        for (size_t i = 0; i < score_features.size(); ++i) {
          smooth += (row[score_features[i]] - score_mean[i]) / score_std[i];
        }
        smooth /= static_cast<float>(score_features.size());
        float t = 0.2f * smooth;
        // Near-discontinuous component: axis-aligned saturating rules on
        // observed values, with query-dependent strength around 1.
        for (const RelevanceRule& rule : rules) {
          const float response =
              ThresholdResponse(row[rule.feature_a], rule.cut_a, rule.tau_a) *
              ThresholdResponse(row[rule.feature_b], rule.cut_b, rule.tau_b);
          const float query_factor =
              0.5f + 0.5f * weights[rule.query_dim] *
                         static_cast<float>(config.latent_dim);
          t += rule.amplitude * query_factor * 0.35f * response;
        }
        t += static_cast<float>(rng.Normal(0.0, config.score_noise));
        scores[doc] = t;
      }
    }
  }

  // Phase 4: dataset-global label thresholds reproducing the skewed MSLR
  // grade distribution: ~52 % grade 0, 23 % grade 1, 13 % grade 2,
  // 8 % grade 3, 4 % grade 4.
  std::vector<float> sorted_scores = scores;
  std::sort(sorted_scores.begin(), sorted_scores.end());
  auto score_quantile = [&](double p) {
    const size_t idx = std::min(
        sorted_scores.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted_scores.size())));
    return sorted_scores[idx];
  };
  const float t1 = score_quantile(0.52);
  const float t2 = score_quantile(0.75);
  const float t3 = score_quantile(0.88);
  const float t4 = score_quantile(0.96);

  Dataset dataset(num_features);
  uint32_t doc = 0;
  for (uint32_t q = 0; q < config.num_queries; ++q) {
    dataset.BeginQuery(q + 1);
    for (uint32_t d = 0; d < docs_per_query[q]; ++d, ++doc) {
      const float t = scores[doc];
      const float label = t >= t4   ? 4.0f
                          : t >= t3 ? 3.0f
                          : t >= t2 ? 2.0f
                          : t >= t1 ? 1.0f
                                    : 0.0f;
      dataset.AddDocument(
          std::span<const float>(
              features.data() + static_cast<size_t>(doc) * num_features,
              num_features),
          label);
    }
  }
  return dataset;
}

DatasetSplits GenerateSyntheticSplits(const SyntheticConfig& config) {
  return SplitByQuery(GenerateSynthetic(config), 0.6, 0.2,
                      config.seed ^ 0x5711C0DEULL);
}

}  // namespace dnlr::data

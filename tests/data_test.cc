#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>

#include "common/hash.h"
#include "data/dataset.h"
#include "data/letor_io.h"
#include "data/normalize.h"
#include "data/synthetic.h"

namespace dnlr::data {
namespace {

Dataset TinyDataset() {
  Dataset dataset(2);
  dataset.BeginQuery(10);
  dataset.AddDocument(std::vector<float>{1.0f, 2.0f}, 0.0f);
  dataset.AddDocument(std::vector<float>{3.0f, 4.0f}, 2.0f);
  dataset.BeginQuery(11);
  dataset.AddDocument(std::vector<float>{5.0f, 6.0f}, 1.0f);
  return dataset;
}

TEST(DatasetTest, BasicShape) {
  Dataset dataset = TinyDataset();
  EXPECT_EQ(dataset.num_features(), 2u);
  EXPECT_EQ(dataset.num_docs(), 3u);
  EXPECT_EQ(dataset.num_queries(), 2u);
  EXPECT_EQ(dataset.QuerySize(0), 2u);
  EXPECT_EQ(dataset.QuerySize(1), 1u);
  EXPECT_EQ(dataset.QueryBegin(1), 2u);
  EXPECT_EQ(dataset.QueryId(0), 10u);
  EXPECT_FLOAT_EQ(dataset.Label(1), 2.0f);
  EXPECT_FLOAT_EQ(dataset.Row(2)[1], 6.0f);
  EXPECT_FLOAT_EQ(dataset.MaxLabel(), 2.0f);
}

TEST(DatasetTest, FeatureStatistics) {
  Dataset dataset = TinyDataset();
  const auto mins = dataset.FeatureMin();
  const auto maxs = dataset.FeatureMax();
  const auto means = dataset.FeatureMean();
  EXPECT_FLOAT_EQ(mins[0], 1.0f);
  EXPECT_FLOAT_EQ(maxs[0], 5.0f);
  EXPECT_FLOAT_EQ(means[0], 3.0f);
  EXPECT_FLOAT_EQ(means[1], 4.0f);
  const auto stds = dataset.FeatureStddev();
  EXPECT_NEAR(stds[0], std::sqrt(8.0 / 3.0), 1e-5);
}

TEST(DatasetTest, SliceQueries) {
  Dataset dataset = TinyDataset();
  Dataset slice = dataset.SliceQueries(1, 2);
  EXPECT_EQ(slice.num_queries(), 1u);
  EXPECT_EQ(slice.num_docs(), 1u);
  EXPECT_EQ(slice.QueryId(0), 11u);
  EXPECT_FLOAT_EQ(slice.Row(0)[0], 5.0f);
}

TEST(DatasetTest, AddQuerySpanForm) {
  Dataset dataset(2);
  const std::vector<float> feats{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> labels{0.0f, 3.0f};
  dataset.AddQuery(7, feats, labels);
  EXPECT_EQ(dataset.num_docs(), 2u);
  EXPECT_FLOAT_EQ(dataset.Row(1)[0], 3.0f);
}

TEST(SplitTest, FractionsRespectedAndQueriesPreserved) {
  SyntheticConfig config;
  config.num_queries = 100;
  config.min_docs_per_query = 5;
  config.max_docs_per_query = 10;
  config.num_features = 10;
  Dataset full = GenerateSynthetic(config);
  DatasetSplits splits = SplitByQuery(full, 0.6, 0.2, 99);
  EXPECT_EQ(splits.train.num_queries(), 60u);
  EXPECT_EQ(splits.valid.num_queries(), 20u);
  EXPECT_EQ(splits.test.num_queries(), 20u);
  EXPECT_EQ(splits.train.num_docs() + splits.valid.num_docs() +
                splits.test.num_docs(),
            full.num_docs());
  // No query id appears in two splits.
  std::set<uint32_t> seen;
  for (const Dataset* part : {&splits.train, &splits.valid, &splits.test}) {
    for (uint32_t q = 0; q < part->num_queries(); ++q) {
      EXPECT_TRUE(seen.insert(part->QueryId(q)).second);
    }
  }
}

TEST(LetorIoTest, ParseBasic) {
  const std::string text =
      "2 qid:1 1:0.5 2:1.5 # doc a\n"
      "0 qid:1 1:-1 2:0\n"
      "1 qid:2 2:3.25\n";
  auto result = ParseLetor(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& dataset = *result;
  EXPECT_EQ(dataset.num_features(), 2u);
  EXPECT_EQ(dataset.num_queries(), 2u);
  EXPECT_EQ(dataset.num_docs(), 3u);
  EXPECT_FLOAT_EQ(dataset.Label(0), 2.0f);
  EXPECT_FLOAT_EQ(dataset.Row(0)[1], 1.5f);
  // Sparse feature defaults to zero.
  EXPECT_FLOAT_EQ(dataset.Row(2)[0], 0.0f);
  EXPECT_FLOAT_EQ(dataset.Row(2)[1], 3.25f);
}

TEST(LetorIoTest, BlankLinesIgnored) {
  auto result = ParseLetor("\n1 qid:3 1:1\n\n\n0 qid:3 1:2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_docs(), 2u);
  EXPECT_EQ(result->num_queries(), 1u);
}

TEST(LetorIoTest, MalformedLabelRejected) {
  EXPECT_FALSE(ParseLetor("x qid:1 1:1\n").ok());
}

TEST(LetorIoTest, MalformedQidRejected) {
  EXPECT_FALSE(ParseLetor("1 qd:1 1:1\n").ok());
}

TEST(LetorIoTest, MalformedFeatureRejected) {
  EXPECT_FALSE(ParseLetor("1 qid:1 1:\n").ok());
  EXPECT_FALSE(ParseLetor("1 qid:1 0:2\n").ok());  // feature ids are 1-based
}

TEST(LetorIoTest, FeatureIdBeyondDeclaredCountRejected) {
  EXPECT_FALSE(ParseLetor("1 qid:1 5:2\n", 3).ok());
}

TEST(LetorIoTest, RoundTrip) {
  SyntheticConfig config;
  config.num_queries = 10;
  config.min_docs_per_query = 3;
  config.max_docs_per_query = 6;
  config.num_features = 7;
  Dataset original = GenerateSynthetic(config);
  auto reparsed = ParseLetor(ToLetorString(original), 7);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->num_docs(), original.num_docs());
  ASSERT_EQ(reparsed->num_queries(), original.num_queries());
  for (uint32_t d = 0; d < original.num_docs(); ++d) {
    EXPECT_FLOAT_EQ(reparsed->Label(d), original.Label(d));
    for (uint32_t f = 0; f < 7; ++f) {
      // Text round trip goes through decimal printing; allow tiny error.
      EXPECT_NEAR(reparsed->Row(d)[f], original.Row(d)[f],
                  1e-4f * (1.0f + std::fabs(original.Row(d)[f])));
    }
  }
}

TEST(LetorIoTest, FileRoundTrip) {
  Dataset dataset = TinyDataset();
  const std::string path = ::testing::TempDir() + "/letor_roundtrip.txt";
  ASSERT_TRUE(WriteLetorFile(dataset, path).ok());
  auto loaded = ReadLetorFile(path, 2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_docs(), 3u);
}

TEST(LetorIoTest, MissingFileIsIoError) {
  auto result = ReadLetorFile("/nonexistent/path/file.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(LetorIoTest, DirectoryIsIoError) {
  auto result = ReadLetorFile(::testing::TempDir());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(LetorIoTest, TruncatedFileIsParseError) {
  // A file cut off mid-record (as a partial download or disk-full copy
  // leaves behind) must surface a structured error, not crash or silently
  // load a short dataset.
  const std::string path = ::testing::TempDir() + "/letor_truncated.txt";
  {
    std::ofstream file(path);
    file << "2 qid:1 1:0.5 2:0.25\n1 qi";
  }
  auto result = ReadLetorFile(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(NormalizeTest, TransformsToZeroMeanUnitVariance) {
  SyntheticConfig config;
  config.num_queries = 50;
  config.num_features = 12;
  config.min_docs_per_query = 10;
  config.max_docs_per_query = 20;
  Dataset dataset = GenerateSynthetic(config);
  ZNormalizer normalizer;
  normalizer.Fit(dataset);
  Dataset transformed = normalizer.Transform(dataset);
  const auto means = transformed.FeatureMean();
  const auto stds = transformed.FeatureStddev();
  for (uint32_t f = 0; f < 12; ++f) {
    EXPECT_NEAR(means[f], 0.0f, 1e-2f) << "feature " << f;
    EXPECT_NEAR(stds[f], 1.0f, 1e-2f) << "feature " << f;
  }
}

TEST(NormalizeTest, ConstantFeatureDoesNotExplode) {
  Dataset dataset(1);
  dataset.BeginQuery(1);
  dataset.AddDocument(std::vector<float>{5.0f}, 0.0f);
  dataset.AddDocument(std::vector<float>{5.0f}, 1.0f);
  ZNormalizer normalizer;
  normalizer.Fit(dataset);
  float row[1] = {5.0f};
  normalizer.Apply(row);
  EXPECT_FLOAT_EQ(row[0], 0.0f);
}

TEST(NormalizeTest, ExplicitStatisticsConstructor) {
  ZNormalizer normalizer({2.0f}, {4.0f});
  float row[1] = {10.0f};
  normalizer.Apply(row);
  EXPECT_FLOAT_EQ(row[0], 2.0f);
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.num_queries = 20;
  config.num_features = 15;
  Dataset a = GenerateSynthetic(config);
  Dataset b = GenerateSynthetic(config);
  ASSERT_EQ(a.num_docs(), b.num_docs());
  for (uint32_t d = 0; d < a.num_docs(); ++d) {
    EXPECT_FLOAT_EQ(a.Label(d), b.Label(d));
    for (uint32_t f = 0; f < 15; ++f) {
      EXPECT_FLOAT_EQ(a.Row(d)[f], b.Row(d)[f]);
    }
  }
}

TEST(SyntheticTest, LabelDistributionSkewedTowardIrrelevant) {
  Dataset dataset = GenerateSynthetic(SyntheticConfig::MsnLike(0.2));
  std::vector<int> counts(5, 0);
  for (uint32_t d = 0; d < dataset.num_docs(); ++d) {
    counts[static_cast<int>(dataset.Label(d))]++;
  }
  // Grade 0 dominates; grade 4 is rare; all grades occur.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[4]);
  for (int g = 0; g < 5; ++g) EXPECT_GT(counts[g], 0) << "grade " << g;
}

TEST(SyntheticTest, DocCountsWithinBounds) {
  SyntheticConfig config;
  config.num_queries = 30;
  config.min_docs_per_query = 12;
  config.max_docs_per_query = 17;
  Dataset dataset = GenerateSynthetic(config);
  for (uint32_t q = 0; q < dataset.num_queries(); ++q) {
    EXPECT_GE(dataset.QuerySize(q), 12u);
    EXPECT_LE(dataset.QuerySize(q), 17u);
  }
}

TEST(SyntheticTest, MsnAndIstellaShapes) {
  EXPECT_EQ(SyntheticConfig::MsnLike().num_features, 136u);
  EXPECT_EQ(SyntheticConfig::IstellaLike().num_features, 220u);
}

/// Hash64 of a split's feature bytes, then of its label bytes seeded with
/// that.
uint64_t SplitDigest(const Dataset& split) {
  const std::vector<float>& features = split.features();
  const std::vector<float>& labels = split.labels();
  const uint64_t feature_digest = common::Hash64(
      features.data(), features.size() * sizeof(float), /*seed=*/0);
  return common::Hash64(labels.data(), labels.size() * sizeof(float),
                        feature_digest);
}

// Golden digests of the generator's output. Every benchmark, cached model
// and EXPERIMENTS.md number is a function of these streams, so a change to
// Rng or GenerateSynthetic that moves them must update these digests (and
// the model cache) in the same change. synthetic.cc is built with
// -ffp-contract=off, so the digests hold for every preset.
TEST(SyntheticTest, SplitsMatchTheirGoldenDigests) {
  const struct {
    const char* name;
    SyntheticConfig config;
    uint64_t train, valid, test;
  } kCases[] = {
      {"msn", SyntheticConfig::MsnLike(0.02), 0xf6d3502521d5a690ull,
       0x423a8bc551dc760eull, 0x87a6dbeb85565a99ull},
      {"istella", SyntheticConfig::IstellaLike(0.02), 0xc519ab1e3e1011dbull,
       0x15384c44f59c1f1aull, 0xecb2960b700b83f0ull},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    const DatasetSplits splits = GenerateSyntheticSplits(c.config);
    EXPECT_EQ(SplitDigest(splits.train), c.train);
    EXPECT_EQ(SplitDigest(splits.valid), c.valid);
    EXPECT_EQ(SplitDigest(splits.test), c.test);
  }
}

TEST(SyntheticTest, FeaturesCarryRelevanceSignal) {
  // A sanity check that the generated data is learnable at all: the best
  // single feature, used directly as a ranking score, must beat random by a
  // clear margin in label-score correlation.
  SyntheticConfig config;
  config.num_queries = 40;
  config.num_features = 30;
  Dataset dataset = GenerateSynthetic(config);
  double best_abs_corr = 0.0;
  const uint32_t n = dataset.num_docs();
  for (uint32_t f = 0; f < config.num_features; ++f) {
    double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
    for (uint32_t d = 0; d < n; ++d) {
      const double x = dataset.Row(d)[f];
      const double y = dataset.Label(d);
      sx += x; sy += y; sxx += x * x; syy += y * y; sxy += x * y;
    }
    const double cov = sxy / n - sx / n * sy / n;
    const double vx = sxx / n - sx / n * sx / n;
    const double vy = syy / n - sy / n * sy / n;
    if (vx > 1e-12 && vy > 1e-12) {
      best_abs_corr = std::max(best_abs_corr,
                               std::fabs(cov / std::sqrt(vx * vy)));
    }
  }
  EXPECT_GT(best_abs_corr, 0.3);
}

}  // namespace
}  // namespace dnlr::data

// Tests for the traffic-replay workload layer: the ZipfSampler's boundary
// contract (the n == 0 underflow and the u ∈ [0, 1) domain promoted out of
// the CLI) and its distribution via a chi-square goodness-of-fit against the
// analytic pmf; the WorkloadGenerator's determinism, arrival-stream
// invariants, size mix, diurnal curve and burst episodes; SleepUntilDue
// pacing under a FakeClock; and the streaming LETOR ingester's equivalence
// with the batch reader, Rewind support and error paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/letor_io.h"
#include "data/letor_stream.h"
#include "data/synthetic.h"
#include "replay/workload.h"
#include "replay/zipf.h"

namespace dnlr {
namespace {

using replay::Arrival;
using replay::SizeClass;
using replay::WorkloadConfig;
using replay::WorkloadGenerator;
using replay::ZipfSampler;

// ---------------------------------------------------------------- ZipfSampler

TEST(ZipfSamplerTest, SingleRankAlwaysReturnsZero) {
  // The n == 0 regression's nearest valid neighbour: a one-entry table must
  // map the whole uniform domain to rank 0.
  const ZipfSampler zipf(1, 1.1);
  EXPECT_EQ(zipf.size(), 1u);
  EXPECT_EQ(zipf.SampleFromUniform(0.0), 0u);
  EXPECT_EQ(zipf.SampleFromUniform(0.5), 0u);
  EXPECT_EQ(zipf.SampleFromUniform(std::nextafter(1.0, 0.0)), 0u);
}

TEST(ZipfSamplerTest, UniformBoundaryContract) {
  const ZipfSampler zipf(16, 1.1);
  // u == 0 is the most popular rank.
  EXPECT_EQ(zipf.SampleFromUniform(0.0), 0u);
  // The largest double below 1 must still land on a valid rank (the last
  // cdf entry is exactly 1.0, so lower_bound cannot fall off the end).
  EXPECT_EQ(zipf.SampleFromUniform(std::nextafter(1.0, 0.0)), 15u);
  // Every draw from a real Rng stays in range.
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(zipf.Sample(rng), 16u);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndDecreases) {
  const ZipfSampler zipf(64, 1.3);
  double total = 0.0;
  for (uint32_t i = 0; i < zipf.size(); ++i) {
    total += zipf.Pmf(i);
    if (i > 0) {
      EXPECT_LT(zipf.Pmf(i), zipf.Pmf(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSamplerTest, ChiSquareGoodnessOfFit) {
  // 200k draws over 32 ranks against the analytic pmf. The statistic is a
  // fixed number under the fixed seed; the bound is the 99.9th percentile
  // of chi-square with 31 degrees of freedom (~61.1) plus slack, so the
  // test fails only if the sampler's distribution is actually wrong.
  constexpr uint32_t kRanks = 32;
  constexpr int kDraws = 200'000;
  const ZipfSampler zipf(kRanks, 1.1);
  Rng rng(7);
  std::vector<uint64_t> observed(kRanks, 0);
  for (int i = 0; i < kDraws; ++i) ++observed[zipf.Sample(rng)];

  double chi_square = 0.0;
  for (uint32_t i = 0; i < kRanks; ++i) {
    const double expected = static_cast<double>(kDraws) * zipf.Pmf(i);
    ASSERT_GE(expected, 5.0);  // chi-square validity condition
    const double delta = static_cast<double>(observed[i]) - expected;
    chi_square += delta * delta / expected;
  }
  EXPECT_LT(chi_square, 70.0) << "chi-square = " << chi_square;
}

// ---------------------------------------------------------- WorkloadGenerator

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.num_queries = 40;
  config.base_qps = 1000.0;
  config.seed = 11;
  return config;
}

TEST(WorkloadGeneratorTest, DeterministicForSameConfig) {
  WorkloadGenerator a(SmallConfig());
  WorkloadGenerator b(SmallConfig());
  for (int i = 0; i < 2000; ++i) {
    const Arrival x = a.Next();
    const Arrival y = b.Next();
    EXPECT_EQ(x.query, y.query);
    EXPECT_EQ(x.candidate_docs, y.candidate_docs);
    EXPECT_EQ(x.due_micros, y.due_micros);
    EXPECT_EQ(x.in_burst, y.in_burst);
  }
}

TEST(WorkloadGeneratorTest, SeedChangesTheStream) {
  WorkloadConfig other = SmallConfig();
  other.seed = 12;
  WorkloadGenerator a(SmallConfig());
  WorkloadGenerator b(other);
  bool any_difference = false;
  for (int i = 0; i < 2000 && !any_difference; ++i) {
    const Arrival x = a.Next();
    const Arrival y = b.Next();
    any_difference = x.query != y.query || x.due_micros != y.due_micros;
  }
  EXPECT_TRUE(any_difference);
}

TEST(WorkloadGeneratorTest, ArrivalStreamInvariants) {
  WorkloadGenerator gen(SmallConfig());
  const std::set<uint32_t> default_mix_sizes = {10, 128, 1024};
  uint64_t previous_due = 0;
  bool first = true;
  for (int i = 0; i < 5000; ++i) {
    const Arrival arrival = gen.Next();
    EXPECT_LT(arrival.query, 40u);
    EXPECT_TRUE(default_mix_sizes.count(arrival.candidate_docs) > 0)
        << arrival.candidate_docs;
    if (!first) {
      EXPECT_GT(arrival.due_micros, previous_due);
    }
    previous_due = arrival.due_micros;
    first = false;
  }
}

TEST(WorkloadGeneratorTest, MixWeightsAreRoughlyRespected) {
  WorkloadConfig config = SmallConfig();
  config.mix = {{8, 0.25}, {64, 0.75}};
  WorkloadGenerator gen(config);
  int small = 0;
  constexpr int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.Next().candidate_docs == 8) ++small;
  }
  const double small_share = static_cast<double>(small) / kDraws;
  EXPECT_NEAR(small_share, 0.25, 0.02);
}

TEST(WorkloadGeneratorTest, DiurnalMultiplier) {
  WorkloadConfig config = SmallConfig();
  config.diurnal_amplitude = 0.5;
  config.diurnal_period_micros = 1'000'000;
  config.burst_probability = 0.0;
  const WorkloadGenerator gen(config);
  EXPECT_NEAR(gen.RateMultiplierAt(0), 1.0, 1e-9);
  EXPECT_NEAR(gen.RateMultiplierAt(250'000), 1.5, 1e-9);   // peak
  EXPECT_NEAR(gen.RateMultiplierAt(750'000), 0.5, 1e-9);   // trough
}

TEST(WorkloadGeneratorTest, BurstEpisodes) {
  WorkloadConfig config = SmallConfig();
  config.burst_probability = 0.01;
  config.burst_duration_micros = 50'000;
  WorkloadGenerator with_bursts(config);
  uint64_t in_burst = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (with_bursts.Next().in_burst) ++in_burst;
  }
  EXPECT_GE(with_bursts.bursts_started(), 1u);
  EXPECT_GE(in_burst, 1u);

  config.burst_probability = 0.0;
  WorkloadGenerator without(config);
  for (int i = 0; i < 20'000; ++i) EXPECT_FALSE(without.Next().in_burst);
  EXPECT_EQ(without.bursts_started(), 0u);
}

TEST(WorkloadGeneratorTest, SleepUntilDuePacesOnTheClock) {
  FakeClock clock(500);
  Arrival arrival;
  arrival.due_micros = 1000;
  // Not yet due: the fake clock "sleeps" forward to exactly the due time.
  replay::SleepUntilDue(clock, 500, arrival);
  EXPECT_EQ(clock.NowMicros(), 1500u);
  // Already due: no time passes.
  replay::SleepUntilDue(clock, 500, arrival);
  EXPECT_EQ(clock.NowMicros(), 1500u);
}

// ----------------------------------------------------------- LetorQueryStream

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(LetorQueryStreamTest, MatchesBatchReader) {
  data::SyntheticConfig config = data::SyntheticConfig::MsnLike(1.0);
  config.num_queries = 12;
  config.num_features = 16;
  config.seed = 9;
  const data::Dataset dataset = data::GenerateSynthetic(config);
  const std::string path = TempPath("replay_test_stream.letor");
  ASSERT_TRUE(data::WriteLetorFile(dataset, path).ok());

  auto batch_read = data::ReadLetorFile(path, config.num_features);
  ASSERT_TRUE(batch_read.ok()) << batch_read.status().ToString();
  const data::Dataset& batch = *batch_read;

  auto opened = data::LetorQueryStream::Open(path, config.num_features);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  data::LetorQueryStream stream = std::move(opened).value();

  data::QueryBatch query;
  for (uint32_t q = 0; q < batch.num_queries(); ++q) {
    auto more = stream.Next(&query);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(more.value()) << "stream ended early at query " << q;
    EXPECT_EQ(query.qid, batch.QueryId(q));
    ASSERT_EQ(query.num_docs, batch.QuerySize(q));
    for (uint32_t d = 0; d < query.num_docs; ++d) {
      const uint32_t doc = batch.QueryBegin(q) + d;
      EXPECT_EQ(query.labels[d], batch.Label(doc));
      const float* row = batch.Row(doc);
      for (uint32_t f = 0; f < config.num_features; ++f) {
        EXPECT_EQ(query.features[static_cast<size_t>(d) *
                                     config.num_features +
                                 f],
                  row[f])
            << "query " << q << " doc " << d << " feature " << f;
      }
    }
  }
  auto at_end = stream.Next(&query);
  ASSERT_TRUE(at_end.ok());
  EXPECT_FALSE(at_end.value());
  EXPECT_EQ(stream.queries_read(), batch.num_queries());

  // Rewind replays the file from the top.
  ASSERT_TRUE(stream.Rewind().ok());
  auto again = stream.Next(&query);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value());
  EXPECT_EQ(query.qid, batch.QueryId(0));
  EXPECT_EQ(query.num_docs, batch.QuerySize(0));

  std::filesystem::remove(path);
}

TEST(LetorQueryStreamTest, OpenRejectsBadInputs) {
  EXPECT_FALSE(data::LetorQueryStream::Open("/nonexistent/file.letor", 8)
                   .ok());
  const std::string path = TempPath("replay_test_zero_features.letor");
  { std::ofstream(path) << "1 qid:1 1:0.5\n"; }
  const auto zero = data::LetorQueryStream::Open(path, 0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(LetorQueryStreamTest, FeatureIdBeyondWidthIsAParseError) {
  const std::string path = TempPath("replay_test_bad_fid.letor");
  { std::ofstream(path) << "1 qid:1 1:0.5 9:0.25\n"; }
  auto opened = data::LetorQueryStream::Open(path, 4);
  ASSERT_TRUE(opened.ok());
  data::LetorQueryStream stream = std::move(opened).value();
  data::QueryBatch query;
  EXPECT_FALSE(stream.Next(&query).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dnlr

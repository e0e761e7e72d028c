// Tests for the shared serve traffic driver (src/replay/driver.h): a
// red-path table with one row per gate of every serve mode (each gate holds
// at its bound and fails just past it), the compound-gate conditions, the
// soak rule that a rung under kMinGatedRungSamples is reported but not
// gated, the gate evaluator and the JSON-validating report writer, the
// response summary, the request loop over both arrival sources, and the
// bundle fixture: its golden swap gate (which an unloadable poison never
// reaches), its hybrid-engine top rung and its fault-injected generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"
#include "replay/driver.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/ladder.h"
#include "serve/scorer.h"

namespace dnlr::replay {
namespace {

/// The boolean the verdict reports under `key`; fails the test when absent.
bool GateValue(const GateVerdict& verdict, const std::string& key) {
  if (verdict.json.find("\"" + key + "\": true") != std::string::npos) {
    return true;
  }
  EXPECT_NE(verdict.json.find("\"" + key + "\": false"), std::string::npos)
      << key << " missing from " << verdict.json;
  return false;
}

double Above(double bound) {
  return std::nextafter(bound, std::numeric_limits<double>::infinity());
}
double Below(double bound) {
  return std::nextafter(bound, -std::numeric_limits<double>::infinity());
}

/// One red-path row: `at_bound` puts the gate's measurement exactly on its
/// bound (the gate must hold), `past_bound` one step past it (it must
/// fail). Both start from a baseline where every gate holds.
template <typename Outcome>
struct GateRow {
  const char* gate;
  std::function<void(Outcome&)> at_bound;
  std::function<void(Outcome&)> past_bound;
};

template <typename Outcome>
void ExpectRedPath(
    const Outcome& baseline,
    const std::function<std::vector<Gate>(const Outcome&)>& build,
    const std::vector<GateRow<Outcome>>& rows, size_t expected_gates) {
  const GateVerdict all_pass = EvaluateGates(build(baseline));
  ASSERT_TRUE(all_pass.pass) << all_pass.json;
  EXPECT_EQ(obs::CheckJsonSyntax(all_pass.json), "");
  EXPECT_EQ(rows.size(), expected_gates);
  for (const GateRow<Outcome>& row : rows) {
    SCOPED_TRACE(row.gate);
    Outcome at = baseline;
    row.at_bound(at);
    const GateVerdict held = EvaluateGates(build(at));
    EXPECT_TRUE(GateValue(held, row.gate));
    EXPECT_TRUE(held.pass) << held.json;

    Outcome past = baseline;
    row.past_bound(past);
    const GateVerdict failed = EvaluateGates(build(past));
    EXPECT_FALSE(GateValue(failed, row.gate));
    EXPECT_FALSE(failed.pass) << failed.json;
  }
}

// ------------------------------------------------------------ reload gates

/// ReloadGates' inputs: the engine's swap counters plus the mode's counts.
struct ReloadOutcome {
  serve::ServeCountersSnapshot counters;
  uint64_t reload_failures = 0;
  uint64_t failed_requests = 0;
};

TEST(ReloadGatesTest, EveryGateHoldsAtItsBoundAndFailsJustPast) {
  ReloadOutcome baseline;
  baseline.counters.swaps_completed = 1;
  ExpectRedPath<ReloadOutcome>(
      baseline,
      [](const ReloadOutcome& o) {
        return ReloadGates(o.counters, o.reload_failures, o.failed_requests);
      },
      {{"swaps_completed", [](auto& o) { o.counters.swaps_completed = 1; },
        [](auto& o) { o.counters.swaps_completed = 0; }},
       {"zero_rejected_swaps", [](auto& o) { o.counters.swaps_rejected = 0; },
        [](auto& o) { o.counters.swaps_rejected = 1; }},
       {"zero_reload_failures", [](auto& o) { o.reload_failures = 0; },
        [](auto& o) { o.reload_failures = 1; }},
       {"zero_failed_requests", [](auto& o) { o.failed_requests = 0; },
        [](auto& o) { o.failed_requests = 1; }}},
      4);
}

// ----------------------------------------------------------- sharded gates

ShardedOutcome PassingShardedOutcome() {
  ShardedOutcome o;
  o.abusive_quota_rejected = 1;
  o.abusive_admitted = 100;
  o.admit_budget = 100.0;
  o.max_error_rate = 0.01;
  o.quarantines = 1;
  o.readmissions = 1;
  // The abusive tenant is judged by the quota rows only: its own p99 and
  // error rate may be anything.
  o.tenants = {{true, 1e9, 1.0, 0.9},
               {false, 5000.0, 5000.0, 0.01},
               {false, 10.0, 5000.0, 0.0}};
  return o;
}

TEST(ShardedGatesTest, EveryGateHoldsAtItsBoundAndFailsJustPast) {
  ExpectRedPath<ShardedOutcome>(
      PassingShardedOutcome(), ShardedGates,
      {{"abusive_quota_rejected",
        [](auto& o) { o.abusive_quota_rejected = 1; },
        [](auto& o) { o.abusive_quota_rejected = 0; }},
       {"abusive_admission_bounded", [](auto& o) { o.abusive_admitted = 100; },
        [](auto& o) { o.abusive_admitted = 101; }},
       {"tenant_p99_within_budget", [](auto& o) { o.tenants[1].p99_us = 5000; },
        [](auto& o) { o.tenants[1].p99_us = Above(5000.0); }},
       {"tenant_errors_within_budget",
        [](auto& o) { o.tenants[1].error_rate = 0.01; },
        [](auto& o) { o.tenants[1].error_rate = Above(0.01); }},
       {"shard_quarantined", [](auto& o) { o.quarantines = 1; },
        [](auto& o) { o.quarantines = 0; }},
       {"shard_readmitted", [](auto& o) { o.readmissions = 1; },
        [](auto& o) { o.readmissions = 0; }},
       {"zero_failed_swaps", [](auto& o) { o.failed_swaps = 0; },
        [](auto& o) { o.failed_swaps = 1; }}},
      7);
}

TEST(ShardedGatesTest, JudgesEveryWellBehavedTenant) {
  ShardedOutcome o = PassingShardedOutcome();
  // The last well-behaved tenant fails alone: every tenant is a row.
  o.tenants[2].p99_us = Above(o.tenants[2].p99_budget_us);
  EXPECT_FALSE(GateValue(EvaluateGates(ShardedGates(o)),
                         "tenant_p99_within_budget"));
}

// -------------------------------------------------------------- soak gates

SoakOutcome PassingSoakOutcome() {
  SoakOutcome o;
  o.hit_rate = o.min_hit_rate;
  o.shed_rate = o.max_shed_rate;
  o.rungs.resize(2);
  o.rungs[0].count = kMinGatedRungSamples;
  o.rungs[0].p99_us = o.max_p99_us;
  o.swaps_completed = 2;
  o.poison_attempts = 1;
  o.poison_rejected = 1;
  o.stale_rejects = 1;
  o.parity_queries = 1;
  o.letor_queries = 1;
  return o;
}

TEST(SoakGatesTest, EveryGateHoldsAtItsBoundAndFailsJustPast) {
  ExpectRedPath<SoakOutcome>(
      PassingSoakOutcome(), SoakGates,
      {{"cache_hit_rate", [](auto& o) { o.hit_rate = 0.5; },
        [](auto& o) { o.hit_rate = Below(0.5); }},
       {"shed_rate", [](auto& o) { o.shed_rate = 0.05; },
        [](auto& o) { o.shed_rate = Above(0.05); }},
       {"zero_failures", [](auto& o) { o.failed = 0; },
        [](auto& o) { o.failed = 1; }},
       {"rung_p99", [](auto& o) { o.rungs[0].p99_us = 20'000.0; },
        [](auto& o) { o.rungs[0].p99_us = Above(20'000.0); }},
       {"reloads_lossless", [](auto& o) { o.swaps_completed = 2; },
        [](auto& o) { o.swaps_completed = 1; }},
       {"poison_rejected", [](auto& o) { o.poison_attempts = 1; },
        [](auto& o) { o.poison_attempts = o.poison_rejected = 0; }},
       {"fault_swaps", [](auto& o) { o.fault_swap_failures = 0; },
        [](auto& o) { o.fault_swap_failures = 1; }},
       {"stale_rejected", [](auto& o) { o.stale_rejects = 1; },
        [](auto& o) { o.stale_rejects = 0; }},
       {"cache_parity", [](auto& o) { o.parity_queries = 1; },
        [](auto& o) { o.parity_queries = 0; }},
       {"letor_stream", [](auto& o) { o.letor_queries = 1; },
        [](auto& o) { o.letor_queries = 0; }}},
      10);
}

TEST(SoakGatesTest, EveryConditionOfACompoundGateCanFailIt) {
  const std::vector<std::pair<const char*, std::function<void(SoakOutcome&)>>>
      conditions = {
          {"reloads_lossless", [](auto& o) { o.good_reload_failures = 1; }},
          {"poison_rejected", [](auto& o) { o.poison_attempts = 2; }},
          {"cache_parity", [](auto& o) { o.parity_mismatches = 1; }},
          {"cache_parity", [](auto& o) { o.parity_missed_hits = 1; }},
          {"letor_stream", [](auto& o) { o.letor_failures = 1; }}};
  for (const auto& [gate, breaks] : conditions) {
    SCOPED_TRACE(gate);
    SoakOutcome o = PassingSoakOutcome();
    breaks(o);
    const GateVerdict verdict = EvaluateGates(SoakGates(o));
    EXPECT_FALSE(GateValue(verdict, gate));
    EXPECT_FALSE(verdict.pass);
  }
}

TEST(SoakGatesTest, RungBelowTheSampleFloorIsReportedButNotGated) {
  SoakOutcome o = PassingSoakOutcome();
  o.rungs[1].count = kMinGatedRungSamples - 1;
  o.rungs[1].p99_us = 1e9;
  EXPECT_TRUE(EvaluateGates(SoakGates(o)).pass);
  o.rungs[1].count = kMinGatedRungSamples;
  EXPECT_FALSE(GateValue(EvaluateGates(SoakGates(o)), "rung_p99"));
}

// ----------------------------------------------------- evaluator and writer

TEST(EvaluateGatesTest, RowsSharingANameAndIntoOneKeyInFirstAppearanceOrder) {
  const GateVerdict verdict = EvaluateGates(
      {{"b", 1.0, GateOp::kAtLeast, 1.0},
       {"a", 2.0, GateOp::kAtMost, 1.0},
       {"b", 0.0, GateOp::kAtMost, 0.0}});
  EXPECT_EQ(verdict.json, "{\"b\": true, \"a\": false, \"pass\": false}");
  EXPECT_FALSE(verdict.pass);
  ASSERT_EQ(verdict.failed.size(), 1u);
  EXPECT_EQ(verdict.failed[0].name, "a");
  EXPECT_EQ(obs::CheckJsonSyntax(verdict.json), "");

  const GateVerdict none = EvaluateGates({});
  EXPECT_TRUE(none.pass);
  EXPECT_EQ(none.json, "{\"pass\": true}");
}

class ReportWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("replay_driver_test_" +
            std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ReportWriterTest, RejectsAReportThatFailsCheckJsonSyntax) {
  const std::string path = (dir_ / "sub" / "report.json").string();
  const GateVerdict passing = EvaluateGates({});
  const std::string truncated = "{\"gates\": " + passing.json;
  ASSERT_NE(obs::CheckJsonSyntax(truncated), "");
  EXPECT_FALSE(WriteReport(path, truncated));
  EXPECT_EQ(FinishGatedReport(path, truncated, passing, "test"), 1);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ReportWriterTest, ExitCodeFollowsTheVerdict) {
  const std::string path = (dir_ / "sub" / "report.json").string();
  const GateVerdict held = EvaluateGates({{"g", 0, GateOp::kAtMost, 0}});
  const GateVerdict broke = EvaluateGates({{"g", 1.5, GateOp::kAtMost, 0}});
  EXPECT_EQ(FinishGatedReport(path, "{\"gates\": " + held.json + "}", held,
                              "test"),
            0);
  EXPECT_TRUE(std::filesystem::exists(path));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(FinishGatedReport(path, "{\"gates\": " + broke.json + "}", broke,
                              "test"),
            1);
  // The failing row is named on stderr with its value and bound.
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "FAIL [test] g: 1.5, bound <= 0"),
            std::string::npos);
}

// --------------------------------------------------------- response summary

serve::ServeResponse Response(bool ok, int rung, bool cache_hit,
                              uint64_t micros, uint64_t version) {
  serve::ServeResponse r;
  if (!ok) r.status = Status::Internal("boom");
  r.rung = rung;
  r.cache_hit = cache_hit;
  r.total_micros = micros;
  r.model_version = version;
  return r;
}

TEST(SummarizeResponsesTest, CountsSpansAndExactPercentiles) {
  std::vector<serve::ServeResponse> responses;
  for (uint64_t i = 1; i <= 100; ++i) {
    responses.push_back(Response(true, 0, false, i, 2 + i % 3));
  }
  responses.push_back(Response(true, 1, true, 7, 9));   // cache hit
  responses.push_back(Response(false, -1, false, 5, 1)); // failed
  const ResponseSummary s = SummarizeResponses(responses, 2, 50);
  EXPECT_EQ(s.submitted, 102u);
  EXPECT_EQ(s.ok, 101u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.within_deadline, 51u);  // 1..50 plus the 7 us cache hit
  EXPECT_EQ(s.min_version, 2u);       // the failed response's 1 is ignored
  EXPECT_EQ(s.max_version, 9u);
  EXPECT_EQ(s.overall.count, 101u);
  ASSERT_EQ(s.rungs.size(), 2u);
  EXPECT_EQ(s.rungs[0].count, 100u);
  EXPECT_EQ(s.rungs[0].p50_us, 50.0);
  EXPECT_EQ(s.rungs[0].p99_us, 99.0);
  EXPECT_EQ(s.rungs[1].count, 0u);  // cache hits never count as rung work

  const ResponseSummary empty = SummarizeResponses({}, 1, 50);
  EXPECT_EQ(empty.min_version, 0u);
  EXPECT_EQ(empty.max_version, 0u);
}

// -------------------------------------------------------------- request loop

class SumScorer : public forest::DocumentScorer {
 public:
  std::string_view name() const override { return "sum"; }
  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override {
    for (uint32_t d = 0; d < count; ++d) {
      out[d] = docs[static_cast<size_t>(d) * stride];
    }
  }
};

TEST(DriveTrafficTest, RoundRobinSubmitsEveryRequestInOrder) {
  const data::Dataset dataset = SyntheticCorpus(3, 8, 5);
  SumScorer scorer;
  serve::InfallibleScorerAdapter rung(&scorer);
  serve::DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("sum", &rung, 0.01).ok());
  ServeConfig config;
  config.workers = 1;
  config.deadline_us = 1'000'000;
  serve::ServingEngine engine(&ladder, config.Engine());
  RoundRobinSource source(dataset, 7);
  std::vector<uint64_t> hook_calls;
  const std::vector<serve::ServeResponse> responses = DriveTraffic(
      engine, source, config,
      [&](uint64_t submitted) { hook_calls.push_back(submitted); });
  engine.Stop();
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(hook_calls, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7}));
  for (size_t r = 0; r < responses.size(); ++r) {
    ASSERT_TRUE(responses[r].status.ok());
    EXPECT_EQ(responses[r].scores.size(), dataset.QuerySize(r % 3));
  }
}

TEST(ReplaySourceTest, StopsAtTheDurationAndRepeatsAreByteIdentical) {
  const data::Dataset dataset = SyntheticCorpus(2, 4, 9);
  WorkloadConfig wc;
  wc.num_queries = dataset.num_queries();
  wc.base_qps = 1000.0;
  wc.mix = {{3, 1.0}};
  FakeClock clock(1'000);
  ReplaySource source(dataset, wc, clock, 50'000);
  serve::ServeRequest request;
  std::vector<const float*> seen;
  while (source.Next(&request)) {
    EXPECT_EQ(request.count, 3u);
    EXPECT_EQ(request.stride, 4u);
    seen.push_back(request.docs);
  }
  EXPECT_GE(clock.NowMicros(), 51'000u);
  EXPECT_GT(seen.size(), 10u);
  // Two queries, one size class: every arrival reuses one of two buffers.
  std::sort(seen.begin(), seen.end());
  EXPECT_LE(std::unique(seen.begin(), seen.end()) - seen.begin(), 2);
}

// ----------------------------------------------------------- bundle fixture

TEST(BundleFixtureTest, GoldenGateAcceptsTheBundleAndRejectsThePoison) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "replay_driver_test_fixture";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.queries = 4;
  config.features = 8;
  FixtureConfig fc;
  fc.trees = 2;
  fc.bundle_path = (dir / "model.bundle").string();
  fc.binary_twin = true;
  fc.poisoned_twin = true;
  auto fixture = BundleFixture::Create(config, fc);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  EXPECT_EQ((*fixture)->reload_path(), fc.bundle_path + ".bin");

  serve::ServingEngine engine((*fixture)->initial_ladder(), config.Engine());
  EXPECT_TRUE((*fixture)->Reload(engine, (*fixture)->reload_path()).ok());
  EXPECT_FALSE((*fixture)->Reload(engine, (*fixture)->poison_path()).ok());
  EXPECT_TRUE((*fixture)->PoisonRejected(engine));
  EXPECT_FALSE((*fixture)->Reload(engine, (dir / "missing").string()).ok());
  EXPECT_EQ(engine.model_version(), 2u);
  engine.Stop();
  std::filesystem::remove_all(dir);
}

TEST(BundleFixtureTest, AnUnloadablePoisonIsNotRejectedAndFailsTheSoakGate) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "replay_driver_test_poison";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.queries = 4;
  config.features = 8;
  FixtureConfig fc;
  fc.trees = 2;
  fc.bundle_path = (dir / "model.bundle").string();
  fc.poisoned_twin = true;
  auto fixture = BundleFixture::Create(config, fc);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  // A truncated twin fails to load, so the golden gate never sees it.
  std::filesystem::resize_file((*fixture)->poison_path(), 16);

  serve::ServingEngine engine((*fixture)->initial_ladder(), config.Engine());
  SoakOutcome o = PassingSoakOutcome();
  o.poison_attempts = 1;
  o.poison_rejected = (*fixture)->PoisonRejected(engine) ? 1 : 0;
  EXPECT_EQ(o.poison_rejected, 0u);
  EXPECT_EQ(engine.counters().Snapshot().swaps_attempted, 0u);
  EXPECT_FALSE(GateValue(EvaluateGates(SoakGates(o)), "poison_rejected"));
  engine.Stop();
  std::filesystem::remove_all(dir);
}

/// A small fixture bundled under a fresh temporary directory `name`.
std::unique_ptr<BundleFixture> SmallFixture(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.queries = 4;
  config.features = 8;
  FixtureConfig fc;
  fc.trees = 2;
  fc.bundle_path = (dir / "model.bundle").string();
  auto fixture = BundleFixture::Create(config, fc);
  EXPECT_TRUE(fixture.ok()) << fixture.status().ToString();
  return fixture.ok() ? std::move(fixture).value() : nullptr;
}

TEST(BundleFixtureTest, TopRungServesThePrunedStudentOnTheHybridEngine) {
  const auto fixture = SmallFixture("replay_driver_test_hybrid");
  ASSERT_NE(fixture, nullptr);
  const serve::DegradationLadder& ladder = *fixture->initial_ladder();
  ASSERT_EQ(ladder.num_rungs(), 3u);
  EXPECT_EQ(ladder.rung(0).scorer->name(), "neural-hybrid-sparse");
  std::filesystem::remove_all(
      std::filesystem::path(fixture->bundle_path()).parent_path());
}

// Rung costs are clamped upward from the floor, so the cascade stays dearer
// than the teacher subset whatever the host measured, and a budget of
// exactly the floor's batch cost picks the floor.
TEST(BundleFixtureTest, CascadeCostsMoreThanTheFloorItFallsBackTo) {
  const auto fixture = SmallFixture("replay_driver_test_costs");
  ASSERT_NE(fixture, nullptr);
  const serve::DegradationLadder& ladder = *fixture->initial_ladder();
  ASSERT_EQ(ladder.num_rungs(), 3u);
  EXPECT_GT(ladder.rung(1).predicted_us_per_doc,
            ladder.rung(2).predicted_us_per_doc);
  const uint32_t count = 100;
  EXPECT_EQ(ladder.PickRung(ladder.PredictedBatchMicros(2, count, 1.0), count,
                            1.0),
            2);
  std::filesystem::remove_all(
      std::filesystem::path(fixture->bundle_path()).parent_path());
}

TEST(BundleFixtureTest, FaultInjectedGenerationFaultsOnlyItsTopRung) {
  const auto fixture = SmallFixture("replay_driver_test_faults");
  ASSERT_NE(fixture, nullptr);
  serve::FaultInjectionConfig faults;
  faults.transient_fault_probability = 1.0;
  auto faulty = fixture->FaultInjectedLadder(faults);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  const serve::DegradationLadder& clean = *fixture->initial_ladder();
  const serve::DegradationLadder& ladder = **faulty;
  ASSERT_EQ(ladder.num_rungs(), clean.num_rungs());

  const data::Dataset& data = fixture->dataset();
  const float* docs = data.Row(data.QueryBegin(0));
  const uint32_t count = data.QuerySize(0);
  const uint32_t stride = data.num_features();
  std::vector<float> want(count);
  std::vector<float> got(count);
  for (size_t r = 0; r < ladder.num_rungs(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(ladder.rung(r).name, clean.rung(r).name);
    EXPECT_EQ(ladder.rung(r).predicted_us_per_doc,
              clean.rung(r).predicted_us_per_doc);
    const Status status =
        ladder.rung(r).scorer->TryScore(docs, count, stride, got.data());
    if (r == 0) {
      EXPECT_FALSE(status.ok());
      continue;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(
        clean.rung(r).scorer->TryScore(docs, count, stride, want.data()).ok());
    // Bitwise: the same bytes, not merely close floats.
    EXPECT_EQ(std::memcmp(got.data(), want.data(), count * sizeof(float)), 0);
  }
  std::filesystem::remove_all(
      std::filesystem::path(fixture->bundle_path()).parent_path());
}

}  // namespace
}  // namespace dnlr::replay

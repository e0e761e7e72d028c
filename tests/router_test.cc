#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/hash_ring.h"
#include "common/rng.h"
#include "common/token_bucket.h"
#include "obs/metrics.h"
#include "serve/ladder.h"
#include "serve/router.h"
#include "serve/score_cache.h"
#include "serve/scorer.h"

namespace dnlr::serve {
namespace {

constexpr uint32_t kDocs = 8;
constexpr uint32_t kStride = 4;

std::vector<float> MakeDocs() {
  std::vector<float> docs(kDocs * kStride);
  for (size_t i = 0; i < docs.size(); ++i) {
    docs[i] = static_cast<float>(i) * 0.25f;
  }
  return docs;
}

/// Fallible test double whose failure mode the test flips at runtime —
/// stands in for a shard-wide outage window.
class ToggleScorer : public FallibleScorer {
 public:
  explicit ToggleScorer(float value) : value_(value) {}

  std::string_view name() const override { return "toggle"; }

  // Relaxed ordering on the toggle: a test control knob, not a
  // synchronization point; threads observing the flip a call late is fine.
  void set_failing(bool failing) {
    failing_.store(failing, std::memory_order_relaxed);
  }

  Status TryScore(const float*, uint32_t count, uint32_t,
                  float* out) const override {
    // Relaxed: see set_failing.
    if (failing_.load(std::memory_order_relaxed)) {
      return Status::Internal("toggle: injected shard outage");
    }
    for (uint32_t i = 0; i < count; ++i) out[i] = value_;
    return Status::Ok();
  }

 private:
  float value_;
  std::atomic<bool> failing_{false};
};

/// Non-owning shared_ptr alias for stack-held ladders (the pattern the
/// engine's non-owning constructor uses internally).
std::shared_ptr<const DegradationLadder> Alias(const DegradationLadder& l) {
  return {&l, [](const DegradationLadder*) {}};
}

/// Picks a tenant id whose primary is `shard` under `router`'s ring.
uint64_t TenantOnShard(const ShardedRouter& router, uint32_t shard) {
  for (uint64_t t = 0; t < 10000; ++t) {
    if (router.PrimaryShardFor(t) == shard) return t;
  }
  ADD_FAILURE() << "no tenant hashes to shard " << shard;
  return 0;
}

// ---------------------------------------------------------------------------
// TokenBucket

TEST(TokenBucketTest, BurstThenRefillOnFakeClock) {
  FakeClock clock;
  common::TokenBucket bucket(/*tokens_per_second=*/10.0, /*burst=*/5.0,
                             &clock);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());  // burst spent, no time has passed

  clock.AdvanceMicros(100'000);  // 0.1 s -> one token at 10/s
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());

  clock.AdvanceMicros(10'000'000);  // refill clamps at burst, not 100 tokens
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
}

TEST(TokenBucketTest, RejectionConsumesNothing) {
  FakeClock clock;
  common::TokenBucket bucket(1.0, 1.0, &clock);
  EXPECT_TRUE(bucket.TryAcquire());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(bucket.TryAcquire());
  clock.AdvanceMicros(1'000'000);
  // Ten rejections must not have driven the balance below empty.
  EXPECT_TRUE(bucket.TryAcquire());
}

/// The admission-control invariant: under ANY interleaving of acquires and
/// clock advances, admissions in any window [t1, t2] never exceed
/// burst + rate * (t2 - t1). Randomized schedules, seeded.
TEST(TokenBucketTest, PropertyNeverAdmitsMoreThanRateTimesWindowPlusBurst) {
  for (const uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    Rng rng(seed);
    FakeClock clock;
    const double rate = 50.0;   // tokens/s
    const double burst = 8.0;
    common::TokenBucket bucket(rate, burst, &clock);

    std::vector<uint64_t> admit_micros;  // timestamp of every admission
    for (int step = 0; step < 4000; ++step) {
      if (rng.Below(3) == 0) {
        clock.AdvanceMicros(rng.Below(40'000));  // up to 40 ms
      } else if (bucket.TryAcquire()) {
        admit_micros.push_back(clock.NowMicros());
      }
    }
    ASSERT_FALSE(admit_micros.empty());

    // Check the bound over every window between two admissions (admissions
    // are sorted by construction). The window [t_i, t_j] contains j - i + 1
    // admissions; allow a tiny epsilon for float refill accumulation.
    for (size_t i = 0; i < admit_micros.size(); i += 7) {
      for (size_t j = i; j < admit_micros.size(); j += 5) {
        const double window_seconds =
            static_cast<double>(admit_micros[j] - admit_micros[i]) * 1e-6;
        const double admitted = static_cast<double>(j - i + 1);
        EXPECT_LE(admitted, burst + rate * window_seconds + 1e-3)
            << "seed " << seed << " window [" << i << ", " << j << "]";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRingTest, EveryShardOwnsKeysAndMappingIsStable) {
  common::HashRing ring(64);
  for (uint32_t s = 0; s < 4; ++s) ring.AddShard(s);
  std::set<uint32_t> owners;
  for (uint64_t key = 0; key < 4000; ++key) {
    const uint32_t shard = ring.ShardFor(key);
    EXPECT_EQ(shard, ring.ShardFor(key));  // pure function of the key
    owners.insert(shard);
  }
  EXPECT_EQ(owners.size(), 4u);  // no shard is starved
}

TEST(HashRingTest, RemovingOneShardOnlyRemapsItsOwnKeys) {
  common::HashRing ring(64);
  for (uint32_t s = 0; s < 5; ++s) ring.AddShard(s);

  constexpr uint32_t kRemoved = 2;
  std::vector<uint32_t> before(4000);
  for (uint64_t key = 0; key < before.size(); ++key) {
    before[key] = ring.ShardFor(key);
  }

  ring.RemoveShard(kRemoved);
  EXPECT_EQ(ring.num_shards(), 4u);
  uint64_t remapped = 0;
  for (uint64_t key = 0; key < before.size(); ++key) {
    const uint32_t after = ring.ShardFor(key);
    if (before[key] == kRemoved) {
      EXPECT_NE(after, kRemoved);
      ++remapped;
    } else {
      // The consistent-hashing contract: survivors keep every key.
      EXPECT_EQ(after, before[key]) << "key " << key;
    }
  }
  EXPECT_GT(remapped, 0u);
}

TEST(HashRingTest, PreferenceOrderStartsAtOwnerAndCoversAllShards) {
  common::HashRing ring(32);
  for (uint32_t s = 0; s < 4; ++s) ring.AddShard(s);
  for (uint64_t key = 0; key < 200; ++key) {
    const std::vector<uint32_t> order = ring.PreferenceOrder(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], ring.ShardFor(key));
    std::set<uint32_t> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), 4u);
  }
}

// ---------------------------------------------------------------------------
// ShardedRouter

struct RouterFixture {
  /// `num_shards` single-rung ladders, each over its own ToggleScorer, so
  /// a test can break exactly one shard.
  explicit RouterFixture(size_t num_shards, RouterConfig config,
                         ServingConfig engine_config = MakeEngineConfig())
      : clock(0) {
    scorers.reserve(num_shards);
    ladders.reserve(num_shards);
    std::vector<std::shared_ptr<const DegradationLadder>> handles;
    for (size_t s = 0; s < num_shards; ++s) {
      scorers.push_back(
          std::make_unique<ToggleScorer>(static_cast<float>(s) + 1.0f));
      auto ladder = std::make_unique<DegradationLadder>();
      EXPECT_TRUE(
          ladder->AddRung("toggle", scorers[s].get(), /*us_per_doc=*/0.5)
              .ok());
      ladders.push_back(std::move(ladder));
      handles.push_back(Alias(*ladders[s]));
    }
    router = std::make_unique<ShardedRouter>(std::move(handles),
                                             engine_config, config, &clock);
  }

  static ServingConfig MakeEngineConfig() {
    ServingConfig config;
    config.num_workers = 1;
    config.queue_capacity = 16;
    return config;
  }

  ShardedRouter::Response Score(uint64_t tenant,
                                uint64_t budget_micros = 1'000'000) {
    const std::vector<float> docs = MakeDocs();
    return router->ScoreSync(tenant, docs.data(), kDocs, kStride,
                             budget_micros);
  }

  FakeClock clock;
  std::vector<std::unique_ptr<ToggleScorer>> scorers;
  std::vector<std::unique_ptr<DegradationLadder>> ladders;
  std::unique_ptr<ShardedRouter> router;
};

RouterConfig FastLifecycleConfig() {
  RouterConfig config;
  config.health_window_micros = 1'000'000;
  config.min_window_requests = 4;
  config.drain_micros = 10'000;
  config.quarantine_micros = 50'000;
  config.probe_successes_to_readmit = 3;
  return config;
}

TEST(ShardedRouterTest, HealthyFleetServesOnPrimaryShard) {
  RouterFixture fix(4, FastLifecycleConfig());
  for (uint64_t tenant = 0; tenant < 16; ++tenant) {
    const auto resp = fix.Score(tenant);
    ASSERT_TRUE(resp.serve.status.ok()) << resp.serve.status.ToString();
    EXPECT_TRUE(resp.admitted);
    EXPECT_FALSE(resp.failover);
    EXPECT_EQ(resp.shard,
              static_cast<int>(fix.router->PrimaryShardFor(tenant)));
    // The score identifies the shard: ToggleScorer s emits s + 1.
    EXPECT_EQ(resp.serve.scores[0], static_cast<float>(resp.shard) + 1.0f);
  }
  EXPECT_EQ(fix.router->counters().Snapshot().failover_picks, 0u);
}

TEST(ShardedRouterTest, QuotaRejectsOverBurstAndRefillsOnClock) {
  RouterConfig config = FastLifecycleConfig();
  RouterFixture fix(2, config);
  constexpr uint64_t kTenant = 3;
  fix.router->SetTenantQuota(kTenant, TenantQuota{/*tokens_per_second=*/10.0,
                                                  /*burst=*/5.0});

  uint32_t admitted = 0;
  uint32_t rejected = 0;
  for (int i = 0; i < 20; ++i) {
    const auto resp = fix.Score(kTenant);
    if (resp.admitted) {
      ++admitted;
      EXPECT_TRUE(resp.serve.status.ok());
    } else {
      ++rejected;
      EXPECT_EQ(resp.serve.status.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(resp.shard, -1);  // never reached any shard
    }
  }
  EXPECT_EQ(admitted, 5u);
  EXPECT_EQ(rejected, 15u);

  fix.clock.AdvanceMicros(1'000'000);  // 1 s at 10/s -> 5 more (burst cap)
  uint32_t admitted_after = 0;
  for (int i = 0; i < 20; ++i) {
    if (fix.Score(kTenant).admitted) ++admitted_after;
  }
  EXPECT_EQ(admitted_after, 5u);

  const TenantSlo slo = fix.router->TenantSloSnapshot(kTenant);
  EXPECT_EQ(slo.quota_rejected, 30u);
  EXPECT_EQ(slo.ok, 10u);
  EXPECT_EQ(slo.errors, 0u);

  // Another tenant is untouched by the abusive tenant's quota.
  const auto other = fix.Score(kTenant + 1);
  EXPECT_TRUE(other.admitted);
  EXPECT_TRUE(other.serve.status.ok());
}

TEST(ShardedRouterTest, OutageWalksDrainQuarantineProbeReadmit) {
  RouterFixture fix(2, FastLifecycleConfig());
  const uint64_t tenant = TenantOnShard(*fix.router, 0);
  const int other_shard = 1;

  // Break shard 0. Requests still succeed: the engine reports the rung
  // fault and the router retries on the ring's next shard.
  fix.scorers[0]->set_failing(true);
  for (int i = 0; i < 4; ++i) {
    const auto resp = fix.Score(tenant);
    ASSERT_TRUE(resp.serve.status.ok());
    EXPECT_EQ(resp.shard, other_shard);
    EXPECT_TRUE(resp.failover);
  }
  // Four recorded failures >= min_window_requests at failure rate 1.0:
  // the shard drains.
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kDraining);
  EXPECT_GE(fix.router->shard_failure_rate(0), 0.99);

  // While draining/quarantined the primary is not even tried: its engine
  // sees no new submissions and responses are pick-time failovers.
  const uint64_t submitted_before =
      fix.router->shard_engine(0).counters().Snapshot().submitted;
  const auto during = fix.Score(tenant);
  ASSERT_TRUE(during.serve.status.ok());
  EXPECT_EQ(during.shard, other_shard);
  EXPECT_EQ(fix.router->shard_engine(0).counters().Snapshot().submitted,
            submitted_before);

  // Drain window expires -> quarantined.
  fix.clock.AdvanceMicros(11'000);
  (void)fix.Score(tenant);  // NOLINT(dnlr-discarded-status): drives the lazy state machine
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kQuarantined);

  // Quarantine expires; the shard has recovered. Probes readmit it.
  fix.scorers[0]->set_failing(false);
  fix.clock.AdvanceMicros(51'000);
  for (int probe = 0; probe < 3; ++probe) {
    const auto resp = fix.Score(tenant);
    ASSERT_TRUE(resp.serve.status.ok());
    EXPECT_EQ(resp.shard, 0);  // probes run on the probed shard itself
  }
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kHealthy);

  const auto resp = fix.Score(tenant);
  EXPECT_EQ(resp.shard, 0);
  EXPECT_FALSE(resp.failover);

  const RouterCountersSnapshot counters = fix.router->counters().Snapshot();
  EXPECT_GE(counters.drains, 1u);
  EXPECT_GE(counters.quarantines, 1u);
  EXPECT_GE(counters.probes, 3u);
  EXPECT_EQ(counters.readmissions, 1u);
}

TEST(ShardedRouterTest, FailedProbeRequarantines) {
  RouterFixture fix(2, FastLifecycleConfig());
  const uint64_t tenant = TenantOnShard(*fix.router, 0);

  fix.scorers[0]->set_failing(true);
  for (int i = 0; i < 4; ++i) (void)fix.Score(tenant);  // NOLINT(dnlr-discarded-status): outcome asserted via state below
  fix.clock.AdvanceMicros(11'000);
  (void)fix.Score(tenant);  // NOLINT(dnlr-discarded-status): drives drain -> quarantine
  ASSERT_EQ(fix.router->shard_state(0), ShardState::kQuarantined);

  // Quarantine expires but the shard is STILL broken: the single probe
  // fails (served by the healthy shard after the failover retry) and the
  // shard goes straight back to quarantine.
  fix.clock.AdvanceMicros(51'000);
  const auto resp = fix.Score(tenant);
  ASSERT_TRUE(resp.serve.status.ok());
  EXPECT_EQ(resp.shard, 1);
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kQuarantined);
}

TEST(ShardedRouterTest, StoppedShardIsSkippedAsShutdownNotSaturation) {
  RouterFixture fix(2, FastLifecycleConfig());
  const uint64_t tenant = TenantOnShard(*fix.router, 0);

  fix.router->shard_engine(0).Stop();
  for (int i = 0; i < 4; ++i) {
    const auto resp = fix.Score(tenant);
    ASSERT_TRUE(resp.serve.status.ok());
    EXPECT_EQ(resp.shard, 1);
  }
  const RouterCountersSnapshot counters = fix.router->counters().Snapshot();
  EXPECT_GE(counters.skipped_stopped, 4u);
  // Skipped outright: the dead engine was never submitted to, so it tags
  // no shed_stopped — and the live shard sheds nothing either.
  EXPECT_EQ(fix.router->shard_engine(0).counters().Snapshot().shed_stopped,
            0u);
  EXPECT_EQ(fix.router->shard_engine(1).counters().Snapshot().shed_queue_full,
            0u);
}

TEST(ShardedRouterTest, SwappedGenerationIsRevalidatedByProbesNotTrusted) {
  RouterFixture fix(2, FastLifecycleConfig());
  const uint64_t tenant = TenantOnShard(*fix.router, 0);

  fix.scorers[0]->set_failing(true);
  for (int i = 0; i < 4; ++i) (void)fix.Score(tenant);  // NOLINT(dnlr-discarded-status): outcome asserted via state below
  ASSERT_EQ(fix.router->shard_state(0), ShardState::kDraining);

  // Ship a fixed model generation to the broken shard. The swap clears the
  // outcome window but does NOT short-circuit the lifecycle: the shard
  // still walks drain -> quarantine -> probes before primary traffic
  // returns, and only the probes' success readmits the new generation.
  ToggleScorer healthy(9.0f);
  DegradationLadder next;
  ASSERT_TRUE(next.AddRung("toggle", &healthy, 0.5).ok());
  ASSERT_TRUE(fix.router->SwapModelOnShard(0, Alias(next)).ok());
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kDraining);
  EXPECT_EQ(fix.router->shard_failure_rate(0), 0.0);  // window cleared

  fix.clock.AdvanceMicros(11'000);  // drain expires
  (void)fix.Score(tenant);  // NOLINT(dnlr-discarded-status): drives the lazy state machine
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kQuarantined);
  fix.clock.AdvanceMicros(51'000);  // quarantine expires
  for (int probe = 0; probe < 3; ++probe) {
    const auto resp = fix.Score(tenant);
    ASSERT_TRUE(resp.serve.status.ok());
    EXPECT_EQ(resp.shard, 0);
    EXPECT_EQ(resp.serve.scores[0], 9.0f);
    EXPECT_EQ(resp.serve.model_version, 2u);
  }
  EXPECT_EQ(fix.router->shard_state(0), ShardState::kHealthy);
  EXPECT_GE(fix.router->counters().Snapshot().readmissions, 1u);
}

/// Every metric name in the process-wide registry, read from its export.
std::set<std::string> RegisteredMetricNames() {
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  const std::string key = "\"name\": \"";
  std::set<std::string> names;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at)) {
    at += key.size();
    const size_t end = json.find('"', at);
    names.insert(json.substr(at, end - at));
    at = end;
  }
  return names;
}

/// Serving statistics belong to the router, its engines and the cache that
/// count them: building and serving through them adds no name to the
/// process-wide registry, which keeps only the scoring spans.
TEST(ShardedRouterTest, ServingRegistersNoProcessWideMetric) {
  const std::set<std::string> before = RegisteredMetricNames();
  {
    ScoreCache cache;
    ServingConfig engine_config = RouterFixture::MakeEngineConfig();
    engine_config.score_cache = &cache;
    RouterFixture fix(2, FastLifecycleConfig(), engine_config);
    for (uint64_t tenant = 0; tenant < 4; ++tenant) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        const auto resp = fix.Score(tenant);
        ASSERT_TRUE(resp.serve.status.ok()) << resp.serve.status.ToString();
      }
      EXPECT_EQ(fix.router->TenantSloSnapshot(tenant).ok, 2u);
    }
    EXPECT_GT(cache.Stats().hits, 0u);
  }
  EXPECT_EQ(RegisteredMetricNames(), before);
}

/// The acceptance scenario, in-process and multi-threaded: tenants hammer a
/// 3-shard fleet from their own threads while one shard suffers an outage
/// window. The abusive tenant saturates its own quota; everyone else's
/// error rate stays under 1%; the faulted shard quarantines and, after the
/// outage, is readmitted. Runs under the `threaded` label (tsan gate).
TEST(ShardedRouterIsolationTest, AbusiveTenantAndShardOutageStayContained) {
  RouterConfig config;
  config.health_window_micros = 20'000;
  config.min_window_requests = 8;
  config.drain_micros = 2'000;
  config.quarantine_micros = 10'000;
  config.probe_successes_to_readmit = 2;
  ServingConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.queue_capacity = 32;

  // Real clock: this test exercises real thread interleavings (the tsan
  // payload); the deterministic lifecycle walk is covered above.
  std::vector<std::unique_ptr<ToggleScorer>> scorers;
  std::vector<std::unique_ptr<DegradationLadder>> ladders;
  std::vector<std::shared_ptr<const DegradationLadder>> handles;
  constexpr size_t kShards = 3;
  for (size_t s = 0; s < kShards; ++s) {
    scorers.push_back(std::make_unique<ToggleScorer>(1.0f));
    ladders.push_back(std::make_unique<DegradationLadder>());
    ASSERT_TRUE(
        ladders[s]->AddRung("toggle", scorers[s].get(), 0.5).ok());
    handles.push_back(Alias(*ladders[s]));
  }
  ShardedRouter router(std::move(handles), engine_config, config);

  constexpr uint64_t kTenants = 6;
  constexpr uint64_t kAbusive = 0;
  // The abusive tenant gets a tight quota; its thread ignores pacing.
  router.SetTenantQuota(kAbusive, TenantQuota{200.0, 20.0});

  // Fault the shard owning a non-abusive tenant, so failover is exercised.
  const uint32_t faulted =
      router.PrimaryShardFor(1 /* a well-behaved tenant */);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    threads.emplace_back([&, tenant] {
      const std::vector<float> docs = MakeDocs();
      // Relaxed stop flag: plain shutdown signal, joined below.
      while (!stop.load(std::memory_order_relaxed)) {
        (void)router.ScoreSync(tenant, docs.data(), kDocs, kStride,  // NOLINT(dnlr-discarded-status): soak traffic, outcomes read via SLO rollups
                               /*budget_micros=*/100'000);
        if (tenant != kAbusive) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
    });
  }

  // Healthy warmup, then a forced outage window on one shard, then heal.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  scorers[faulted]->set_failing(true);
  for (int spins = 0;
       router.shard_state(faulted) == ShardState::kHealthy && spins < 400;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(router.shard_state(faulted), ShardState::kHealthy);
  scorers[faulted]->set_failing(false);
  for (int spins = 0;
       router.shard_state(faulted) != ShardState::kHealthy && spins < 400;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(router.shard_state(faulted), ShardState::kHealthy);
  const RouterCountersSnapshot counters = router.counters().Snapshot();
  EXPECT_GE(counters.quarantines, 1u);
  EXPECT_GE(counters.readmissions, 1u);

  const TenantSlo abusive = router.TenantSloSnapshot(kAbusive);
  EXPECT_GT(abusive.quota_rejected, 0u);
  EXPECT_GT(abusive.ok, 0u);  // rate-limited, not starved

  for (uint64_t tenant = 1; tenant < kTenants; ++tenant) {
    const TenantSlo slo = router.TenantSloSnapshot(tenant);
    EXPECT_GT(slo.ok, 0u) << "tenant " << tenant;
    EXPECT_EQ(slo.quota_rejected, 0u) << "tenant " << tenant;
    EXPECT_LT(slo.error_rate, 0.01) << "tenant " << tenant;
  }
  router.Stop();
}

}  // namespace
}  // namespace dnlr::serve

// Tests for the hot score cache: fingerprint stability and sensitivity, the
// Lookup/Insert/stats contract, the no-stale-score guarantee (a version
// mismatch is rejected and dropped, never served), the LRU bound under
// Zipfian key traffic, and the engine integration — a cache hit must skip
// the scorer entirely yet be bitwise identical to cache-off serving, is
// answered in Submit without a worker or a queue slot, still obeys the
// stopped and expired-deadline shed rules, and a SwapModel must invalidate
// every prior entry through generation stamping. Runs under the `threaded`
// ctest label for the concurrent smokes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "replay/zipf.h"
#include "serve/deadline.h"
#include "serve/engine.h"
#include "serve/ladder.h"
#include "serve/score_cache.h"
#include "serve/scorer.h"

namespace dnlr {
namespace {

using serve::DegradationLadder;
using serve::ScoreCache;
using serve::ScoreCacheConfig;
using serve::ScoreCacheStats;
using serve::ServeCountersSnapshot;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServingConfig;
using serve::ServingEngine;

constexpr uint64_t kBudgetMicros = 60'000'000;  // never the limiting factor

/// Deterministic affine scorer that counts invocations: the call count
/// proves whether a response came from the model or the cache, and the bias
/// distinguishes model generations.
class CountingScorer : public serve::FallibleScorer {
 public:
  explicit CountingScorer(float bias) : bias_(bias) {}
  std::string_view name() const override { return "counting"; }
  Status TryScore(const float* docs, uint32_t count, uint32_t stride,
                  float* out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    for (uint32_t i = 0; i < count; ++i) {
      out[i] = bias_ + 0.5f * docs[static_cast<size_t>(i) * stride];
    }
    return Status::Ok();
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  float bias_;
  mutable std::atomic<uint64_t> calls_{0};
};

/// Affine scorer behind a gate: open, it scores like CountingScorer; closed,
/// TryScore blocks until the gate opens, so a test can hold the only worker
/// inside a rung.
class GateScorer : public serve::FallibleScorer {
 public:
  std::string_view name() const override { return "gate"; }
  Status TryScore(const float* docs, uint32_t count, uint32_t stride,
                  float* out) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    for (uint32_t i = 0; i < count; ++i) {
      out[i] = 0.5f * docs[static_cast<size_t>(i) * stride];
    }
    return Status::Ok();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void WaitUntilEntered(uint32_t times) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= times; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable uint32_t entered_ = 0;
  mutable bool open_ = true;
};

/// A single-rung ladder plus the scorer it borrows, owned together (the
/// aliasing-shared_ptr pattern SwapModel expects).
struct OwnedLadder {
  std::unique_ptr<CountingScorer> scorer;
  DegradationLadder ladder;
};

struct LadderHandle {
  std::shared_ptr<const DegradationLadder> ladder;
  const CountingScorer* scorer;
};

LadderHandle MakeCountingLadder(float bias) {
  auto owner = std::make_shared<OwnedLadder>();
  owner->scorer = std::make_unique<CountingScorer>(bias);
  const Status status =
      owner->ladder.AddRung("counting", owner->scorer.get(), 1.0);
  EXPECT_TRUE(status.ok()) << status.ToString();
  const CountingScorer* scorer = owner->scorer.get();
  const DegradationLadder* ladder = &owner->ladder;
  return {std::shared_ptr<const DegradationLadder>(std::move(owner), ladder),
          scorer};
}

std::vector<float> MakeDocs(uint32_t count, uint32_t stride, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> docs(static_cast<size_t>(count) * stride);
  for (float& v : docs) v = static_cast<float>(rng.Uniform());
  return docs;
}

ServeRequest MakeRequest(const std::vector<float>& docs, uint32_t count,
                         uint32_t stride) {
  ServeRequest request;
  request.docs = docs.data();
  request.count = count;
  request.stride = stride;
  return request;
}

uint64_t Lookups(const ScoreCache& cache) {
  const ScoreCacheStats stats = cache.Stats();
  return stats.hits + stats.misses;
}

// ----------------------------------------------------------------- unit level

TEST(ScoreCacheTest, FingerprintIsStableAndSensitive) {
  const std::vector<float> docs = MakeDocs(8, 4, 1);
  std::vector<float> copy = docs;
  const uint64_t fp = ScoreCache::Fingerprint(docs.data(), 8, 4);
  // Identical bytes in a different buffer fingerprint identically.
  EXPECT_EQ(ScoreCache::Fingerprint(copy.data(), 8, 4), fp);
  // One flipped float, a different count or a different stride all change
  // the fingerprint.
  copy[17] = std::nextafter(copy[17], 2.0f);
  EXPECT_NE(ScoreCache::Fingerprint(copy.data(), 8, 4), fp);
  EXPECT_NE(ScoreCache::Fingerprint(docs.data(), 4, 4), fp);
  EXPECT_NE(ScoreCache::Fingerprint(docs.data(), 4, 8), fp);
}

TEST(ScoreCacheTest, FingerprintSeesEveryBitOfAStripeAndItsTails) {
  // 5 x 3 floats = 60 bytes: one 32-byte stripe, three 8-byte tail steps and
  // one 4-byte step, so every read width of the hash is covered.
  const std::vector<float> docs = MakeDocs(5, 3, 2);
  const uint64_t fp = ScoreCache::Fingerprint(docs.data(), 5, 3);
  const size_t num_bytes = docs.size() * sizeof(float);
  ASSERT_EQ(num_bytes, 60u);
  for (size_t byte = 0; byte < num_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<float> flipped = docs;
      reinterpret_cast<unsigned char*>(flipped.data())[byte] ^=
          static_cast<unsigned char>(1u << bit);
      EXPECT_NE(ScoreCache::Fingerprint(flipped.data(), 5, 3), fp)
          << "byte " << byte << " bit " << bit;
    }
  }
  // The same 15 floats read as 3 docs of 5 features are another batch.
  EXPECT_NE(ScoreCache::Fingerprint(docs.data(), 3, 5), fp);
}

TEST(ScoreCacheTest, LookupInsertAndStats) {
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 2,
                                    .metric_prefix = "test.cache.basic"});
  const std::vector<float> scores = {1.0f, 2.0f, 3.0f};
  ScoreCache::Entry entry;
  EXPECT_FALSE(cache.Lookup(42, 1, 3, &entry));
  cache.Insert(42, 1, scores.data(), 3, 0, false);
  ASSERT_TRUE(cache.Lookup(42, 1, 3, &entry));
  EXPECT_EQ(entry.scores, scores);
  EXPECT_EQ(entry.rung, 0);
  EXPECT_FALSE(entry.degraded);

  const ScoreCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.stale_rejects, 0u);
}

TEST(ScoreCacheTest, StaleGenerationIsRejectedAndDropped) {
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 1,
                                    .metric_prefix = "test.cache.stale"});
  const std::vector<float> scores = {5.0f};
  cache.Insert(7, /*version=*/1, scores.data(), 1, 0, false);

  // A lookup from generation 2 must never see generation 1's scores…
  ScoreCache::Entry entry;
  EXPECT_FALSE(cache.Lookup(7, /*version=*/2, 1, &entry));
  ScoreCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_rejects, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // …and the entry is gone for the old generation too (dropped on sight).
  EXPECT_FALSE(cache.Lookup(7, /*version=*/1, 1, &entry));

  // Re-inserting under the new generation serves again.
  cache.Insert(7, 2, scores.data(), 1, 1, true);
  ASSERT_TRUE(cache.Lookup(7, 2, 1, &entry));
  EXPECT_EQ(entry.rung, 1);
  EXPECT_TRUE(entry.degraded);
}

TEST(ScoreCacheTest, CountMismatchIsACollisionGuard) {
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 1,
                                    .metric_prefix = "test.cache.collide"});
  const std::vector<float> scores = {1.0f, 2.0f};
  cache.Insert(9, 1, scores.data(), 2, 0, false);
  ScoreCache::Entry entry;
  // Same fingerprint, different batch shape: treated as a collision, the
  // entry is dropped rather than wrong-shaped scores served.
  EXPECT_FALSE(cache.Lookup(9, 1, 4, &entry));
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().stale_rejects, 0u);
}

TEST(ScoreCacheTest, LruBoundHoldsUnderZipfianLoad) {
  constexpr size_t kCapacity = 64;
  ScoreCache cache(ScoreCacheConfig{.capacity = kCapacity, .num_shards = 4,
                                    .metric_prefix = "test.cache.lru"});
  const replay::ZipfSampler zipf(512, 1.1);
  Rng rng(21);
  const std::vector<float> scores = {1.0f};
  for (int i = 0; i < 20'000; ++i) {
    const float key = static_cast<float>(zipf.Sample(rng));
    const uint64_t fp = ScoreCache::Fingerprint(&key, 1, 1);
    ScoreCache::Entry entry;
    if (!cache.Lookup(fp, 1, 1, &entry)) {
      cache.Insert(fp, 1, scores.data(), 1, 0, false);
    }
  }
  const ScoreCacheStats stats = cache.Stats();
  // Bounded despite 512 distinct keys, with real evictions — and the
  // Zipfian hot set keeps hitting anyway.
  EXPECT_LE(stats.entries, kCapacity);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(ScoreCacheTest, ClearDropsEntriesButKeepsStats) {
  ScoreCache cache(ScoreCacheConfig{.capacity = 8, .num_shards = 2,
                                    .metric_prefix = "test.cache.clear"});
  const std::vector<float> scores = {1.0f};
  cache.Insert(1, 1, scores.data(), 1, 0, false);
  cache.Insert(2, 1, scores.data(), 1, 0, false);
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  ScoreCache::Entry entry;
  EXPECT_FALSE(cache.Lookup(1, 1, 1, &entry));
}

// ----------------------------------------------------------- engine level

TEST(ScoreCacheTest, EngineHitSkipsTheScorerBitwise) {
  const LadderHandle handle = MakeCountingLadder(1.0f);
  ScoreCache cache(ScoreCacheConfig{.capacity = 64, .num_shards = 2,
                                    .metric_prefix = "test.cache.engine"});
  ServingConfig config;
  config.num_workers = 2;
  config.score_cache = &cache;
  ServingEngine engine(handle.ladder, config);

  const std::vector<float> docs = MakeDocs(16, 8, 5);
  const ServeResponse first =
      engine.ScoreSync(docs.data(), 16, 8, kBudgetMicros);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(handle.scorer->calls(), 1u);

  const ServeResponse second =
      engine.ScoreSync(docs.data(), 16, 8, kBudgetMicros);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.scores, first.scores);  // bitwise, float == float
  EXPECT_EQ(second.rung, first.rung);
  EXPECT_EQ(second.rung_name, first.rung_name);
  // The model was not consulted again: the hit replayed stored scores.
  EXPECT_EQ(handle.scorer->calls(), 1u);
  engine.Stop();
}

TEST(ScoreCacheTest, SwapModelInvalidatesThroughGenerationStamping) {
  const LadderHandle v1 = MakeCountingLadder(1.0f);
  const LadderHandle v2 = MakeCountingLadder(2.0f);
  ScoreCache cache(ScoreCacheConfig{.capacity = 64, .num_shards = 2,
                                    .metric_prefix = "test.cache.swap"});
  ServingConfig config;
  config.num_workers = 2;
  config.score_cache = &cache;
  ServingEngine engine(v1.ladder, config);

  const std::vector<float> docs = MakeDocs(8, 4, 6);
  const ServeResponse old_gen =
      engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros);
  ASSERT_TRUE(old_gen.status.ok());

  ASSERT_TRUE(engine.SwapModel(v2.ladder).ok());

  // Same bytes, new generation: the v1 entry must be stale-rejected, the
  // response recomputed on v2 (bias differs by exactly 1.0 per doc).
  const ServeResponse new_gen =
      engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros);
  ASSERT_TRUE(new_gen.status.ok());
  EXPECT_FALSE(new_gen.cache_hit);
  EXPECT_EQ(new_gen.model_version, old_gen.model_version + 1);
  for (size_t i = 0; i < new_gen.scores.size(); ++i) {
    // Across generations only the model relation holds (to rounding);
    // bitwise equality is a within-generation guarantee.
    EXPECT_FLOAT_EQ(new_gen.scores[i], old_gen.scores[i] + 1.0f);
  }
  EXPECT_GE(cache.Stats().stale_rejects, 1u);

  // And the re-inserted entry serves the new generation's scores.
  const ServeResponse hit = engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.scores, new_gen.scores);
  engine.Stop();
}

TEST(ScoreCacheTest, CacheOnAndOffServeBitwiseIdenticalScores) {
  const LadderHandle cached_handle = MakeCountingLadder(3.0f);
  const LadderHandle plain_handle = MakeCountingLadder(3.0f);
  ScoreCache cache(ScoreCacheConfig{.capacity = 128, .num_shards = 4,
                                    .metric_prefix = "test.cache.parity"});
  ServingConfig with_cache;
  with_cache.num_workers = 2;
  with_cache.score_cache = &cache;
  ServingConfig without_cache;
  without_cache.num_workers = 2;
  ServingEngine cached(cached_handle.ladder, with_cache);
  ServingEngine plain(plain_handle.ladder, without_cache);

  for (uint64_t seed = 0; seed < 12; ++seed) {
    const uint32_t count = 4 + static_cast<uint32_t>(seed) * 3;
    const std::vector<float> docs = MakeDocs(count, 6, 100 + seed);
    const ServeResponse miss =
        cached.ScoreSync(docs.data(), count, 6, kBudgetMicros);
    const ServeResponse hit =
        cached.ScoreSync(docs.data(), count, 6, kBudgetMicros);
    const ServeResponse reference =
        plain.ScoreSync(docs.data(), count, 6, kBudgetMicros);
    ASSERT_TRUE(miss.status.ok());
    ASSERT_TRUE(hit.status.ok());
    ASSERT_TRUE(reference.status.ok());
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(miss.scores, reference.scores);
    EXPECT_EQ(hit.scores, reference.scores);
  }
  cached.Stop();
  plain.Stop();
}

TEST(ScoreCacheTest, HitIsAnsweredInSubmitWhileTheWorkerIsBlocked) {
  GateScorer gate;
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("gate", &gate, 1.0).ok());
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 1,
                                    .metric_prefix = "test.cache.inline"});
  ServingConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.score_cache = &cache;
  ServingEngine engine(&ladder, config);
  // Opens the gate on every way out, before the engine's destructor joins
  // the worker it holds: a failed ASSERT then fails the test, not hangs it.
  struct OpenOnExit {
    GateScorer& gate;
    ~OpenOnExit() { gate.Open(); }
  } open_on_exit{gate};

  const std::vector<float> hot = MakeDocs(8, 4, 30);
  const std::vector<float> blocker = MakeDocs(8, 4, 31);
  const std::vector<float> queued = MakeDocs(8, 4, 32);
  const std::vector<float> cold = MakeDocs(8, 4, 33);
  const ServeResponse first = engine.ScoreSync(hot.data(), 8, 4, kBudgetMicros);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();

  // The only worker blocks inside the rung, and a second miss fills the
  // one queue slot.
  gate.Close();
  std::future<ServeResponse> blocked =
      engine.Submit(MakeRequest(blocker, 8, 4));
  gate.WaitUntilEntered(2);
  std::future<ServeResponse> waiting = engine.Submit(MakeRequest(queued, 8, 4));

  // The hot batch needs neither: its future is resolved when Submit returns.
  std::future<ServeResponse> hit = engine.Submit(MakeRequest(hot, 8, 4));
  ASSERT_EQ(hit.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServeResponse answer = hit.get();
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  EXPECT_TRUE(answer.cache_hit);
  EXPECT_EQ(answer.scores, first.scores);
  EXPECT_EQ(answer.rung_name, "gate");
  EXPECT_EQ(answer.model_version, 1u);
  EXPECT_EQ(answer.queue_micros, 0u);
  // The queue really was full: a cold batch sheds.
  EXPECT_EQ(engine.Submit(MakeRequest(cold, 8, 4)).get().status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.counters().Snapshot().shed_queue_full, 1u);

  gate.Open();
  EXPECT_TRUE(blocked.get().status.ok());
  EXPECT_TRUE(waiting.get().status.ok());
  engine.Stop();
}

TEST(ScoreCacheTest, StoppedEngineShedsAWouldBeHit) {
  const LadderHandle handle = MakeCountingLadder(1.0f);
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 1,
                                    .metric_prefix = "test.cache.stopped"});
  ServingConfig config;
  config.num_workers = 1;
  config.score_cache = &cache;
  ServingEngine engine(handle.ladder, config);
  const std::vector<float> docs = MakeDocs(8, 4, 40);
  ASSERT_TRUE(engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros).status.ok());
  engine.Stop();

  const uint64_t lookups = Lookups(cache);
  const ServeResponse shed = engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(shed.cache_hit);
  EXPECT_TRUE(shed.scores.empty());
  const ServeCountersSnapshot counters = engine.counters().Snapshot();
  EXPECT_EQ(counters.shed_stopped, 1u);
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(Lookups(cache), lookups);  // shed before the lookup
}

TEST(ScoreCacheTest, ExpiredDeadlineShedsAWouldBeHit) {
  const LadderHandle handle = MakeCountingLadder(1.0f);
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 1,
                                    .metric_prefix = "test.cache.expired"});
  ServingConfig config;
  config.num_workers = 1;
  config.score_cache = &cache;
  ServingEngine engine(handle.ladder, config);
  const std::vector<float> docs = MakeDocs(8, 4, 41);
  ASSERT_TRUE(engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros).status.ok());

  const uint64_t lookups = Lookups(cache);
  ServeRequest request = MakeRequest(docs, 8, 4);
  request.deadline = serve::Deadline::AfterMicros(engine.clock(), 0);
  const ServeResponse shed = engine.Submit(request).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(shed.cache_hit);
  EXPECT_TRUE(shed.scores.empty());
  EXPECT_EQ(engine.counters().Snapshot().shed_deadline, 1u);
  EXPECT_EQ(Lookups(cache), lookups);  // shed before the lookup
  engine.Stop();
}

TEST(ScoreCacheTest, MissCountsExactlyOneLookup) {
  const LadderHandle handle = MakeCountingLadder(1.0f);
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 1,
                                    .metric_prefix = "test.cache.onelookup"});
  ServingConfig config;
  config.num_workers = 1;
  config.score_cache = &cache;
  ServingEngine engine(handle.ladder, config);
  const std::vector<float> docs = MakeDocs(8, 4, 42);

  const ServeResponse miss = engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.cache_hit);
  const ScoreCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  // The worker inserted under the fingerprint Submit took.
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_TRUE(engine.ScoreSync(docs.data(), 8, 4, kBudgetMicros).cache_hit);
  engine.Stop();
}

TEST(ScoreCacheTest, ConcurrentSubmitsStayBitwiseAcrossSwaps) {
  // Odd generations serve `even_odd[1]`, even ones `even_odd[0]`: the
  // engine starts at version 1 and every swap flips the ladder.
  const LadderHandle even_odd[2] = {MakeCountingLadder(2.0f),
                                    MakeCountingLadder(1.0f)};
  constexpr uint32_t kSets = 6;
  constexpr uint32_t kCount = 12;
  constexpr uint32_t kStride = 5;
  std::vector<std::vector<float>> sets;
  std::vector<float> reference[2][kSets];
  for (uint32_t q = 0; q < kSets; ++q) {
    sets.push_back(MakeDocs(kCount, kStride, 50 + q));
    for (int g = 0; g < 2; ++g) {
      reference[g][q].resize(kCount);
      ASSERT_TRUE(even_odd[g]
                      .scorer
                      ->TryScore(sets[q].data(), kCount, kStride,
                                 reference[g][q].data())
                      .ok());
    }
  }
  ScoreCache cache(ScoreCacheConfig{.capacity = 16, .num_shards = 2,
                                    .metric_prefix = "test.cache.swaprace"});
  ServingConfig config;
  config.num_workers = 2;
  config.queue_capacity = 256;
  config.score_cache = &cache;
  ServingEngine engine(even_odd[1].ladder, config);

  // Submitters keep going until the swapper is done, so every swap lands
  // among live requests however fast or slow the build is.
  constexpr int kSubmitters = 4;
  constexpr int kMinRequestsEach = 200;
  constexpr int kSwaps = 40;
  std::atomic<bool> swapping{true};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      for (int i = 0; swapping.load() || i < kMinRequestsEach; ++i) {
        requests.fetch_add(1);
        const auto q = static_cast<uint32_t>(rng.Below(kSets));
        const ServeResponse resp =
            engine.ScoreSync(sets[q].data(), kCount, kStride, kBudgetMicros);
        if (!resp.status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (resp.cache_hit) hits.fetch_add(1);
        const std::vector<float>& want = reference[resp.model_version % 2][q];
        if (resp.scores.size() != want.size() ||
            std::memcmp(resp.scores.data(), want.data(),
                        want.size() * sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int s = 0; s < kSwaps; ++s) {
    EXPECT_TRUE(engine.SwapModel(even_odd[s % 2].ladder).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  swapping.store(false);
  for (std::thread& submitter : submitters) submitter.join();
  engine.Stop();

  EXPECT_EQ(engine.model_version(), 1u + kSwaps);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  // Both paths ran: some requests hit, the rest were scored by a worker.
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LT(hits.load(), requests.load());
}

TEST(ScoreCacheTest, ConcurrentLookupInsertSmoke) {
  ScoreCache cache(ScoreCacheConfig{.capacity = 32, .num_shards = 4,
                                    .metric_prefix = "test.cache.threads"});
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      const std::vector<float> scores = {static_cast<float>(t)};
      for (int i = 0; i < 5000; ++i) {
        const float key = static_cast<float>(rng.Below(64));
        const uint64_t version = 1 + rng.Below(2);  // racing generations
        const uint64_t fp = ScoreCache::Fingerprint(&key, 1, 1);
        ScoreCache::Entry entry;
        if (!cache.Lookup(fp, version, 1, &entry)) {
          cache.Insert(fp, version, scores.data(), 1, 0, false);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ScoreCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 32u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * 5000);
}

}  // namespace
}  // namespace dnlr

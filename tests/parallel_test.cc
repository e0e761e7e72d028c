#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/mlp.h"
#include "nn/scorer.h"
#include "prune/magnitude.h"
#include "serve/engine.h"
#include "serve/ladder.h"

namespace dnlr {
namespace {

using common::ThreadPool;

// ---------------------------------------------------------------------------
// ThreadPool semantics.

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  uint32_t calls = 0;
  pool.ParallelFor(10, [&](uint32_t chunk, uint64_t begin, uint64_t end) {
    ++calls;
    EXPECT_EQ(chunk, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, ZeroThreadsMeansOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](uint32_t, uint64_t, uint64_t) {
    FAIL() << "body must not run for an empty range";
  });
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const uint64_t count : {1u, 3u, 4u, 5u, 7u, 100u, 1000u}) {
    std::vector<std::atomic<uint32_t>> hits(count);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(count, [&](uint32_t chunk, uint64_t begin, uint64_t end) {
      EXPECT_LT(chunk, pool.num_threads());
      EXPECT_LE(begin, end);
      EXPECT_LE(end, count);
      for (uint64_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "index " << i << " of " << count;
    }
  }
}

TEST(ThreadPoolTest, ChunksAreBalanced) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<uint64_t> sizes;
  pool.ParallelFor(10, [&](uint32_t, uint64_t begin, uint64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    sizes.push_back(end - begin);
  });
  ASSERT_EQ(sizes.size(), 4u);
  uint64_t lo = sizes[0];
  uint64_t hi = sizes[0];
  uint64_t total = 0;
  for (const uint64_t s : sizes) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    total += s;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_LE(hi - lo, 1u);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](uint32_t chunk, uint64_t, uint64_t) {
                         if (chunk == 1) {
                           throw std::runtime_error("chunk failure");
                         }
                       }),
      std::runtime_error);
  // The join is exception-safe: the pool keeps working afterwards.
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, [&](uint32_t, uint64_t begin, uint64_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100u);
}

// The ServingEngine scenario: several worker threads issue ParallelFor on
// one shared pool at once. Each call must see its own chunk indices (so
// per-chunk scratch is exclusive within the call) and join only its own
// chunks — no deadlock, no cross-call scratch interleaving.
TEST(ThreadPoolTest, ConcurrentCallersDontDeadlockOrInterleaveScratch) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr uint64_t kCount = 257;

  std::vector<std::thread> callers;
  std::vector<uint64_t> totals(kCallers, 0);
  for (int caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&, caller] {
      for (int round = 0; round < kRounds; ++round) {
        // Per-call scratch: one slot per chunk, plus an occupancy flag that
        // trips if two bodies of the SAME call ever share a chunk index.
        std::vector<uint64_t> scratch(pool.num_threads(), 0);
        std::vector<std::atomic<int>> occupied(pool.num_threads());
        for (auto& o : occupied) o.store(0);
        pool.ParallelFor(
            kCount, [&](uint32_t chunk, uint64_t begin, uint64_t end) {
              ASSERT_EQ(occupied[chunk].fetch_add(1), 0)
                  << "chunk scratch " << chunk << " used concurrently";
              for (uint64_t i = begin; i < end; ++i) scratch[chunk] += i;
              occupied[chunk].fetch_sub(1);
            });
        uint64_t sum = 0;
        for (const uint64_t s : scratch) sum += s;
        totals[caller] += sum;
      }
    });
  }
  for (auto& t : callers) t.join();
  const uint64_t expected =
      static_cast<uint64_t>(kRounds) * (kCount * (kCount - 1) / 2);
  for (int caller = 0; caller < kCallers; ++caller) {
    EXPECT_EQ(totals[caller], expected) << "caller " << caller;
  }
}

// Scheduling invariants under concurrent callers, asserted through the
// pool's own counters: every queued chunk runs exactly once, wake-ups are
// targeted (never a thundering-herd broadcast), and workers woken without
// work are bounded by the notifies that woke them.
TEST(ThreadPoolTest, StatsProveTargetedWakeupsAndExactExecution) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  constexpr uint64_t kCount = 300;  // >= threads, so num_chunks == threads

  std::vector<std::thread> callers;
  std::atomic<uint32_t> chunk_over_runs{0};
  for (int caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        // Per-call execution counters: a chunk index running twice within
        // one call means a task was double-popped or double-queued.
        std::vector<std::atomic<uint32_t>> runs(pool.num_threads());
        for (auto& r : runs) r.store(0);
        pool.ParallelFor(kCount, [&](uint32_t chunk, uint64_t, uint64_t) {
          // Relaxed: test counter; the join orders the final reads.
          runs[chunk].fetch_add(1, std::memory_order_relaxed);
        });
        for (uint32_t c = 0; c < pool.num_threads(); ++c) {
          if (runs[c].load(std::memory_order_relaxed) != 1) {
            // Relaxed: test counter aggregated after the threads join.
            chunk_over_runs.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(chunk_over_runs.load(std::memory_order_relaxed), 0u);

  const ThreadPool::Stats stats = pool.GetStats();
  // Workers run exactly the queued chunks: each of the kCallers * kRounds
  // calls queues (num_chunks - 1) tasks and runs chunk 0 inline.
  const uint64_t queued = static_cast<uint64_t>(kCallers) * kRounds *
                          (pool.num_threads() - 1);
  EXPECT_EQ(stats.tasks_run, queued);
  // Targeted notify: at most one wake-up per queued task ever, which is
  // exactly the "no NotifyAll herd" guarantee (a broadcast would charge
  // num_workers notifies per enqueue).
  EXPECT_LE(stats.notifies, queued);
  // A worker that wakes to an already-drained queue re-waits; each such
  // empty wake-up consumed one targeted notify, so the spurious total is
  // bounded by the notifies issued — workers never wake uncommanded.
  EXPECT_LE(stats.empty_wakeups, stats.notifies);
}

// ---------------------------------------------------------------------------
// Neural scorers: pool chunking preserves scores bitwise.

std::vector<float> RandomDocs(uint32_t count, uint32_t stride, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> docs(static_cast<size_t>(count) * stride);
  for (float& v : docs) v = static_cast<float>(rng.Normal());
  return docs;
}

TEST(ParallelNeuralScorerTest, DenseBitwiseEqualsSerial) {
  const uint32_t stride = 20;
  const nn::Mlp mlp(predict::Architecture(stride, {16, 8}), 3);
  // 130 docs at batch 64: two full batches plus a ragged 2-doc tail.
  for (const uint32_t count : {130u, 700u}) {
    const std::vector<float> docs = RandomDocs(count, stride, count);
    const nn::NeuralScorer serial(mlp, nullptr);
    std::vector<float> expected(count);
    serial.Score(docs.data(), count, stride, expected.data());

    for (const uint32_t threads : {3u, 8u}) {
      ThreadPool pool(threads);
      nn::NeuralScorerConfig config;
      config.pool = &pool;
      const nn::NeuralScorer parallel(mlp, nullptr, config);
      std::vector<float> actual(count, -123.0f);
      parallel.Score(docs.data(), count, stride, actual.data());
      ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                            count * sizeof(float)),
                0)
          << "count " << count << " threads " << threads;
    }
  }
}

// min_parallel_docs straddle: a call below the crossover stays serial (the
// pool runs no tasks), a call above fans out — identical scores both sides.
TEST(ParallelNeuralScorerTest, CrossoverDocsStraddle) {
  const uint32_t stride = 20;
  const nn::Mlp mlp(predict::Architecture(stride, {16, 8}), 3);
  const nn::NeuralScorer reference(mlp, nullptr);

  ThreadPool pool(3);
  nn::NeuralScorerConfig config;
  config.pool = &pool;
  config.min_parallel_docs = 256;
  const nn::NeuralScorer gated(mlp, nullptr, config);

  struct Case {
    uint32_t count;
    bool expect_parallel;
  };
  // 200 docs = 4 batches but below the 256-doc crossover; 256 is exactly
  // at it; 700 is far above.
  for (const Case c : {Case{200, false}, Case{256, true}, Case{700, true}}) {
    const std::vector<float> docs = RandomDocs(c.count, stride, c.count);
    std::vector<float> expected(c.count);
    reference.Score(docs.data(), c.count, stride, expected.data());

    const uint64_t tasks_before = pool.GetStats().tasks_run;
    std::vector<float> actual(c.count, -123.0f);
    gated.Score(docs.data(), c.count, stride, actual.data());
    const uint64_t tasks_after = pool.GetStats().tasks_run;

    EXPECT_EQ(tasks_after > tasks_before, c.expect_parallel)
        << "count " << c.count << ": wrong side of the crossover";
    ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                          c.count * sizeof(float)),
              0)
        << "count " << c.count;
  }
}

TEST(ParallelNeuralScorerTest, HybridBitwiseEqualsSerial) {
  const uint32_t stride = 24;
  nn::Mlp mlp(predict::Architecture(stride, {32, 8}), 4);
  nn::WeightMasks masks = prune::MakeDenseMasks(mlp);
  prune::LevelPruneLayer(&mlp, 0, 0.9, &masks);

  const uint32_t count = 300;
  const std::vector<float> docs = RandomDocs(count, stride, 11);
  const nn::HybridNeuralScorer serial(mlp, nullptr);
  std::vector<float> expected(count);
  serial.Score(docs.data(), count, stride, expected.data());

  ThreadPool pool(3);
  nn::NeuralScorerConfig config;
  config.pool = &pool;
  const nn::HybridNeuralScorer parallel(mlp, nullptr, config);
  std::vector<float> actual(count, -123.0f);
  parallel.Score(docs.data(), count, stride, actual.data());
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        count * sizeof(float)),
            0);
}

// One scorer's packed weights are shared read-only by every thread that
// scores through it: four callers racing Score on one pooled hybrid scorer
// (their batches also fan out over the pool) all get the serial scores.
TEST(ParallelNeuralScorerTest, ConcurrentCallersShareOnePackedScorer) {
  const uint32_t stride = 24;
  nn::Mlp mlp(predict::Architecture(stride, {80, 80, 8}), 5);
  nn::WeightMasks masks = prune::MakeDenseMasks(mlp);
  prune::LevelPruneLayer(&mlp, 0, 0.9, &masks);

  const uint32_t count = 300;
  const std::vector<float> docs = RandomDocs(count, stride, 12);
  const nn::HybridNeuralScorer serial(mlp, nullptr);
  std::vector<float> expected(count);
  serial.Score(docs.data(), count, stride, expected.data());

  ThreadPool pool(3);
  nn::NeuralScorerConfig config;
  config.pool = &pool;
  const nn::HybridNeuralScorer shared(mlp, nullptr, config);
  constexpr int kCallers = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<float>> actual(
      kCallers, std::vector<float>(count, -123.0f));
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        shared.Score(docs.data(), count, stride, actual[t].data());
        mismatches[t] += std::memcmp(expected.data(), actual[t].data(),
                                     count * sizeof(float)) != 0;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "caller " << t;
  }
}

// ---------------------------------------------------------------------------
// Integration: ServingEngine workers driving pool-backed rungs concurrently.

TEST(ParallelServingTest, EngineWorkersSharePoolWithoutDeadlock) {
  const uint32_t stride = 16;
  const nn::Mlp mlp(predict::Architecture(stride, {12, 6}), 5);

  ThreadPool pool(2);
  nn::NeuralScorerConfig config;
  config.pool = &pool;
  const nn::NeuralScorer scorer(mlp, nullptr, config);
  const serve::InfallibleScorerAdapter adapter(&scorer);

  serve::DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("dense", &adapter, 0.01).ok());

  serve::ServingConfig sc;
  sc.num_workers = 4;
  sc.queue_capacity = 256;
  serve::ServingEngine engine(&ladder, sc);

  // Every engine worker issues pool-chunked Score calls at once; all must
  // complete (no deadlock) with the serial scorer's exact scores.
  const uint32_t count = 200;
  const std::vector<float> docs = RandomDocs(count, stride, 31);
  const nn::NeuralScorer reference(mlp, nullptr);
  std::vector<float> expected(count);
  reference.Score(docs.data(), count, stride, expected.data());

  std::vector<std::future<serve::ServeResponse>> inflight;
  for (int r = 0; r < 32; ++r) {
    serve::ServeRequest request;
    request.docs = docs.data();
    request.count = count;
    request.stride = stride;
    inflight.push_back(engine.Submit(request));
  }
  for (auto& future : inflight) {
    const serve::ServeResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.scores.size(), count);
    ASSERT_EQ(std::memcmp(expected.data(), response.scores.data(),
                          count * sizeof(float)),
              0);
  }
  engine.Stop();
}

}  // namespace
}  // namespace dnlr

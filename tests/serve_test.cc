#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "bundle/bundle.h"
#include "bundle/mapped_bundle.h"
#include "common/clock.h"
#include "common/rng.h"
#include "forest/quickscorer.h"
#include "gbdt/ensemble.h"
#include "nn/scorer.h"
#include "serve/deadline.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/ladder.h"
#include "serve/latency.h"
#include "serve/servable.h"

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

/// Infallible test double scoring every document with a constant, so tests
/// can tell which rung answered from the scores alone.
class ConstantScorer : public forest::DocumentScorer {
 public:
  explicit ConstantScorer(float value) : value_(value) {}
  std::string_view name() const override { return "constant"; }
  void Score(const float*, uint32_t count, uint32_t, float* out) const override {
    for (uint32_t i = 0; i < count; ++i) out[i] = value_;
  }

 private:
  float value_;
};

/// Fallible test double that fails its first `fail_first` calls with a
/// transient Internal status, then scores with a constant.
class FlakyScorer : public FallibleScorer {
 public:
  FlakyScorer(uint32_t fail_first, float value)
      : fail_first_(fail_first), value_(value) {}

  std::string_view name() const override { return "flaky"; }

  Status TryScore(const float*, uint32_t count, uint32_t,
                  float* out) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) < fail_first_) {
      return Status::Internal("flaky: injected failure");
    }
    for (uint32_t i = 0; i < count; ++i) out[i] = value_;
    return Status::Ok();
  }

  uint32_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  uint32_t fail_first_;
  float value_;
  mutable std::atomic<uint32_t> calls_{0};
};

/// Fallible test double that blocks inside TryScore until released, so tests
/// can hold a worker busy and observe queue behaviour deterministically.
class GatedScorer : public FallibleScorer {
 public:
  std::string_view name() const override { return "gated"; }

  Status TryScore(const float*, uint32_t count, uint32_t,
                  float* out) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    for (uint32_t i = 0; i < count; ++i) out[i] = 1.0f;
    return Status::Ok();
  }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ > 0; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable uint32_t entered_ = 0;
  mutable bool open_ = false;
};

// ---------------------------------------------------------------------------
// Deadline math.

TEST(DeadlineTest, DefaultIsInfinite) {
  FakeClock clock;
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired(clock));
  clock.AdvanceMicros(1u << 30);
  EXPECT_FALSE(d.Expired(clock));
}

TEST(DeadlineTest, ZeroBudgetIsBornExpired) {
  FakeClock clock;
  const Deadline d = Deadline::AfterMicros(clock, 0);
  EXPECT_TRUE(d.Expired(clock));
  EXPECT_LE(d.RemainingMicros(clock), 0);
}

TEST(DeadlineTest, RemainingCountsDownAndGoesNegative) {
  FakeClock clock;
  clock.AdvanceMicros(500);
  const Deadline d = Deadline::AfterMicros(clock, 100);
  EXPECT_EQ(d.RemainingMicros(clock), 100);
  clock.AdvanceMicros(60);
  EXPECT_EQ(d.RemainingMicros(clock), 40);
  EXPECT_FALSE(d.Expired(clock));
  clock.AdvanceMicros(60);
  EXPECT_EQ(d.RemainingMicros(clock), -20);
  EXPECT_TRUE(d.Expired(clock));
}

TEST(DeadlineTest, HugeBudgetSaturatesToInfinite) {
  FakeClock clock;
  clock.AdvanceMicros(123);
  const Deadline d =
      Deadline::AfterMicros(clock, std::numeric_limits<uint64_t>::max() - 10);
  EXPECT_TRUE(d.IsInfinite());
}

// ---------------------------------------------------------------------------
// Ladder construction and rung selection.

TEST(LadderTest, RejectsBadRungs) {
  ConstantScorer inner(1.0f);
  InfallibleScorerAdapter a(&inner);
  DegradationLadder ladder;
  EXPECT_EQ(ladder.AddRung("null", nullptr, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ladder.AddRung("nan", &a, std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ladder.AddRung("negative", &a, -1.0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ladder.AddRung("strong", &a, 2.0).ok());
  // Rungs must be strongest (most expensive) first.
  EXPECT_EQ(ladder.AddRung("more-expensive", &a, 3.0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ladder.AddRung("weak", &a, 1.0).ok());
  EXPECT_EQ(ladder.num_rungs(), 2u);
}

TEST(LadderTest, PickRungChoosesStrongestThatFits) {
  ConstantScorer inner(1.0f);
  InfallibleScorerAdapter a(&inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("strong", &a, 10.0).ok());
  ASSERT_TRUE(ladder.AddRung("mid", &a, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("floor", &a, 0.5).ok());

  // 10 docs, safety 1.0: costs are 100 / 20 / 5 micros.
  EXPECT_EQ(ladder.PickRung(200.0, 10, 1.0), 0);
  EXPECT_EQ(ladder.PickRung(50.0, 10, 1.0), 1);
  EXPECT_EQ(ladder.PickRung(6.0, 10, 1.0), 2);
  EXPECT_EQ(ladder.PickRung(1.0, 10, 1.0), -1);
  // Safety factor scales the predicted cost.
  EXPECT_EQ(ladder.PickRung(100.0, 10, 2.0), 1);
  // The availability veto skips quarantined rungs.
  EXPECT_EQ(ladder.PickRung(200.0, 10, 1.0, [](size_t i) { return i != 0; }),
            1);
}

// ---------------------------------------------------------------------------
// Fault injection determinism.

TEST(FaultInjectionTest, SameSeedSameSchedule) {
  const std::vector<float> docs = MakeDocs();
  std::vector<float> out(kDocs);
  ConstantScorer inner(1.0f);
  FaultInjectionConfig config;
  config.transient_fault_probability = 0.3;
  config.non_finite_probability = 0.2;
  config.seed = 7;

  FakeClock clock_a, clock_b;
  FaultInjectingScorer a(&inner, config, &clock_a);
  FaultInjectingScorer b(&inner, config, &clock_b);
  std::vector<bool> faults_a, faults_b;
  for (int i = 0; i < 200; ++i) {
    faults_a.push_back(!a.TryScore(docs.data(), kDocs, kStride, out.data()).ok());
    faults_b.push_back(!b.TryScore(docs.data(), kDocs, kStride, out.data()).ok());
  }
  EXPECT_EQ(faults_a, faults_b);
  EXPECT_EQ(a.transient_faults_injected(), b.transient_faults_injected());
  EXPECT_EQ(a.batches_poisoned(), b.batches_poisoned());
  EXPECT_GT(a.transient_faults_injected(), 0u);
  EXPECT_GT(a.batches_poisoned(), 0u);
}

TEST(FaultInjectionTest, PoisonProducesNonFinite) {
  const std::vector<float> docs = MakeDocs();
  std::vector<float> out(kDocs);
  ConstantScorer inner(1.0f);
  FaultInjectionConfig config;
  config.non_finite_probability = 1.0;
  FakeClock clock;
  FaultInjectingScorer faulty(&inner, config, &clock);
  ASSERT_TRUE(faulty.TryScore(docs.data(), kDocs, kStride, out.data()).ok());
  bool any_non_finite = false;
  for (const float s : out) any_non_finite |= !std::isfinite(s);
  EXPECT_TRUE(any_non_finite);
  EXPECT_EQ(faulty.batches_poisoned(), 1u);
}

TEST(FaultInjectionTest, SpikeAdvancesClock) {
  const std::vector<float> docs = MakeDocs();
  std::vector<float> out(kDocs);
  ConstantScorer inner(1.0f);
  FaultInjectionConfig config;
  config.latency_spike_probability = 1.0;
  config.spike_micros = 777;
  FakeClock clock;
  FaultInjectingScorer faulty(&inner, config, &clock);
  faulty.Score(docs.data(), kDocs, kStride, out.data());
  EXPECT_EQ(clock.NowMicros(), 777u);
  EXPECT_EQ(faulty.spikes_injected(), 1u);
}

TEST(FaultInjectionTest, BurstModeIsSeededAndRunsExactLengths) {
  const std::vector<float> docs = MakeDocs();
  std::vector<float> out(kDocs);
  ConstantScorer inner(1.0f);
  FaultInjectionConfig config;
  config.burst_trigger_probability = 0.05;
  config.burst_length = 7;
  config.seed = 123;

  auto run = [&](FakeClock* clock, uint64_t* burst_batches) {
    FaultInjectingScorer faulty(&inner, config, clock);
    std::vector<bool> fails;
    for (int i = 0; i < 400; ++i) {
      fails.push_back(
          !faulty.TryScore(docs.data(), kDocs, kStride, out.data()).ok());
    }
    *burst_batches = faulty.burst_batches_injected();
    return fails;
  };

  FakeClock clock_a, clock_b;
  uint64_t bursts_a = 0, bursts_b = 0;
  const std::vector<bool> fails_a = run(&clock_a, &bursts_a);
  const std::vector<bool> fails_b = run(&clock_b, &bursts_b);
  EXPECT_EQ(fails_a, fails_b);  // one seed reproduces the outage schedule
  EXPECT_EQ(bursts_a, bursts_b);
  EXPECT_GT(bursts_a, 0u);

  // With no i.i.d. faults configured, every failure is a burst batch and
  // every maximal failure run is a whole number of back-to-back bursts.
  uint64_t failures = 0;
  size_t run_length = 0;
  for (size_t i = 0; i <= fails_a.size(); ++i) {
    if (i < fails_a.size() && fails_a[i]) {
      ++failures;
      ++run_length;
    } else if (run_length > 0) {
      EXPECT_EQ(run_length % config.burst_length, 0u) << "ending at " << i;
      run_length = 0;
    }
  }
  EXPECT_EQ(failures, bursts_a);
}

TEST(FaultInjectionTest, SharedBurstStateCorrelatesInjectors) {
  const std::vector<float> docs = MakeDocs();
  std::vector<float> out(kDocs);
  ConstantScorer inner(1.0f);
  FaultInjectionConfig config;  // no i.i.d. faults: bursts only
  auto burst = std::make_shared<FaultBurstState>(
      /*trigger_probability=*/0.03, /*length=*/10, /*seed=*/99);

  // Two rungs of one shard share the outage domain.
  FakeClock clock;
  FaultInjectingScorer rung_a(&inner, config, burst, &clock);
  FaultInjectingScorer rung_b(&inner, config, burst, &clock);
  std::vector<bool> combined;  // strict alternation: a, b, a, b, ...
  for (int i = 0; i < 300; ++i) {
    combined.push_back(
        !rung_a.TryScore(docs.data(), kDocs, kStride, out.data()).ok());
    combined.push_back(
        !rung_b.TryScore(docs.data(), kDocs, kStride, out.data()).ok());
  }

  // The shared schedule spans both injectors: in call order, maximal
  // failure runs are whole bursts, so any burst of length >= 2 takes BOTH
  // rungs down together — the correlated outage i.i.d. faults cannot model.
  size_t run_length = 0;
  for (size_t i = 0; i <= combined.size(); ++i) {
    if (i < combined.size() && combined[i]) {
      ++run_length;
    } else if (run_length > 0) {
      // The loop may end mid-burst; only completed runs must be whole
      // bursts.
      if (i < combined.size()) {
        EXPECT_EQ(run_length % 10, 0u) << "ending at " << i;
      }
      run_length = 0;
    }
  }
  EXPECT_GT(burst->bursts_triggered(), 0u);
  EXPECT_GT(rung_a.burst_batches_injected(), 0u);
  EXPECT_GT(rung_b.burst_batches_injected(), 0u);
  // Every burst batch landed on one of the two rungs; the final burst may
  // have been truncated by the end of the loop.
  const uint64_t total_burst_batches =
      rung_a.burst_batches_injected() + rung_b.burst_batches_injected();
  EXPECT_LE(total_burst_batches, burst->bursts_triggered() * 10);
  EXPECT_GT(total_burst_batches, (burst->bursts_triggered() - 1) * 10);
}

TEST(FaultInjectionTest, EnablingBurstsDoesNotShiftIidSchedule) {
  const std::vector<float> docs = MakeDocs();
  std::vector<float> out(kDocs);
  ConstantScorer inner(1.0f);
  FaultInjectionConfig iid_only;
  iid_only.transient_fault_probability = 0.25;
  iid_only.seed = 7;
  FaultInjectionConfig with_bursts = iid_only;
  with_bursts.burst_trigger_probability = 0.05;
  with_bursts.burst_length = 5;

  FakeClock clock_a, clock_b;
  FaultInjectingScorer a(&inner, iid_only, &clock_a);
  FaultInjectingScorer b(&inner, with_bursts, &clock_b);
  uint64_t extra = 0;
  for (int i = 0; i < 400; ++i) {
    const bool fail_a =
        !a.TryScore(docs.data(), kDocs, kStride, out.data()).ok();
    const bool fail_b =
        !b.TryScore(docs.data(), kDocs, kStride, out.data()).ok();
    // Bursts only ADD failures on top of the identical i.i.d. stream.
    if (fail_a) {
      EXPECT_TRUE(fail_b) << "call " << i;
    }
    extra += fail_b && !fail_a;
  }
  // Every extra failure is a burst batch (a burst batch can coincide with
  // an i.i.d. failure, so this is <=, not ==).
  EXPECT_GT(extra, 0u);
  EXPECT_LE(extra, b.burst_batches_injected());
}

// ---------------------------------------------------------------------------
// Engine: rung selection, degradation, shedding.

struct TwoRungFixture {
  ConstantScorer strong_inner{2.0f};
  ConstantScorer floor_inner{1.0f};
  InfallibleScorerAdapter strong{&strong_inner};
  InfallibleScorerAdapter floor{&floor_inner};
  DegradationLadder ladder;

  TwoRungFixture(double strong_cost = 10.0, double floor_cost = 1.0) {
    EXPECT_TRUE(ladder.AddRung("strong", &strong, strong_cost).ok());
    EXPECT_TRUE(ladder.AddRung("floor", &floor, floor_cost).ok());
  }
};

ServingConfig OneWorkerConfig() {
  ServingConfig config;
  config.num_workers = 1;
  config.safety_factor = 1.0;
  return config;
}

TEST(ServingEngineTest, AmpleBudgetServesStrongestRung) {
  const std::vector<float> docs = MakeDocs();
  FakeClock clock;
  TwoRungFixture fix;
  ServingEngine engine(&fix.ladder, OneWorkerConfig(), &clock);

  const ServeResponse resp =
      engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, 0);
  EXPECT_EQ(resp.rung_name, "strong");
  EXPECT_FALSE(resp.degraded);
  ASSERT_EQ(resp.scores.size(), kDocs);
  for (const float s : resp.scores) EXPECT_EQ(s, 2.0f);
  EXPECT_EQ(engine.counters().Snapshot().served_by_rung[0], 1u);
}

TEST(ServingEngineTest, TightBudgetFallsToFloorRung) {
  const std::vector<float> docs = MakeDocs();
  FakeClock clock;
  TwoRungFixture fix;  // strong = 80 us for 8 docs, floor = 8 us.
  ServingEngine engine(&fix.ladder, OneWorkerConfig(), &clock);

  const ServeResponse resp = engine.ScoreSync(docs.data(), kDocs, kStride, 20);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, 1);
  EXPECT_EQ(resp.rung_name, "floor");
  for (const float s : resp.scores) EXPECT_EQ(s, 1.0f);
}

TEST(ServingEngineTest, ExpiredDeadlineIsShedNotServed) {
  const std::vector<float> docs = MakeDocs();
  FakeClock clock;
  TwoRungFixture fix;
  ServingEngine engine(&fix.ladder, OneWorkerConfig(), &clock);

  const ServeResponse resp = engine.ScoreSync(docs.data(), kDocs, kStride, 0);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resp.rung, -1);
  EXPECT_TRUE(resp.scores.empty());
  EXPECT_GE(engine.counters().Snapshot().shed_deadline, 1u);
}

TEST(ServingEngineTest, BudgetBelowCheapestRungIsShedNotHung) {
  const std::vector<float> docs = MakeDocs();
  FakeClock clock;
  TwoRungFixture fix;  // floor costs 8 us for 8 docs; offer 4.
  ServingEngine engine(&fix.ladder, OneWorkerConfig(), &clock);

  const ServeResponse resp = engine.ScoreSync(docs.data(), kDocs, kStride, 4);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resp.rung, -1);
  EXPECT_GE(engine.counters().Snapshot().shed_deadline, 1u);
}

TEST(ServingEngineTest, NullDocsRejectedImmediately) {
  FakeClock clock;
  TwoRungFixture fix;
  ServingEngine engine(&fix.ladder, OneWorkerConfig(), &clock);
  ServeRequest request;
  request.docs = nullptr;
  request.count = 3;
  request.stride = kStride;
  EXPECT_EQ(engine.Submit(request).get().status.code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, StoppedEngineRejectsWork) {
  const std::vector<float> docs = MakeDocs();
  FakeClock clock;
  TwoRungFixture fix;
  ServingEngine engine(&fix.ladder, OneWorkerConfig(), &clock);
  engine.Stop();
  ServeRequest request;
  request.docs = docs.data();
  request.count = kDocs;
  request.stride = kStride;
  EXPECT_EQ(engine.Submit(request).get().status.code(),
            StatusCode::kResourceExhausted);
  // Shed-by-cause: a stopped engine tags shed_stopped, never
  // shed_queue_full — health scoring must not read shutdown as saturation.
  const ServeCountersSnapshot counters = engine.counters().Snapshot();
  EXPECT_EQ(counters.shed_stopped, 1u);
  EXPECT_EQ(counters.shed_queue_full, 0u);
}

TEST(ServingEngineTest, FullQueueShedsWithResourceExhausted) {
  const std::vector<float> docs = MakeDocs();
  GatedScorer gated;
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("gated", &gated, 1.0).ok());
  ServingConfig config = OneWorkerConfig();
  config.queue_capacity = 1;
  FakeClock clock;
  ServingEngine engine(&ladder, config, &clock);

  ServeRequest request;
  request.docs = docs.data();
  request.count = kDocs;
  request.stride = kStride;

  // First request occupies the worker (blocked inside the gate)...
  std::future<ServeResponse> first = engine.Submit(request);
  gated.WaitUntilEntered();
  // ...second fills the queue, third must shed immediately.
  std::future<ServeResponse> second = engine.Submit(request);
  std::future<ServeResponse> third = engine.Submit(request);
  const ServeResponse shed = third.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(engine.counters().Snapshot().shed_queue_full, 1u);
  // The converse of the shed-by-cause split: saturation is not shutdown.
  EXPECT_EQ(engine.counters().Snapshot().shed_stopped, 0u);

  gated.Open();
  EXPECT_TRUE(first.get().status.ok());
  EXPECT_TRUE(second.get().status.ok());
}

// ---------------------------------------------------------------------------
// Engine: faults, retries, timeouts, circuit breaker.

TEST(ServingEngineTest, TransientFaultIsRetriedThenSucceeds) {
  const std::vector<float> docs = MakeDocs();
  FlakyScorer flaky(1, 3.0f);  // first call fails, second succeeds
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("flaky", &flaky, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("floor", &floor, 1.0).ok());
  FakeClock clock;
  ServingEngine engine(&ladder, OneWorkerConfig(), &clock);

  const ServeResponse resp =
      engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, 0);  // retry kept the request on the strong rung
  EXPECT_GE(resp.retries, 1u);
  for (const float s : resp.scores) EXPECT_EQ(s, 3.0f);
  const ServeCountersSnapshot counters = engine.counters().Snapshot();
  EXPECT_GE(counters.retries, 1u);
  EXPECT_GE(counters.transient_faults, 1u);
  EXPECT_EQ(flaky.calls(), 2u);
}

TEST(ServingEngineTest, NonFiniteScoresNeverReachTheResponse) {
  const std::vector<float> docs = MakeDocs();
  ConstantScorer strong_inner(2.0f);
  FaultInjectionConfig fic;
  fic.non_finite_probability = 1.0;  // top rung always emits NaN/Inf
  FakeClock clock;
  FaultInjectingScorer poisoned(&strong_inner, fic, &clock);
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("poisoned", &poisoned, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("floor", &floor, 1.0).ok());
  ServingEngine engine(&ladder, OneWorkerConfig(), &clock);

  const ServeResponse resp =
      engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, 1);  // fell past the poisoned rung
  EXPECT_TRUE(resp.degraded);
  for (const float s : resp.scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_EQ(s, 1.0f);
  }
  EXPECT_GE(engine.counters().Snapshot().non_finite_batches, 1u);
}

TEST(ServingEngineTest, StuckRungTimesOutAndOpensCircuit) {
  const std::vector<float> docs = MakeDocs();
  ConstantScorer strong_inner(2.0f);
  FaultInjectionConfig fic;
  fic.latency_spike_probability = 1.0;
  fic.spike_micros = 10'000;  // every call blows way past the deadline
  FakeClock clock;
  FaultInjectingScorer stuck(&strong_inner, fic, &clock);
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("stuck", &stuck, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("floor", &floor, 1.0).ok());
  ServingConfig config = OneWorkerConfig();
  config.max_attempts_per_rung = 1;
  config.circuit_failure_threshold = 2;
  ServingEngine engine(&ladder, config, &clock);

  // Each of these picks the stuck rung, times out on it (fake time jumps
  // 10 ms), and has no budget left for the floor: DeadlineExceeded, but the
  // call returns — the fake clock proves no wall-clock hang.
  for (int i = 0; i < 2; ++i) {
    const ServeResponse resp =
        engine.ScoreSync(docs.data(), kDocs, kStride, 500);
    EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  }
  const ServeCountersSnapshot counters = engine.counters().Snapshot();
  EXPECT_GE(counters.timeouts, 2u);
  EXPECT_EQ(engine.rung_state(0), CircuitState::kOpen);

  // With the stuck rung quarantined, the same budget is now served by the
  // floor within the deadline.
  const ServeResponse resp = engine.ScoreSync(docs.data(), kDocs, kStride, 500);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, 1);
  EXPECT_TRUE(resp.degraded);
}

TEST(ServingEngineTest, HalfOpenProbeReclosesRecoveredRung) {
  const std::vector<float> docs = MakeDocs();
  FlakyScorer flaky(2, 3.0f);  // fails exactly twice, healthy after
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("flaky", &flaky, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("floor", &floor, 1.0).ok());
  ServingConfig config = OneWorkerConfig();
  config.max_attempts_per_rung = 1;  // no in-request retry: faults degrade
  config.circuit_failure_threshold = 2;
  config.circuit_open_micros = 1'000;
  FakeClock clock;
  ServingEngine engine(&ladder, config, &clock);

  // Two faulting requests trip the breaker; both still answer via the floor.
  for (int i = 0; i < 2; ++i) {
    const ServeResponse resp =
        engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.rung, 1);
    EXPECT_TRUE(resp.degraded);
  }
  EXPECT_EQ(engine.rung_state(0), CircuitState::kOpen);

  // While quarantined, requests do not touch the flaky rung at all.
  EXPECT_EQ(engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000).rung, 1);
  EXPECT_EQ(flaky.calls(), 2u);

  // After the open window a single probe is admitted; it succeeds and the
  // breaker re-closes, restoring full-strength serving.
  clock.AdvanceMicros(2'000);
  const ServeResponse probe =
      engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_EQ(probe.rung, 0);
  EXPECT_EQ(engine.rung_state(0), CircuitState::kClosed);
  const ServeCountersSnapshot counters = engine.counters().Snapshot();
  EXPECT_GE(counters.circuit_opens, 1u);
  EXPECT_GE(counters.circuit_probes, 1u);
  EXPECT_GE(counters.circuit_closes, 1u);
}

// ---------------------------------------------------------------------------
// Latency percentile helper.

TEST(LatencyTest, PercentileNearestRank) {
  std::vector<double> samples{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(Percentile(samples, 50), 50.0);
  EXPECT_EQ(Percentile(samples, 95), 100.0);
  EXPECT_EQ(Percentile(samples, 100), 100.0);
  EXPECT_EQ(Percentile({}, 99), 0.0);
  EXPECT_EQ(Percentile({42.0}, 1), 42.0);
}

TEST(LatencyTest, PercentileZeroIsMinimum) {
  EXPECT_EQ(Percentile({30.0, 10.0, 20.0}, 0), 10.0);
  EXPECT_EQ(Percentile({}, 0), 0.0);
}

TEST(LatencyTest, PercentileSingleSampleEveryP) {
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(Percentile({7.5}, p), 7.5) << "p=" << p;
  }
}

TEST(LatencyTest, PercentileDuplicatesAndUnsortedInput) {
  const std::vector<double> samples{5.0, 1.0, 5.0, 5.0, 1.0};
  EXPECT_EQ(Percentile(samples, 0), 1.0);
  EXPECT_EQ(Percentile(samples, 40), 1.0);
  EXPECT_EQ(Percentile(samples, 41), 5.0);
  EXPECT_EQ(Percentile(samples, 100), 5.0);
}

// ---------------------------------------------------------------------------
// Bounded latency histograms: the engine's replacement for the unbounded
// per-rung sample store. Histograms live in the global metrics registry
// (shared by every engine whose ladder uses the same rung names), so all
// assertions are on deltas.

TEST(ServingEngineTest, BoundedHistogramsRecordServedRequests) {
  const std::vector<float> docs = MakeDocs();
  FakeClock clock;
  ConstantScorer strong_inner(2.0f);
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter strong(&strong_inner);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("histo-strong", &strong, 10.0).ok());
  ASSERT_TRUE(ladder.AddRung("histo-floor", &floor, 1.0).ok());
  ServingEngine engine(&ladder, OneWorkerConfig(), &clock);

  const uint64_t strong_before = engine.rung_latency(0).Count();
  const uint64_t floor_before = engine.rung_latency(1).Count();
  const uint64_t queue_before = engine.queue_wait().Count();
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    const ServeResponse resp =
        engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.rung, 0);
  }

  EXPECT_EQ(engine.rung_latency(0).Count(), strong_before + kRequests);
  EXPECT_EQ(engine.rung_latency(1).Count(), floor_before);
  // Every processed request records its queue wait, served or not.
  EXPECT_EQ(engine.queue_wait().Count(), queue_before + kRequests);
}

TEST(ServingEngineTest, RetryBackoffIsRecorded) {
  const std::vector<float> docs = MakeDocs();
  FlakyScorer flaky(1, 3.0f);  // first call fails, second succeeds
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("backoff-flaky", &flaky, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("backoff-floor", &floor, 1.0).ok());
  FakeClock clock;
  ServingEngine engine(&ladder, OneWorkerConfig(), &clock);

  const uint64_t sleeps_before = engine.retry_backoff().Count();
  const ServeResponse resp =
      engine.ScoreSync(docs.data(), kDocs, kStride, 1'000'000);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_GE(resp.retries, 1u);
  EXPECT_EQ(engine.retry_backoff().Count(), sleeps_before + resp.retries);
  EXPECT_GT(engine.retry_backoff().MaxMicros(), 0.0);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: sustained load with a faulty top rung, on the
// real clock and a real worker pool. With 20% transient faults and 10%
// latency spikes on the strongest rung, every request is answered within
// its (generous) deadline, lower rungs absorb the damage, and no non-finite
// score ever reaches a response.

TEST(ServingEngineIntegrationTest, FaultyTopRungNeverMissesDeadlines) {
  const std::vector<float> docs = MakeDocs();
  ConstantScorer strong_inner(3.0f);
  FaultInjectionConfig fic;
  fic.transient_fault_probability = 0.2;
  fic.latency_spike_probability = 0.1;
  fic.spike_micros = 2'000;
  fic.non_finite_probability = 0.05;
  fic.seed = 42;
  FaultInjectingScorer faulty(&strong_inner, fic);  // real clock: real spikes
  ConstantScorer mid_inner(2.0f);
  InfallibleScorerAdapter mid(&mid_inner);
  ConstantScorer floor_inner(1.0f);
  InfallibleScorerAdapter floor(&floor_inner);
  DegradationLadder ladder;
  ASSERT_TRUE(ladder.AddRung("faulty-strong", &faulty, 4.0).ok());
  ASSERT_TRUE(ladder.AddRung("mid", &mid, 2.0).ok());
  ASSERT_TRUE(ladder.AddRung("floor", &floor, 1.0).ok());

  ServingConfig config;
  config.num_workers = 4;
  config.queue_capacity = 256;
  config.circuit_open_micros = 5'000;
  ServingEngine engine(&ladder, config);

  // Deadlines are generous relative to the stub scorers and the 2 ms spikes
  // so the test stays robust under sanitizer slowdowns; the injected faults,
  // not machine speed, are what force degradation.
  constexpr uint64_t kBudgetMicros = 250'000;
  constexpr int kRequests = 200;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ServeRequest request;
    request.docs = docs.data();
    request.count = kDocs;
    request.stride = kStride;
    request.deadline = Deadline::AfterMicros(engine.clock(), kBudgetMicros);
    futures.push_back(engine.Submit(request));
  }

  int answered = 0;
  for (auto& future : futures) {
    const ServeResponse resp = future.get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_LE(resp.total_micros, kBudgetMicros);
    ASSERT_EQ(resp.scores.size(), kDocs);
    for (const float s : resp.scores) ASSERT_TRUE(std::isfinite(s));
    ++answered;
  }
  EXPECT_EQ(answered, kRequests);

  const ServeCountersSnapshot counters = engine.counters().Snapshot();
  EXPECT_EQ(counters.ok, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.deadline_exceeded, 0u);
  // The injected faults must actually have fired and pushed some requests
  // down the ladder.
  EXPECT_GT(faulty.transient_faults_injected() + faulty.batches_poisoned(),
            0u);
  uint64_t served_below_top = 0;
  for (size_t i = 1; i < ladder.num_rungs(); ++i) {
    served_below_top += counters.served_by_rung[i];
  }
  EXPECT_GT(served_below_top, 0u);
}

// ---- One rule per serving decision ---------------------------------------
// Servable, the CLI and the serve benches take each engine choice from one
// shared function; these pin both sides of every threshold and that the
// served rungs use what those functions pick.

/// A 10-input student with one hidden layer whose first `zeros` layer-0
/// weights (of 100) are zero.
nn::Mlp StudentWithZeros(uint32_t zeros) {
  nn::Mlp mlp(predict::Architecture(10, {10}), /*seed=*/3);
  mm::Matrix& weight = mlp.layer(0).weight;
  for (uint32_t i = 0; i < weight.rows() * weight.cols(); ++i) {
    weight.data()[i] = i < zeros ? 0.0f : 0.5f;
  }
  return mlp;
}

/// A right-spine tree over feature 0 with `leaves` leaves.
gbdt::RegressionTree SpineTree(uint32_t leaves) {
  std::vector<gbdt::TreeNode> nodes(leaves - 1);
  std::vector<double> values(leaves);
  for (uint32_t i = 0; i + 1 < leaves; ++i) {
    nodes[i].feature = 0;
    nodes[i].threshold = static_cast<float>(i) * 0.1f - 2.0f;
    nodes[i].left = gbdt::TreeNode::EncodeLeaf(i);
    nodes[i].right = i + 2 < leaves ? static_cast<int32_t>(i + 1)
                                    : gbdt::TreeNode::EncodeLeaf(leaves - 1);
    values[i] = 0.01 * i;
  }
  values[leaves - 1] = 0.01 * (leaves - 1);
  return gbdt::RegressionTree(std::move(nodes), std::move(values));
}

TEST(EngineChoiceTest, StudentGoesHybridAtHalfSparseFirstLayer) {
  const nn::Mlp below = StudentWithZeros(49);
  const nn::Mlp at = StudentWithZeros(50);
  ASSERT_DOUBLE_EQ(below.layer(0).weight.Sparsity(), 0.49);
  ASSERT_DOUBLE_EQ(at.layer(0).weight.Sparsity(), 0.5);
  EXPECT_EQ(nn::MakeStudentScorer(below, nullptr)->name(), "neural-dense");
  EXPECT_EQ(nn::MakeStudentScorer(at, nullptr)->name(),
            "neural-hybrid-sparse");
}

TEST(EngineChoiceTest, ForestGoesWideAbove64Leaves) {
  gbdt::Ensemble narrow(0.0);
  narrow.AddTree(SpineTree(64));
  gbdt::Ensemble wide(0.0);
  wide.AddTree(SpineTree(64));
  wide.AddTree(SpineTree(65));
  EXPECT_EQ(forest::MakeForestScorer(narrow, 1)->name(), "quickscorer");
  EXPECT_EQ(forest::MakeForestScorer(wide, 1)->name(), "wide-quickscorer");
}

TEST(EngineChoiceTest, TeacherSubsetKeepsAQuarterAndNeverReadsPastTheEnd) {
  const auto subset_size = [](uint32_t trees) {
    gbdt::Ensemble teacher(0.5);
    for (uint32_t t = 0; t < trees; ++t) teacher.AddTree(SpineTree(2 + t));
    const gbdt::Ensemble subset = gbdt::TeacherSubset(teacher);
    EXPECT_EQ(subset.base_score(), 0.5);
    for (uint32_t t = 0; t < subset.num_trees(); ++t) {
      EXPECT_EQ(subset.tree(t).num_leaves(), 2 + t);
    }
    return subset.num_trees();
  };
  EXPECT_EQ(subset_size(0), 0u);
  EXPECT_EQ(subset_size(1), 1u);
  EXPECT_EQ(subset_size(7), 1u);
  EXPECT_EQ(subset_size(8), 2u);
  EXPECT_EQ(subset_size(41), 10u);
}

TEST(EngineChoiceTest, ServableRungsUseTheSharedChoices) {
  constexpr uint32_t kFeatures = 10;
  // The teacher needs the wide engine (65 leaves); its subset, the first
  // of its four trees, fits QuickScorer.
  gbdt::Ensemble teacher(0.25);
  teacher.AddTree(SpineTree(10));
  for (int t = 0; t < 3; ++t) teacher.AddTree(SpineTree(65));
  const gbdt::Ensemble subset = gbdt::TeacherSubset(teacher);
  ASSERT_EQ(subset.num_trees(), 1u);
  std::vector<float> mean(kFeatures, 0.1f);
  std::vector<float> stddev(kFeatures, 2.0f);
  const data::ZNormalizer normalizer(mean, stddev);

  for (const uint32_t zeros : {49u, 50u}) {
    const nn::Mlp student = StudentWithZeros(zeros);
    bundle::RungConfig rungs;
    rungs.rungs = {{"student", "student", 4.0},
                   {"teacher", "teacher", 3.0},
                   {"subset", "teacher-subset", 1.0}};
    bundle::ModelBundle pack;
    ASSERT_TRUE(pack.SetTeacher(teacher).ok());
    ASSERT_TRUE(pack.SetStudent(student).ok());
    ASSERT_TRUE(pack.SetNormalizer(normalizer).ok());
    ASSERT_TRUE(pack.SetRungs(rungs).ok());
    auto loaded = bundle::MappedBundle::FromBytes(pack.Serialize());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto servable = Servable::FromBundle(*loaded);
    ASSERT_TRUE(servable.ok()) << servable.status().ToString();
    const DegradationLadder& ladder = (*servable)->ladder();
    ASSERT_EQ(ladder.num_rungs(), 3u);

    const std::unique_ptr<forest::DocumentScorer> expected[3] = {
        nn::MakeStudentScorer(student, &normalizer),
        forest::MakeForestScorer(teacher, kFeatures),
        forest::MakeForestScorer(subset, kFeatures)};
    EXPECT_EQ(expected[0]->name(), zeros < 50 ? "neural-dense"
                                              : "neural-hybrid-sparse");
    EXPECT_EQ(expected[1]->name(), "wide-quickscorer");
    EXPECT_EQ(expected[2]->name(), "quickscorer");

    Rng rng(zeros);
    std::vector<float> docs(16 * kFeatures);
    for (float& value : docs) value = static_cast<float>(rng.Normal());
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(ladder.rung(r).scorer->name(), expected[r]->name());
      std::vector<float> served(16);
      std::vector<float> direct(16);
      ASSERT_TRUE(ladder.rung(r)
                      .scorer
                      ->TryScore(docs.data(), 16, kFeatures, served.data())
                      .ok());
      expected[r]->Score(docs.data(), 16, kFeatures, direct.data());
      EXPECT_EQ(served, direct) << "rung " << r;
    }
  }
}

}  // namespace
}  // namespace dnlr::serve

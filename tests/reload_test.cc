// Hot-reload tests for ServingEngine::SwapModel: sustained scoring load
// across repeated swaps must see zero failed requests and per-response model
// coherence (every response scored end-to-end by exactly one generation), a
// rejected candidate must leave the old model serving, in-flight requests
// must finish on the generation they started with, and swapping a bundle for
// an identical one must be bitwise score-invariant. Runs under the
// `threaded` ctest label so the tsan gate covers the swap/score race.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bundle/bundle.h"
#include "bundle/mapped_bundle.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "gbdt/tree.h"
#include "nn/mlp.h"
#include "predict/architecture.h"
#include "serve/engine.h"
#include "serve/ladder.h"
#include "serve/scorer.h"
#include "serve/servable.h"

namespace dnlr {
namespace {

using serve::DegradationLadder;
using serve::ServeResponse;
using serve::ServingConfig;
using serve::ServingEngine;

constexpr uint64_t kBudgetMicros = 60'000'000;  // never the limiting factor

/// Scores every document with a fixed value, so a response's scores reveal
/// which model generation served it.
class ConstantScorer : public serve::FallibleScorer {
 public:
  explicit ConstantScorer(float value) : value_(value) {}
  std::string_view name() const override { return "constant"; }
  Status TryScore(const float*, uint32_t count, uint32_t,
                  float* out) const override {
    for (uint32_t i = 0; i < count; ++i) out[i] = value_;
    return Status::Ok();
  }

 private:
  float value_;
};

/// Blocks inside TryScore until released — lets a test freeze a request
/// mid-flight, swap the model underneath it, and check which generation the
/// response reports.
class GatedScorer : public serve::FallibleScorer {
 public:
  std::string_view name() const override { return "gated"; }
  Status TryScore(const float*, uint32_t count, uint32_t,
                  float* out) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    for (uint32_t i = 0; i < count; ++i) out[i] = 1.0f;
    return Status::Ok();
  }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool released_ = false;
};

/// A ladder plus the scorers it borrows, owned together; the aliasing
/// shared_ptr mirrors how Servable::LadderHandle pins a model generation.
template <typename Scorer>
struct OwnedLadder {
  std::vector<std::unique_ptr<Scorer>> scorers;
  DegradationLadder ladder;
};

std::shared_ptr<const DegradationLadder> MakeConstantLadder(
    const std::vector<float>& rung_values) {
  auto owner = std::make_shared<OwnedLadder<ConstantScorer>>();
  double cost = 8.0;
  for (const float value : rung_values) {
    owner->scorers.push_back(std::make_unique<ConstantScorer>(value));
    const Status status = owner->ladder.AddRung(
        "rung" + std::to_string(owner->scorers.size() - 1),
        owner->scorers.back().get(), cost);
    EXPECT_TRUE(status.ok()) << status.ToString();
    cost /= 2.0;
  }
  const DegradationLadder* ladder = &owner->ladder;
  return std::shared_ptr<const DegradationLadder>(std::move(owner), ladder);
}

// ---------------------------------------------------------------------------

TEST(ReloadTest, SwapUnderSustainedLoadIsLossless) {
  // Generation parity encodes the expected score: the construction ladder
  // (version 1) scores 1.0, every swap alternates 2.0 / 1.0.
  auto odd_ladder = MakeConstantLadder({1.0f});
  auto even_ladder = MakeConstantLadder({2.0f});

  ServingConfig config;
  config.num_workers = 4;
  config.queue_capacity = 256;
  ServingEngine engine(odd_ladder, config);

  constexpr int kClients = 4;
  constexpr uint32_t kDocs = 8;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> incoherent{0};
  const std::vector<float> docs(kDocs * 2, 0.5f);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const ServeResponse resp =
            engine.ScoreSync(docs.data(), kDocs, 2, kBudgetMicros);
        responses.fetch_add(1, std::memory_order_relaxed);
        if (!resp.status.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Coherence: every score in the response must come from the one
        // generation the response claims — a torn swap would mix values.
        const float expected = resp.model_version % 2 == 1 ? 1.0f : 2.0f;
        for (const float score : resp.scores) {
          if (score != expected) {
            incoherent.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  constexpr uint64_t kSwaps = 25;
  for (uint64_t swap = 0; swap < kSwaps; ++swap) {
    const auto& next = swap % 2 == 0 ? even_ladder : odd_ladder;
    const Status status = engine.SwapModel(next);
    ASSERT_TRUE(status.ok()) << status.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_GT(responses.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_EQ(engine.model_version(), kSwaps + 1);
  const auto counters = engine.counters().Snapshot();
  EXPECT_EQ(counters.swaps_attempted, kSwaps);
  EXPECT_EQ(counters.swaps_completed, kSwaps);
  EXPECT_EQ(counters.swaps_rejected, 0u);
}

TEST(ReloadTest, RejectedCandidateKeepsOldModelServing) {
  ServingConfig config;
  config.num_workers = 1;
  ServingEngine engine(MakeConstantLadder({1.0f}), config);

  const Status status = engine.SwapModel(
      MakeConstantLadder({2.0f}), [](const DegradationLadder&) {
        return Status::FailedPrecondition("golden scores diverged");
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("rejected by validation"),
            std::string::npos);
  EXPECT_NE(status.message().find("golden scores diverged"),
            std::string::npos);

  EXPECT_EQ(engine.model_version(), 1u);
  const std::vector<float> docs(4, 0.0f);
  const ServeResponse resp = engine.ScoreSync(docs.data(), 2, 2, kBudgetMicros);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.model_version, 1u);
  for (const float score : resp.scores) EXPECT_EQ(score, 1.0f);

  const auto counters = engine.counters().Snapshot();
  EXPECT_EQ(counters.swaps_attempted, 1u);
  EXPECT_EQ(counters.swaps_completed, 0u);
  EXPECT_EQ(counters.swaps_rejected, 1u);
}

TEST(ReloadTest, NullAndMismatchedCandidatesRejected) {
  ServingConfig config;
  config.num_workers = 1;
  ServingEngine engine(MakeConstantLadder({1.0f, 0.5f}), config);

  Status status = engine.SwapModel(nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // The breaker array and per-rung counters are shaped by rung count, so a
  // candidate with a different ladder depth cannot be promoted in place.
  status = engine.SwapModel(MakeConstantLadder({2.0f}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rung"), std::string::npos);

  EXPECT_EQ(engine.model_version(), 1u);
  const auto counters = engine.counters().Snapshot();
  EXPECT_EQ(counters.swaps_attempted, 2u);
  EXPECT_EQ(counters.swaps_rejected, 2u);
}

TEST(ReloadTest, InFlightRequestFinishesOnItsGeneration) {
  auto owner = std::make_shared<OwnedLadder<GatedScorer>>();
  owner->scorers.push_back(std::make_unique<GatedScorer>());
  GatedScorer* gate = owner->scorers.back().get();
  ASSERT_TRUE(owner->ladder.AddRung("gated", gate, 1.0).ok());
  const DegradationLadder* ladder = &owner->ladder;

  ServingConfig config;
  config.num_workers = 1;
  ServingEngine engine(
      std::shared_ptr<const DegradationLadder>(std::move(owner), ladder),
      config);

  const std::vector<float> docs(4, 0.0f);
  auto in_flight = std::async(std::launch::async, [&] {
    return engine.ScoreSync(docs.data(), 2, 2, kBudgetMicros);
  });
  gate->WaitUntilEntered();  // the worker is now inside generation 1

  const Status status = engine.SwapModel(MakeConstantLadder({2.0f}));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(engine.model_version(), 2u);

  gate->Release();
  const ServeResponse resp = in_flight.get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  // Scored by the old generation despite the swap completing mid-request.
  EXPECT_EQ(resp.model_version, 1u);
  for (const float score : resp.scores) EXPECT_EQ(score, 1.0f);

  // The next request sees the new generation.
  const ServeResponse next = engine.ScoreSync(docs.data(), 2, 2, kBudgetMicros);
  ASSERT_TRUE(next.status.ok());
  EXPECT_EQ(next.model_version, 2u);
  for (const float score : next.scores) EXPECT_EQ(score, 2.0f);
}

// ---------------------------------------------------------------------------
// Full-stack: bundle -> Servable -> golden-gated swap, bitwise invariant.

gbdt::RegressionTree RandomTree(Rng& rng, uint32_t leaves,
                                uint32_t num_features) {
  if (leaves == 1) {
    return gbdt::RegressionTree({}, {rng.Normal()});
  }
  std::vector<gbdt::TreeNode> nodes;
  std::vector<double> values;
  std::function<int32_t(uint32_t)> build = [&](uint32_t budget) -> int32_t {
    if (budget == 1) {
      values.push_back(rng.Normal());
      return gbdt::TreeNode::EncodeLeaf(
          static_cast<uint32_t>(values.size() - 1));
    }
    const uint32_t left_budget =
        1 + static_cast<uint32_t>(rng.Below(budget - 1));
    const auto index = static_cast<int32_t>(nodes.size());
    nodes.push_back({});
    nodes[index].feature = static_cast<uint32_t>(rng.Below(num_features));
    nodes[index].threshold = static_cast<float>(rng.Normal(0.0, 2.0));
    const int32_t left = build(left_budget);
    nodes[index].left = left;
    const int32_t right = build(budget - left_budget);
    nodes[index].right = right;
    return index;
  };
  build(leaves);
  gbdt::RegressionTree tree(std::move(nodes), std::move(values));
  tree.NormalizeLeafOrder();
  return tree;
}

bundle::ModelBundle MakeServableBundle(uint64_t seed, uint32_t num_features) {
  Rng rng(seed);
  gbdt::Ensemble teacher(rng.Normal());
  for (int t = 0; t < 4; ++t) {
    teacher.AddTree(
        RandomTree(rng, 2 + static_cast<uint32_t>(rng.Below(14)),
                   num_features));
  }
  std::vector<float> mean(num_features);
  std::vector<float> stddev(num_features);
  for (uint32_t f = 0; f < num_features; ++f) {
    mean[f] = static_cast<float>(rng.Normal());
    stddev[f] = 0.5f + static_cast<float>(rng.Uniform());
  }
  bundle::RungConfig rungs;
  rungs.rungs = {{"student", "student", 2.5},
                 {"cascade", "cascade", 1.25},
                 {"floor", "teacher-subset", 0.25}};

  bundle::ModelBundle pack;
  EXPECT_TRUE(pack.SetTeacher(teacher).ok());
  EXPECT_TRUE(
      pack.SetStudent(nn::Mlp(predict::Architecture(num_features, {8, 4}),
                              seed + 1))
          .ok());
  EXPECT_TRUE(
      pack.SetNormalizer(data::ZNormalizer(std::move(mean), std::move(stddev)))
          .ok());
  EXPECT_TRUE(pack.SetRungs(rungs).ok());
  return pack;
}

TEST(ReloadTest, SameBundleSwapIsBitwiseScoreIdentical) {
  constexpr uint32_t kFeatures = 5;
  constexpr uint32_t kDocs = 16;
  const bundle::ModelBundle pack = MakeServableBundle(77, kFeatures);

  // Two independent loads of the same bundle, as a restarting loader would
  // produce: nothing is shared between the generations but the bytes.
  auto loaded = bundle::MappedBundle::FromBytes(pack.Serialize());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto first = serve::Servable::FromBundle(*loaded);
  auto second = serve::Servable::FromBundle(*loaded);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  std::shared_ptr<const serve::Servable> servable1 = std::move(*first);
  std::shared_ptr<const serve::Servable> servable2 = std::move(*second);

  ServingConfig config;
  config.num_workers = 2;
  ServingEngine engine(serve::Servable::LadderHandle(servable1), config);

  Rng rng(99);
  std::vector<float> docs(kDocs * kFeatures);
  for (float& value : docs) value = static_cast<float>(rng.Normal());

  auto golden = serve::CaptureGoldenScores(engine.ladder(), docs.data(),
                                           kDocs, kFeatures);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_EQ(golden->size(), 3u);

  const ServeResponse before =
      engine.ScoreSync(docs.data(), kDocs, kFeatures, kBudgetMicros);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();

  // The production gate: the candidate must reproduce the exact scores of
  // the generation it replaces before it may serve.
  const Status swapped = engine.SwapModel(
      serve::Servable::LadderHandle(servable2),
      [&](const DegradationLadder& candidate) {
        return serve::RunGoldenSmoke(candidate, docs.data(), kDocs, kFeatures,
                                     &*golden);
      });
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(engine.model_version(), 2u);

  const ServeResponse after =
      engine.ScoreSync(docs.data(), kDocs, kFeatures, kBudgetMicros);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_EQ(after.rung, before.rung);
  ASSERT_EQ(after.scores.size(), before.scores.size());
  for (size_t d = 0; d < before.scores.size(); ++d) {
    EXPECT_EQ(std::memcmp(&after.scores[d], &before.scores[d], sizeof(float)),
              0)
        << "score " << d << " diverged across a same-bundle swap";
  }

  // And a candidate whose scores differ is caught by the same gate.
  auto different_bytes = bundle::MappedBundle::FromBytes(
      MakeServableBundle(78, kFeatures).Serialize());
  ASSERT_TRUE(different_bytes.ok()) << different_bytes.status().ToString();
  auto different = serve::Servable::FromBundle(*different_bytes);
  ASSERT_TRUE(different.ok()) << different.status().ToString();
  const Status rejected = engine.SwapModel(
      serve::Servable::LadderHandle(
          std::shared_ptr<const serve::Servable>(std::move(*different))),
      [&](const DegradationLadder& candidate) {
        return serve::RunGoldenSmoke(candidate, docs.data(), kDocs, kFeatures,
                                     &*golden);
      });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.model_version(), 2u);
  EXPECT_EQ(engine.counters().Snapshot().swaps_rejected, 1u);
}

}  // namespace
}  // namespace dnlr

// Property tests over randomly generated tree ensembles and matrices:
// every scoring engine must agree with the reference implementation on any
// structurally valid model, not just trained ones. Random structures reach
// degenerate shapes (stubs, spines, single features) that training rarely
// produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/cascade.h"
#include "serve/fault_injection.h"
#include "forest/quickscorer.h"
#include "forest/vectorized_quickscorer.h"
#include "forest/wide_quickscorer.h"
#include "gbdt/ensemble.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/sdmm.h"
#include "mm_test_util.h"
#include "nn/mlp.h"
#include "nn/scorer.h"

namespace dnlr {
namespace {

/// Builds a random binary tree with `leaves` leaves over `num_features`
/// features, thresholds ~ N(0, 2). Leaves are numbered in left-to-right
/// order via NormalizeLeafOrder.
gbdt::RegressionTree RandomTree(Rng& rng, uint32_t leaves,
                                uint32_t num_features) {
  DNLR_CHECK_GE(leaves, 1u);
  if (leaves == 1) {
    return gbdt::RegressionTree({}, {rng.Normal()});
  }
  std::vector<gbdt::TreeNode> nodes;
  std::vector<double> values;
  // Recursive random split of a leaf budget.
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

gbdt::Ensemble RandomEnsemble(Rng& rng, uint32_t trees, uint32_t max_leaves,
                              uint32_t num_features) {
  gbdt::Ensemble ensemble(rng.Normal());
  for (uint32_t t = 0; t < trees; ++t) {
    const uint32_t leaves = 1 + static_cast<uint32_t>(rng.Below(max_leaves));
    ensemble.AddTree(RandomTree(rng, leaves, num_features));
  }
  return ensemble;
}

class RandomEnsembleTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEnsembleTest, AllTraversalEnginesAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const uint32_t num_features = 3 + static_cast<uint32_t>(rng.Below(20));
  const uint32_t trees = 1 + static_cast<uint32_t>(rng.Below(25));
  const gbdt::Ensemble ensemble =
      RandomEnsemble(rng, trees, /*max_leaves=*/64, num_features);

  const forest::NaiveTraversalScorer naive(ensemble);
  const forest::QuickScorer qs(ensemble, num_features);
  const forest::VectorizedQuickScorer vqs(ensemble, num_features);
  const forest::BlockwiseQuickScorer bwqs(ensemble, num_features, 1024);
  const forest::WideQuickScorer wide(ensemble, num_features);

  const uint32_t docs = 40;
  std::vector<float> batch(static_cast<size_t>(docs) * num_features);
  for (float& value : batch) value = static_cast<float>(rng.Normal(0.0, 2.0));
  // Plant exact threshold collisions to exercise tie handling.
  if (ensemble.tree(0).num_nodes() > 0) {
    batch[0] = ensemble.tree(0).node(0).threshold;
  }

  std::vector<float> expected(docs);
  naive.Score(batch.data(), docs, num_features, expected.data());
  for (const forest::DocumentScorer* scorer :
       {static_cast<const forest::DocumentScorer*>(&qs),
        static_cast<const forest::DocumentScorer*>(&vqs),
        static_cast<const forest::DocumentScorer*>(&bwqs),
        static_cast<const forest::DocumentScorer*>(&wide)}) {
    std::vector<float> actual(docs);
    scorer->Score(batch.data(), docs, num_features, actual.data());
    for (uint32_t d = 0; d < docs; ++d) {
      EXPECT_NEAR(actual[d], expected[d],
                  2e-5f * (1.0f + std::fabs(expected[d])))
          << scorer->name() << " doc " << d << " seed " << GetParam();
    }
  }
}

TEST_P(RandomEnsembleTest, WideEnginesAgreeBeyond64Leaves) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  const uint32_t num_features = 2 + static_cast<uint32_t>(rng.Below(8));
  const gbdt::Ensemble ensemble =
      RandomEnsemble(rng, /*trees=*/6, /*max_leaves=*/200, num_features);

  const forest::NaiveTraversalScorer naive(ensemble);
  const forest::WideQuickScorer wide(ensemble, num_features);
  for (uint32_t d = 0; d < 30; ++d) {
    std::vector<float> row(num_features);
    for (float& value : row) value = static_cast<float>(rng.Normal(0.0, 2.0));
    EXPECT_NEAR(wide.ScoreDocument(row.data()), ensemble.Score(row.data()),
                1e-9)
        << "seed " << GetParam() << " doc " << d;
  }
}

TEST_P(RandomEnsembleTest, SerializationPreservesScores) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const uint32_t num_features = 4;
  const gbdt::Ensemble ensemble = RandomEnsemble(rng, 8, 32, num_features);
  auto restored = gbdt::Ensemble::Deserialize(*ensemble.Serialize());
  ASSERT_TRUE(restored.ok());
  for (uint32_t d = 0; d < 20; ++d) {
    std::vector<float> row(num_features);
    for (float& value : row) value = static_cast<float>(rng.Normal());
    EXPECT_DOUBLE_EQ(restored->Score(row.data()), ensemble.Score(row.data()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEnsembleTest, ::testing::Range(0, 12));

class RandomMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMatrixTest, GemmAndSdmmAgreeOnRandomShapes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 48271 + 11);
  const uint32_t m = 1 + static_cast<uint32_t>(rng.Below(90));
  const uint32_t k = 1 + static_cast<uint32_t>(rng.Below(90));
  const uint32_t n = 1 + static_cast<uint32_t>(rng.Below(90));
  const double sparsity = rng.Uniform();

  mm::Matrix a(m, k);
  for (uint32_t r = 0; r < m; ++r) {
    for (uint32_t c = 0; c < k; ++c) {
      if (rng.Uniform() >= sparsity) {
        a.At(r, c) = static_cast<float>(rng.Normal());
      }
    }
  }
  mm::Matrix b(k, n);
  b.FillNormal(rng);

  mm::Matrix reference(m, n);
  mm::GemmReference(a, b, &reference);

  mm::Matrix blocked(m, n);
  mm::Gemm(a, b, &blocked);
  EXPECT_LE(blocked.MaxAbsDiff(reference), 1e-3f)
      << m << "x" << k << "x" << n;

  // The served sparse layer with a zero bias and no activation is the bare
  // product.
  const mm::CsrMatrix csr = mm::CsrMatrix::FromDense(a);
  const std::vector<float> zero_bias(m, 0.0f);
  mm::PanelMatrix y;
  mm::SdmmLayer(csr, mm::ToPanels(b, mm::GemmParams().nr),
                mm::LayerEpilogue{zero_bias.data(), false}, &y);
  EXPECT_LE(mm::FromPanels(y).MaxAbsDiff(reference), 1e-3f)
      << m << "x" << k << "x" << n << " sparsity " << sparsity;
}

TEST_P(RandomMatrixTest, NeuralEnginesAgreeOnRandomModels) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 69621 + 7);
  const uint32_t input = 2 + static_cast<uint32_t>(rng.Below(40));
  std::vector<uint32_t> hidden;
  const uint32_t depth = 1 + static_cast<uint32_t>(rng.Below(4));
  for (uint32_t l = 0; l < depth; ++l) {
    hidden.push_back(1 + static_cast<uint32_t>(rng.Below(50)));
  }
  nn::Mlp mlp(predict::Architecture(input, hidden), rng.Next());
  // Random first-layer sparsification.
  mm::Matrix& w0 = mlp.layer(0).weight;
  for (size_t i = 0; i < w0.size(); ++i) {
    if (rng.Uniform() < 0.8) w0.data()[i] = 0.0f;
  }

  const uint32_t docs = 1 + static_cast<uint32_t>(rng.Below(50));
  std::vector<float> batch(static_cast<size_t>(docs) * input);
  for (float& value : batch) value = static_cast<float>(rng.Normal());

  // Reference forward, per document.
  std::vector<float> expected(docs);
  for (uint32_t d = 0; d < docs; ++d) {
    expected[d] = mlp.ForwardOne(batch.data() + static_cast<size_t>(d) * input);
  }

  nn::NeuralScorerConfig config;
  config.batch_size = 1 + static_cast<uint32_t>(rng.Below(16));
  const nn::NeuralScorer dense(mlp, nullptr, config);
  const nn::HybridNeuralScorer hybrid(mlp, nullptr, config);
  for (const forest::DocumentScorer* scorer :
       {static_cast<const forest::DocumentScorer*>(&dense),
        static_cast<const forest::DocumentScorer*>(&hybrid)}) {
    std::vector<float> actual(docs);
    scorer->Score(batch.data(), docs, input, actual.data());
    for (uint32_t d = 0; d < docs; ++d) {
      EXPECT_NEAR(actual[d], expected[d],
                  5e-4f * (1.0f + std::fabs(expected[d])))
          << scorer->name() << " seed " << GetParam() << " doc " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatrixTest, ::testing::Range(0, 12));

// For any random ensembles and any NaN/Inf injection schedule on the first
// stage, the cascade must (a) emit only finite scores and (b) preserve the
// cascade cut: the top-`keep` documents by final score must be exactly those
// the (sanitized) first stage ranked highest. A second fault injector with
// the same seed replays the identical fault schedule to recover the
// first-stage scores the cascade actually saw.
class CascadeFaultTest : public ::testing::TestWithParam<int> {};

TEST_P(CascadeFaultTest, NanInjectedFirstStagePreservesCutAndFiniteness) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const uint32_t num_features = 3 + static_cast<uint32_t>(rng.Below(12));
  const gbdt::Ensemble first =
      RandomEnsemble(rng, 1 + static_cast<uint32_t>(rng.Below(10)),
                     /*max_leaves=*/32, num_features);
  const gbdt::Ensemble second =
      RandomEnsemble(rng, 1 + static_cast<uint32_t>(rng.Below(10)),
                     /*max_leaves=*/32, num_features);
  forest::QuickScorer first_qs(first, num_features);
  forest::QuickScorer second_qs(second, num_features);

  serve::FaultInjectionConfig config;
  config.non_finite_probability = 0.7;
  config.seed = static_cast<uint64_t>(GetParam()) + 1;
  FakeClock clock;
  serve::FaultInjectingScorer faulty(&first_qs, config, &clock);
  serve::FaultInjectingScorer replay(&first_qs, config, &clock);

  const double fraction = 0.1 + 0.2 * rng.Uniform();
  const core::CascadeScorer cascade(&faulty, &second_qs, fraction);

  // The cascade's internal sanitization sentinel: non-finite first-stage
  // scores sink to the bottom of the ranking.
  constexpr float kSanitized = -1e30f;

  for (int batch = 0; batch < 8; ++batch) {
    const uint32_t count = 5 + static_cast<uint32_t>(rng.Below(40));
    std::vector<float> docs(static_cast<size_t>(count) * num_features);
    for (auto& v : docs) v = rng.Normal();

    std::vector<float> final_scores(count);
    cascade.Score(docs.data(), count, num_features, final_scores.data());
    std::vector<float> reference(count);
    replay.Score(docs.data(), count, num_features, reference.data());

    // (a) Only finite scores leave the cascade, poisoned inputs included.
    for (uint32_t d = 0; d < count; ++d) {
      ASSERT_TRUE(std::isfinite(final_scores[d]))
          << "seed " << GetParam() << " batch " << batch << " doc " << d;
    }

    const auto keep = std::max<uint32_t>(
        1, static_cast<uint32_t>(fraction * count + 0.5));
    if (keep >= count) continue;  // full rescore: no cut to preserve

    for (auto& v : reference) {
      if (!std::isfinite(v)) v = kSanitized;
    }

    // (b) The top-`keep` documents by final score are first-stage winners:
    // each outranks (or ties) every document outside the cut under the
    // sanitized first-stage scores.
    std::vector<uint32_t> by_final(count);
    std::iota(by_final.begin(), by_final.end(), 0);
    std::partial_sort(by_final.begin(), by_final.begin() + keep,
                      by_final.end(), [&](uint32_t a, uint32_t b) {
                        return final_scores[a] > final_scores[b];
                      });
    float kept_first_stage_min = std::numeric_limits<float>::infinity();
    for (uint32_t r = 0; r < keep; ++r) {
      kept_first_stage_min =
          std::min(kept_first_stage_min, reference[by_final[r]]);
    }
    float tail_first_stage_max = -std::numeric_limits<float>::infinity();
    for (uint32_t r = keep; r < count; ++r) {
      tail_first_stage_max =
          std::max(tail_first_stage_max, reference[by_final[r]]);
    }
    EXPECT_GE(kept_first_stage_min, tail_first_stage_max)
        << "seed " << GetParam() << " batch " << batch;
  }
  EXPECT_EQ(faulty.batches_poisoned(), replay.batches_poisoned());
  if (faulty.batches_poisoned() > 0) {
    EXPECT_GT(cascade.sanitized_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeFaultTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace dnlr

#include "forest/quickscorer.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "forest/validate.h"
#include "forest/wide_quickscorer.h"
#include "obs/trace.h"

namespace dnlr::forest {
namespace {

struct Condition {
  float threshold;
  uint32_t tree;
  uint64_t mask;
};

/// Computes the false-node mask of every internal node of `tree`: zeros on
/// the leaves of the node's left subtree (unreachable when its test is
/// false), ones elsewhere. Returns one (feature, condition) pair per node.
void CollectTreeConditions(const gbdt::RegressionTree& tree, uint32_t tree_id,
                           std::vector<std::vector<Condition>>* per_feature) {
  DNLR_CHECK_LE(tree.num_leaves(), 64u) << "QuickScorer requires <= 64 leaves";
  if (tree.num_nodes() == 0) return;
  // DFS computing the [first, last) leaf range of each subtree; leaves are
  // already numbered left to right (RegressionTree::NormalizeLeafOrder).
  std::function<std::pair<uint32_t, uint32_t>(int32_t)> visit =
      [&](int32_t child) -> std::pair<uint32_t, uint32_t> {
    if (gbdt::TreeNode::IsLeaf(child)) {
      const uint32_t leaf = gbdt::TreeNode::DecodeLeaf(child);
      return {leaf, leaf + 1};
    }
    const gbdt::TreeNode& node = tree.node(child);
    const auto left_range = visit(node.left);
    const auto right_range = visit(node.right);
    DNLR_CHECK_EQ(left_range.second, right_range.first)
        << "leaves not in left-to-right order";
    // Zeros on the left subtree's leaves.
    const uint32_t span = left_range.second - left_range.first;
    const uint64_t zeros =
        (span >= 64 ? ~0ull : ((1ull << span) - 1)) << left_range.first;
    Condition condition{node.threshold, tree_id, ~zeros};
    DNLR_CHECK_LT(node.feature, per_feature->size());
    (*per_feature)[node.feature].push_back(condition);
    return {left_range.first, right_range.second};
  };
  visit(0);
}

}  // namespace

QuickScorer::QuickScorer(const gbdt::Ensemble& ensemble,
                         uint32_t num_features) {
#ifndef NDEBUG
  // Debug builds verify the full QuickScorer precondition set (word-width
  // leaf counts, feature stride, left-to-right leaf order) up front with a
  // readable report instead of tripping a mid-construction DNLR_CHECK.
  const Status precondition =
      ValidateForQuickScorer(ensemble, num_features, /*max_leaves=*/64);
  DNLR_CHECK(precondition.ok()) << precondition.ToString();
#endif
  num_trees_ = ensemble.num_trees();
  base_score_ = ensemble.base_score();

  std::vector<std::vector<Condition>> per_feature(num_features);
  leaf_offsets_.reserve(num_trees_ + 1);
  leaf_offsets_.push_back(0);
  for (uint32_t t = 0; t < num_trees_; ++t) {
    const gbdt::RegressionTree& tree = ensemble.tree(t);
    CollectTreeConditions(tree, t, &per_feature);
    leaf_values_.insert(leaf_values_.end(), tree.leaf_values().begin(),
                        tree.leaf_values().end());
    leaf_offsets_.push_back(static_cast<uint32_t>(leaf_values_.size()));
  }

  features_.resize(num_features);
  for (uint32_t f = 0; f < num_features; ++f) {
    std::vector<Condition>& conditions = per_feature[f];
    std::stable_sort(conditions.begin(), conditions.end(),
                     [](const Condition& a, const Condition& b) {
                       return a.threshold < b.threshold;
                     });
    FeatureConditions& out = features_[f];
    out.thresholds.reserve(conditions.size());
    out.tree_ids.reserve(conditions.size());
    out.masks.reserve(conditions.size());
    for (const Condition& condition : conditions) {
      out.thresholds.push_back(condition.threshold);
      out.tree_ids.push_back(condition.tree);
      out.masks.push_back(condition.mask);
    }
  }
}

void QuickScorer::ApplyMasks(const float* row, uint64_t* leaf_index) const {
  for (size_t f = 0; f < features_.size(); ++f) {
    const FeatureConditions& fc = features_[f];
    const float value = row[f];
    const size_t n = fc.thresholds.size();
    // Ascending thresholds: the node test (value <= threshold) is false
    // exactly for the leading prefix with threshold < value.
    for (size_t i = 0; i < n && value > fc.thresholds[i]; ++i) {
      leaf_index[fc.tree_ids[i]] &= fc.masks[i];
    }
  }
}

double QuickScorer::Harvest(const uint64_t* leaf_index) const {
  double score = base_score_;
  for (uint32_t t = 0; t < num_trees_; ++t) {
    const int exit_leaf = std::countr_zero(leaf_index[t]);
    score += leaf_values_[leaf_offsets_[t] + exit_leaf];
  }
  return score;
}

double QuickScorer::ScoreDocument(const float* row) const {
  std::vector<uint64_t> leaf_index(num_trees_, ~0ull);
  ApplyMasks(row, leaf_index.data());
  return Harvest(leaf_index.data());
}

void QuickScorer::Score(const float* docs, uint32_t count, uint32_t stride,
                        float* out) const {
  DNLR_OBS_COUNT("forest.quickscorer.docs", count);
  DNLR_OBS_SPAN(score_span, "forest.quickscorer.batch_us");
  std::vector<uint64_t> leaf_index(num_trees_);
  for (uint32_t d = 0; d < count; ++d) {
    std::fill(leaf_index.begin(), leaf_index.end(), ~0ull);
    const float* row = docs + static_cast<size_t>(d) * stride;
    ApplyMasks(row, leaf_index.data());
    out[d] = static_cast<float>(Harvest(leaf_index.data()));
  }
}

uint64_t QuickScorer::CountComparisons(const float* row) const {
  uint64_t comparisons = 0;
  for (size_t f = 0; f < features_.size(); ++f) {
    const FeatureConditions& fc = features_[f];
    const float value = row[f];
    const size_t n = fc.thresholds.size();
    size_t i = 0;
    while (i < n && value > fc.thresholds[i]) ++i;
    // The i false-node tests plus, if we stopped early, the test that
    // terminated the scan.
    comparisons += i + (i < n ? 1 : 0);
  }
  return comparisons;
}

uint64_t QuickScorer::TotalConditions() const {
  uint64_t total = 0;
  for (const FeatureConditions& fc : features_) total += fc.thresholds.size();
  return total;
}

BlockwiseQuickScorer::BlockwiseQuickScorer(const gbdt::Ensemble& ensemble,
                                           uint32_t num_features,
                                           size_t block_bytes) {
  base_score_ = ensemble.base_score();
  // Estimate the footprint of one tree: each internal node contributes a
  // (float threshold, uint32 tree id, uint64 mask) triple; each leaf a
  // double.
  gbdt::Ensemble block(0.0);
  size_t bytes = 0;
  auto flush = [&] {
    if (block.num_trees() == 0) return;
    blocks_.emplace_back(block, num_features);
    block = gbdt::Ensemble(0.0);
    bytes = 0;
  };
  for (uint32_t t = 0; t < ensemble.num_trees(); ++t) {
    const gbdt::RegressionTree& tree = ensemble.tree(t);
    const size_t tree_bytes =
        tree.num_nodes() * (sizeof(float) + sizeof(uint32_t) + sizeof(uint64_t)) +
        tree.num_leaves() * sizeof(double);
    if (bytes > 0 && bytes + tree_bytes > block_bytes) flush();
    block.AddTree(tree);
    bytes += tree_bytes;
  }
  flush();
}

void BlockwiseQuickScorer::Score(const float* docs, uint32_t count,
                                 uint32_t stride, float* out) const {
  DNLR_OBS_COUNT("forest.blockwise.docs", count);
  std::fill(out, out + count, static_cast<float>(base_score_));
  // Blocks outer, documents inner: each block's structures stay cache
  // resident while the whole batch streams through.
  std::vector<uint64_t> leaf_index;
  for (const QuickScorer& block : blocks_) {
    // One span per tree block: the per-block traversal cost is the quantity
    // the BWQS cache-budget trade-off is tuned on.
    DNLR_OBS_SPAN(block_span, "forest.blockwise.block_us");
    leaf_index.assign(block.num_trees(), ~0ull);
    for (uint32_t d = 0; d < count; ++d) {
      std::fill(leaf_index.begin(), leaf_index.end(), ~0ull);
      const float* row = docs + static_cast<size_t>(d) * stride;
      block.ApplyMasks(row, leaf_index.data());
      out[d] += static_cast<float>(block.Harvest(leaf_index.data()));
    }
  }
}

std::unique_ptr<DocumentScorer> MakeForestScorer(
    const gbdt::Ensemble& ensemble, uint32_t num_features) {
  if (ensemble.MaxLeaves() > 64) {
    return std::make_unique<WideQuickScorer>(ensemble, num_features);
  }
  return std::make_unique<QuickScorer>(ensemble, num_features);
}

}  // namespace dnlr::forest

#ifndef DNLR_FOREST_QUICKSCORER_H_
#define DNLR_FOREST_QUICKSCORER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "forest/scorer.h"
#include "gbdt/ensemble.h"

namespace dnlr::forest {

/// QuickScorer (Lucchese et al., SIGIR 2015): interleaved, feature-wise
/// traversal of an additive tree ensemble.
///
/// Every tree's leaves are numbered left to right; each internal node n
/// carries a bitvector mask with zeros on the leaves of n's left subtree.
/// For a document x, AND-ing the masks of all *false* nodes (nodes whose
/// test x[f] <= threshold fails) leaves the exit leaf as the lowest set bit.
/// Nodes are processed feature by feature in ascending threshold order, so
/// the scan of a feature stops at the first true test — this is why
/// QuickScorer evaluates ~30 % of the nodes a classic traversal touches and
/// does so with perfectly sequential, branch-predictable memory access.
///
/// Requires every tree to have at most 64 leaves (one machine word), the
/// regime the paper's efficiency study operates in.
class QuickScorer : public DocumentScorer {
 public:
  /// Builds the feature-wise structure. `num_features` is the input stride
  /// (the ensemble may reference any subset of the features).
  QuickScorer(const gbdt::Ensemble& ensemble, uint32_t num_features);

  std::string_view name() const override { return "quickscorer"; }

  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override;

  /// Scores a single document.
  double ScoreDocument(const float* row) const;

  /// Counts threshold comparisons performed for `row` (including the one
  /// that stops each feature scan). The ablation bench compares this with
  /// NaiveTraversalScorer node visits.
  uint64_t CountComparisons(const float* row) const;

  uint32_t num_trees() const { return num_trees_; }
  uint32_t num_features() const {
    return static_cast<uint32_t>(features_.size());
  }
  /// Total number of (threshold, mask) conditions across all features.
  uint64_t TotalConditions() const;

  /// Advanced API used by the block-wise and vectorized variants.
  /// Applies all false-node masks for one document into `leaf_index`
  /// (num_trees words, caller-initialized to all ones).
  void ApplyMasks(const float* row, uint64_t* leaf_index) const;

  /// Sums up exit-leaf values given the final leaf_index words.
  double Harvest(const uint64_t* leaf_index) const;

 protected:
  /// Per-feature arrays sorted by ascending threshold (struct-of-arrays for
  /// sequential scanning).
  struct FeatureConditions {
    std::vector<float> thresholds;
    std::vector<uint32_t> tree_ids;
    std::vector<uint64_t> masks;
  };

  std::vector<FeatureConditions> features_;
  // Leaf values of tree t occupy [leaf_offsets_[t], leaf_offsets_[t + 1]).
  std::vector<double> leaf_values_;
  std::vector<uint32_t> leaf_offsets_;
  uint32_t num_trees_ = 0;
  double base_score_ = 0.0;
};

/// Block-wise QuickScorer (BWQS): partitions the forest into blocks of trees
/// whose conditions + leaf values fit in cache, and scores all documents of
/// the batch block by block, trading one pass over the documents per block
/// for a much lower cache-miss rate on large forests.
class BlockwiseQuickScorer : public DocumentScorer {
 public:
  /// `block_bytes` is the cache budget per block (default 256 KiB, an
  /// L2-sized working set).
  BlockwiseQuickScorer(const gbdt::Ensemble& ensemble, uint32_t num_features,
                       size_t block_bytes = 256 * 1024);

  std::string_view name() const override { return "blockwise-quickscorer"; }

  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override;

  size_t num_blocks() const { return blocks_.size(); }

 private:
  std::vector<QuickScorer> blocks_;
  double base_score_ = 0.0;
};

/// The engine a forest is served on: QuickScorer when every tree has at most
/// 64 leaves, WideQuickScorer otherwise. The one place this choice is made;
/// both engines copy `ensemble`, so it need not outlive the scorer.
std::unique_ptr<DocumentScorer> MakeForestScorer(
    const gbdt::Ensemble& ensemble, uint32_t num_features);

}  // namespace dnlr::forest

#endif  // DNLR_FOREST_QUICKSCORER_H_

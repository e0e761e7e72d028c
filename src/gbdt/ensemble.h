#ifndef DNLR_GBDT_ENSEMBLE_H_
#define DNLR_GBDT_ENSEMBLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "gbdt/tree.h"

namespace dnlr::gbdt {

/// An additive ensemble of regression trees (a GBDT / LambdaMART model).
/// Score(x) = base_score + sum_t tree_t(x); the shrinkage (learning rate) is
/// already folded into the leaf values by the trainer.
class Ensemble {
 public:
  Ensemble() = default;
  explicit Ensemble(double base_score) : base_score_(base_score) {}

  void AddTree(RegressionTree tree) { trees_.push_back(std::move(tree)); }

  uint32_t num_trees() const { return static_cast<uint32_t>(trees_.size()); }
  const RegressionTree& tree(uint32_t t) const { return trees_[t]; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double base_score() const { return base_score_; }
  void set_base_score(double base) { base_score_ = base; }

  /// Largest leaf count over all trees (determines the QuickScorer bitvector
  /// width; the paper's models use 64 or 256 leaves).
  uint32_t MaxLeaves() const;

  /// Total number of internal nodes over all trees.
  uint32_t TotalNodes() const;

  /// Classic per-document traversal score.
  double Score(const float* row) const {
    double sum = base_score_;
    for (const RegressionTree& tree : trees_) sum += tree.Score(row);
    return sum;
  }

  /// Scores every document of `dataset`; returns one float per document.
  std::vector<float> ScoreDataset(const data::Dataset& dataset) const;

  /// Keeps only the first `n` trees (used by early stopping to roll back to
  /// the best validation iteration).
  void Truncate(uint32_t n);

  /// For each feature, the sorted distinct split thresholds used anywhere in
  /// the ensemble. This is both what QuickScorer's feature-wise traversal
  /// sorts and what the distillation data augmentation samples midpoints
  /// from (paper Section 3).
  std::vector<std::vector<float>> SplitPointsPerFeature(
      uint32_t num_features) const;

  /// Plain-text serialization (stable across versions; see ensemble.cc for
  /// the grammar). Both directions use the classic "C" locale regardless of
  /// the process-global locale, and values print with max_digits10
  /// precision, so a save/load round-trip is bitwise exact. Serialize
  /// rejects non-finite thresholds, leaf values or base score with
  /// InvalidArgument instead of emitting tokens the parser cannot read
  /// back.
  Result<std::string> Serialize() const;
  static Result<Ensemble> Deserialize(const std::string& text);

  /// Binary (de)serialization: the little-endian "GBT2" payload carried by
  /// v2 binary bundles. Node and leaf arrays are raw TreeNode / double
  /// bytes padded to kSimdAlignment boundaries, so loading a forest is a
  /// bounds-checked memcpy per tree instead of a per-node text parse —
  /// bitwise identical to the text round-trip, orders of magnitude faster.
  /// SerializeBinary applies the same non-finite rejection as Serialize.
  Result<std::string> SerializeBinary() const;
  static Result<Ensemble> DeserializeBinary(std::string_view bytes);

  /// Crash-safe save: serialized, written to a temp file and atomically
  /// renamed over `path` (common::AtomicWriteFile), so a crash or full disk
  /// mid-save never leaves a torn model at the live path.
  Status SaveToFile(const std::string& path) const;
  static Result<Ensemble> LoadFromFile(const std::string& path);

 private:
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;
};

/// The served teacher-subset rung and cascade first stage: the first
/// max(1, num_trees / 4) trees of `teacher` (none if it has none).
Ensemble TeacherSubset(const Ensemble& teacher);

}  // namespace dnlr::gbdt

#endif  // DNLR_GBDT_ENSEMBLE_H_

#include "gbdt/ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <locale>
#include <set>
#include <sstream>

#include "common/aligned.h"
#include "common/binio.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "gbdt/validate.h"

namespace dnlr::gbdt {

uint32_t Ensemble::MaxLeaves() const {
  uint32_t max_leaves = 0;
  for (const RegressionTree& tree : trees_) {
    max_leaves = std::max(max_leaves, tree.num_leaves());
  }
  return max_leaves;
}

uint32_t Ensemble::TotalNodes() const {
  uint32_t total = 0;
  for (const RegressionTree& tree : trees_) total += tree.num_nodes();
  return total;
}

std::vector<float> Ensemble::ScoreDataset(const data::Dataset& dataset) const {
  std::vector<float> scores(dataset.num_docs());
  for (uint32_t d = 0; d < dataset.num_docs(); ++d) {
    scores[d] = static_cast<float>(Score(dataset.Row(d)));
  }
  return scores;
}

void Ensemble::Truncate(uint32_t n) {
  if (n < trees_.size()) trees_.resize(n);
}

std::vector<std::vector<float>> Ensemble::SplitPointsPerFeature(
    uint32_t num_features) const {
  std::vector<std::set<float>> points(num_features);
  for (const RegressionTree& tree : trees_) {
    for (const TreeNode& node : tree.nodes()) {
      DNLR_CHECK_LT(node.feature, num_features);
      points[node.feature].insert(node.threshold);
    }
  }
  std::vector<std::vector<float>> result(num_features);
  for (uint32_t f = 0; f < num_features; ++f) {
    result[f].assign(points[f].begin(), points[f].end());
  }
  return result;
}

// Grammar:
//   ensemble <num_trees> <base_score>
//   tree <num_nodes> <num_leaves>
//   node <feature> <threshold> <left> <right>     (num_nodes lines)
//   leaf <value>                                  (num_leaves lines)
Result<std::string> Ensemble::Serialize() const {
  if (!std::isfinite(base_score_)) {
    return Status::InvalidArgument(
        "cannot serialize ensemble: non-finite base score");
  }
  for (size_t t = 0; t < trees_.size(); ++t) {
    const RegressionTree& tree = trees_[t];
    for (const TreeNode& node : tree.nodes()) {
      if (!std::isfinite(node.threshold)) {
        return Status::InvalidArgument(
            "cannot serialize ensemble: non-finite threshold in tree " +
            std::to_string(t));
      }
    }
    for (const double value : tree.leaf_values()) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(
            "cannot serialize ensemble: non-finite leaf value in tree " +
            std::to_string(t));
      }
    }
  }
  std::ostringstream out;
  // The classic locale pins the decimal separator to '.' no matter what the
  // process-global locale says, and max_digits10 (17 for double) guarantees
  // a bitwise-exact round-trip of thresholds and leaf values.
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "ensemble " << trees_.size() << ' ' << base_score_ << '\n';
  for (const RegressionTree& tree : trees_) {
    out << "tree " << tree.num_nodes() << ' ' << tree.num_leaves() << '\n';
    for (const TreeNode& node : tree.nodes()) {
      out << "node " << node.feature << ' ' << node.threshold << ' '
          << node.left << ' ' << node.right << '\n';
    }
    for (const double value : tree.leaf_values()) {
      out << "leaf " << value << '\n';
    }
  }
  return out.str();
}

Result<Ensemble> Ensemble::Deserialize(const std::string& text) {
  std::istringstream in(text);
  // Parse under the classic locale so a comma-decimal global locale cannot
  // corrupt thresholds and leaf values.
  in.imbue(std::locale::classic());
  std::string keyword;
  size_t num_trees = 0;
  double base_score = 0.0;
  if (!(in >> keyword >> num_trees >> base_score) || keyword != "ensemble") {
    return Status::ParseError("expected 'ensemble <n> <base>' header");
  }
  Ensemble ensemble(base_score);
  for (size_t t = 0; t < num_trees; ++t) {
    size_t num_nodes = 0;
    size_t num_leaves = 0;
    if (!(in >> keyword >> num_nodes >> num_leaves) || keyword != "tree") {
      return Status::ParseError("expected 'tree <nodes> <leaves>' for tree " +
                                std::to_string(t));
    }
    // A node line is five tokens and a leaf line two; both counts must fit
    // in the text left before either array is allocated.
    const size_t tokens = MaxTokensLeft(in);
    if (num_nodes > tokens / 5 || num_leaves > (tokens - 5 * num_nodes) / 2) {
      return Status::ParseError("tree " + std::to_string(t) +
                                " declares more nodes and leaves than its "
                                "text holds");
    }
    std::vector<TreeNode> nodes(num_nodes);
    for (TreeNode& node : nodes) {
      if (!(in >> keyword >> node.feature >> node.threshold >> node.left >>
            node.right) ||
          keyword != "node") {
        return Status::ParseError("bad node line in tree " + std::to_string(t));
      }
    }
    std::vector<double> leaves(num_leaves);
    for (double& value : leaves) {
      if (!(in >> keyword >> value) || keyword != "leaf") {
        return Status::ParseError("bad leaf line in tree " + std::to_string(t));
      }
    }
    ensemble.AddTree(RegressionTree(std::move(nodes), std::move(leaves)));
  }
#ifndef NDEBUG
  // Debug builds reject structurally invalid models at the parse boundary;
  // release callers opt in via ValidateEnsemble / `dnlr_cli validate`.
  DNLR_RETURN_IF_ERROR(ValidateEnsemble(ensemble, /*num_features=*/0));
#endif
  return ensemble;
}

// The node array is memcpy'd whole, so the binary format is pinned to
// TreeNode's exact in-memory layout; any field change must bump the codec
// tag. These asserts turn a silent layout drift into a build break.
static_assert(sizeof(TreeNode) == 16 && std::is_trivially_copyable_v<TreeNode>,
              "GBT2 binary codec requires the packed 16-byte TreeNode");
static_assert(offsetof(TreeNode, feature) == 0 &&
                  offsetof(TreeNode, threshold) == 4 &&
                  offsetof(TreeNode, left) == 8 &&
                  offsetof(TreeNode, right) == 12,
              "GBT2 binary codec requires TreeNode's field order");

// Binary "GBT2" payload layout (little-endian; see common/binio.h):
//   "GBT2"  u32 num_trees  u32 reserved(0)  f64 base_score
//   per tree: u32 num_nodes  u32 num_leaves          (directory, upfront)
//   per tree, in order:
//     pad to kSimdAlignment, TreeNode nodes[num_nodes] (16 bytes each),
//     pad to kSimdAlignment, f64 leaf_values[num_leaves]
// The directory-first shape lets a reader size every allocation against
// the payload length before touching any array.
Result<std::string> Ensemble::SerializeBinary() const {
  if (!std::isfinite(base_score_)) {
    return Status::InvalidArgument(
        "cannot serialize ensemble: non-finite base score");
  }
  for (size_t t = 0; t < trees_.size(); ++t) {
    const RegressionTree& tree = trees_[t];
    for (const TreeNode& node : tree.nodes()) {
      if (!std::isfinite(node.threshold)) {
        return Status::InvalidArgument(
            "cannot serialize ensemble: non-finite threshold in tree " +
            std::to_string(t));
      }
    }
    for (const double value : tree.leaf_values()) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(
            "cannot serialize ensemble: non-finite leaf value in tree " +
            std::to_string(t));
      }
    }
  }
  std::string out;
  AppendBytes(out, "GBT2", 4);
  AppendU32(out, static_cast<uint32_t>(trees_.size()));
  AppendU32(out, 0);
  AppendF64(out, base_score_);
  for (const RegressionTree& tree : trees_) {
    AppendU32(out, tree.num_nodes());
    AppendU32(out, tree.num_leaves());
  }
  for (const RegressionTree& tree : trees_) {
    AppendPadTo(out, kSimdAlignment);
    AppendBytes(out, tree.nodes().data(),
                tree.nodes().size() * sizeof(TreeNode));
    AppendPadTo(out, kSimdAlignment);
    AppendBytes(out, tree.leaf_values().data(),
                tree.leaf_values().size() * sizeof(double));
  }
  return out;
}

Result<Ensemble> Ensemble::DeserializeBinary(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (!reader.ExpectTag("GBT2")) {
    return Status::ParseError("not a binary ensemble payload (bad GBT2 tag)");
  }
  uint32_t num_trees = 0;
  uint32_t reserved = 0;
  double base_score = 0.0;
  if (!reader.ReadU32(&num_trees) || !reader.ReadU32(&reserved) ||
      !reader.ReadF64(&base_score)) {
    return Status::ParseError("truncated binary ensemble header");
  }
  // The 8-byte directory entries must fit in the payload, which bounds the
  // tree count (and thus the directory allocation) by the section length.
  if (num_trees > reader.remaining() / 8) {
    return Status::ParseError(
        "binary ensemble declares more trees than the payload holds");
  }
  std::vector<std::pair<uint32_t, uint32_t>> directory(num_trees);
  for (auto& [nodes, leaves] : directory) {
    if (!reader.ReadU32(&nodes) || !reader.ReadU32(&leaves)) {
      return Status::ParseError("truncated binary ensemble tree directory");
    }
  }
  Ensemble ensemble(base_score);
  for (uint32_t t = 0; t < num_trees; ++t) {
    std::vector<TreeNode> nodes;
    std::vector<double> leaves;
    // ReadPodArray bounds-checks each declared count against the remaining
    // bytes before allocating, so a forged directory cannot demand a giant
    // tree.
    if (!reader.AlignTo(kSimdAlignment) ||
        !reader.ReadPodArray(&nodes, directory[t].first) ||
        !reader.AlignTo(kSimdAlignment) ||
        !reader.ReadPodArray(&leaves, directory[t].second)) {
      return Status::ParseError("truncated binary ensemble at tree " +
                                std::to_string(t));
    }
    ensemble.AddTree(RegressionTree(std::move(nodes), std::move(leaves)));
  }
  if (reader.remaining() != 0) {
    return Status::ParseError(
        "trailing bytes after binary ensemble trees (" +
        std::to_string(reader.remaining()) + " unaccounted)");
  }
#ifndef NDEBUG
  // Same boundary policy as the text parser: debug builds validate here,
  // release callers opt in via ValidateEnsemble / `dnlr_cli validate`.
  DNLR_RETURN_IF_ERROR(ValidateEnsemble(ensemble, /*num_features=*/0));
#endif
  return ensemble;
}

Status Ensemble::SaveToFile(const std::string& path) const {
  Result<std::string> text = Serialize();
  if (!text.ok()) return text.status();
  return AtomicWriteFile(path, *text);
}

Result<Ensemble> Ensemble::LoadFromFile(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return Deserialize(*text);
}

Ensemble TeacherSubset(const Ensemble& teacher) {
  Ensemble subset(teacher.base_score());
  const uint32_t keep = std::max(1u, teacher.num_trees() / 4);
  for (uint32_t t = 0; t < keep && t < teacher.num_trees(); ++t) {
    subset.AddTree(teacher.tree(t));
  }
  return subset;
}

}  // namespace dnlr::gbdt
